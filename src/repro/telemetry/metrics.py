"""Proxy-side metric primitives (counters, gauges, per-backend bundles).

Mirrors how a Linkerd proxy exposes data-plane metrics: request totals are
monotonic counters (rates must be derived by the query layer from scraped
samples, never read directly), in-flight requests are a gauge, latency is a
bucketed histogram.
"""

from __future__ import annotations

from repro.errors import TelemetryError
from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.names import ProxySample


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; decreasing is a telemetry-model violation."""
        if amount < 0:
            raise TelemetryError(f"counters cannot decrease: {amount}")
        self._value += amount


class Gauge:
    """A value that can move in both directions (e.g. in-flight requests)."""

    __slots__ = ("_value",)

    def __init__(self, initial: float = 0.0):
        self._value = float(initial)

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


class BackendTelemetry:
    """The full data-plane metric bundle one proxy keeps per backend.

    Attributes:
        requests_total: all completed requests (success + failure).
        failures_total: completed requests with a failure response.
        success_latency: latency histogram of *successful* requests only
            (§3.1: failure latency must not pollute the success signal).
        failure_latency: latency histogram of failed requests, kept
            separately — used by the dynamic-penalty extension.
        inflight: requests sent but not yet answered.
    """

    def __init__(self, backend_name: str, scrape_name: str | None = None):
        """Args:
            backend_name: the backend these metrics describe.
            scrape_name: name the scraper stores series under; defaults to
                the backend name. Proxies scope it by source cluster
                (``"cluster-1|svc/cluster-2"``) so that each cluster's L3
                instance sees latency *from its own vantage point* — the
                paper's "L3 would most likely run on all clusters".
        """
        self.backend_name = backend_name
        self.scrape_name = scrape_name or backend_name
        self.requests_total = Counter()
        self.failures_total = Counter()
        self.success_latency = LatencyHistogram()
        self.failure_latency = LatencyHistogram()
        self.inflight = Gauge()
        # The row sample() returned last: an unchanged (idle) bundle hands
        # out the same object, so its scrapes retain no new allocation.
        self._row: ProxySample | None = None

    def sample(self) -> ProxySample:
        """The bundle as one store row — what every scrape writes."""
        success = self.success_latency
        values = (
            self.requests_total._value, self.failures_total._value,
            success.cumulative_counts(), success._sum, success._count,
            self.failure_latency.cumulative_counts(), self.inflight._value)
        if values != self._row:
            self._row = ProxySample._make(values)
        return self._row

    # The two hooks below run once per request attempt; the Gauge/Counter
    # inc()/dec() calls are inlined (same `+= 1.0` the methods perform —
    # the amounts are constants, so the validation they'd do is vacuous).

    def on_request_sent(self) -> None:
        """Record a request leaving the proxy toward this backend."""
        self.inflight._value += 1.0

    def on_response(self, latency_s: float, success: bool) -> None:
        """Record a completed request (response or failure observed)."""
        self.inflight._value -= 1.0
        self.requests_total._value += 1.0
        if success:
            self.success_latency.observe(latency_s)
        else:
            self.failures_total._value += 1.0
            self.failure_latency.observe(latency_s)
