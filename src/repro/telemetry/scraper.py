"""The Prometheus-like scrape loop (paper §4: default every 5 seconds)."""

from __future__ import annotations

from repro.errors import TelemetryError
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.names import PROXY_SAMPLE
from repro.telemetry.timeseries import SampleSeries, TimeSeriesStore


class Scraper:
    """Periodically snapshots proxy telemetry into a time-series store.

    The scrape interval bounds the control loop's data freshness: rates are
    per-second averages extrapolated from counter deltas between scrapes,
    which the paper calls out as a limitation for spiky workloads (§4).
    """

    def __init__(self, store: TimeSeriesStore, interval_s: float = 5.0):
        if interval_s <= 0:
            raise TelemetryError(f"scrape interval must be positive: {interval_s}")
        self.store = store
        self.interval_s = interval_s
        # Targets and gauges hold their series handle, bound once at
        # registration: a scrape is then one append per target.
        self._targets: dict[str, tuple[BackendTelemetry, SampleSeries]] = {}
        self._gauges: list[tuple[SampleSeries, object]] = []
        # Fault injection: a paused scraper skips its ticks entirely, so
        # the store receives no new samples and windowed queries go empty —
        # the controller's decay-toward-default path.
        self.paused = False
        self.skipped_scrapes = 0

    def register(self, telemetry: BackendTelemetry) -> None:
        """Add a proxy's per-backend telemetry bundle as a scrape target."""
        name = getattr(telemetry, "scrape_name", telemetry.backend_name)
        if name in self._targets:
            raise TelemetryError(f"duplicate scrape target: {name}")
        self._targets[name] = (telemetry, self.store.series(name, PROXY_SAMPLE))

    def register_gauge(self, series_name: str, metric: str, read) -> None:
        """Add a custom gauge scrape target.

        Used for server-side signals that are not part of a client proxy's
        bundle — e.g. a backend's replica queue occupancy, the feedback
        channel the original C3 relies on.

        Args:
            series_name: time-series key (e.g. ``"server|svc/cluster-1"``).
            metric: metric name within the series.
            read: zero-argument callable returning the current value.
        """
        self._gauges.append((self.store.series(series_name, metric), read))

    def scrape_once(self, now: float) -> None:
        """Snapshot every registered target at time ``now``."""
        for telemetry, series in self._targets.values():
            series.append(now, telemetry.sample())
        for series, read in self._gauges:
            series.append(now, float(read()))

    def pause(self, mode: str = "error") -> None:
        """Suspend scraping (fault injection: Prometheus outage).

        ``mode`` exists for signature parity with the live substrate's
        scrape-outage adapter (500s vs. stalls); in the simulator an
        outage is the absence of samples either way, so it is ignored.
        """
        del mode
        self.paused = True

    def resume(self) -> None:
        """Resume a paused scrape loop."""
        self.paused = False

    def tick(self, now: float) -> None:
        """One turn of the scrape loop (``sim.every(interval_s, tick)``).

        While :attr:`paused`, ticks pass without scraping (counted in
        :attr:`skipped_scrapes`).
        """
        if self.paused:
            self.skipped_scrapes += 1
        else:
            self.scrape_once(now)
