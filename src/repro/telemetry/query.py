"""Windowed queries over scraped series — the controller's metrics source.

Implements the :class:`repro.core.controller.MetricsSource` protocol with
PromQL-equivalent semantics: counter rates from window edge samples,
percentiles from histogram-bucket deltas, gauges from the latest sample.
A backend's seven proxy metrics live in one row series
(:class:`~repro.telemetry.names.ProxySample`), so a query is one window
look-up per backend and every figure derives from the two edge rows.
A backend without traffic in the window yields ``None`` (the paper: L3
"cannot retrieve metrics … after at least 10 seconds without any traffic"),
which triggers the controller's decay-toward-default path.
"""

from __future__ import annotations

import math

from repro.core.controller import MetricSample
from repro.errors import TelemetryError
from repro.telemetry import names as metric_names
from repro.telemetry.histogram import DEFAULT_BUCKET_BOUNDS_S, quantile_from_delta
from repro.telemetry.timeseries import SampleSeries, TimeSeriesStore


class PromMetricsSource:
    """Aggregated windowed metrics over a :class:`TimeSeriesStore`."""

    def __init__(self, store: TimeSeriesStore,
                 bucket_bounds=DEFAULT_BUCKET_BOUNDS_S,
                 scope: str | None = None):
        """Args:
            store: the scraped series.
            bucket_bounds: histogram ladder used by the scraped proxies.
            scope: when set, backend series are looked up under
                ``"{scope}|{backend}"`` — the per-source-cluster vantage
                point a cluster-local L3 instance queries.
        """
        self.store = store
        self.bucket_bounds = tuple(bucket_bounds)
        self.scope = scope
        # Series-handle memos: the controller queries the same backends
        # every reconcile, so names are built and the store is searched
        # once per backend, not once per query.
        self._proxy_handles: dict[str, SampleSeries] = {}
        self._server_handles: dict[tuple[str, str], SampleSeries] = {}

    def _proxy_series(self, name: str) -> SampleSeries:
        """The row series holding this vantage point's view of ``name``."""
        series = self._proxy_handles.get(name)
        if series is None:
            series = self._proxy_handles[name] = self.store.series(
                metric_names.scoped_series_name(self.scope, name)
                if self.scope else name, metric_names.PROXY_SAMPLE)
        return series

    def collect(self, backend_names, now: float, window_s: float,
                percentile: float) -> dict:
        """One :class:`MetricSample` (or None) per backend over the window.

        A series unchanged since before the window holds one row object
        throughout (zero deltas): "no data" without a window look-up.
        """
        start = now - window_s
        samples = {}
        for name in backend_names:
            series = self._proxy_series(name)
            samples[name] = (
                None if series.changed_at < start
                else self._collect_backend(series, now, start, percentile))
        return samples

    def _collect_backend(self, series: SampleSeries, now: float,
                         start: float, percentile: float):
        edges = series.first_last_in_window(start, now)
        if edges is None:
            return None
        (t0, first), (t1, last) = edges
        elapsed = t1 - t0
        delta_requests = last.requests_total - first.requests_total
        # No traffic, or a counter that went backwards (reset): no data.
        # Checked first: at fleet width most backends idle in any window.
        if elapsed <= 0 or delta_requests <= 0:
            return None
        delta_failures = last.failures_total - first.failures_total
        delta_sum = last.success_latency_sum - first.success_latency_sum
        delta_count = last.success_latency_count - first.success_latency_count
        delta_successes = (last.success_latency_buckets[-1]
                           - first.success_latency_buckets[-1])
        # Hostile input (live rows are parsed from an HTTP page). A
        # partial reset — another monotone counter going backwards alone
        # — would read as success rate > 1, clamped to "never fails";
        # the parser also accepts NaN and Inf, and one non-finite term
        # makes the sum non-finite. Either way the backend reads as "no
        # data" instead of poisoning the EWMAs.
        if (min(delta_failures, delta_sum, delta_count, delta_successes) < 0
                or not math.isfinite(
                    delta_requests + delta_failures + delta_sum
                    + delta_count + delta_successes + last.inflight)):
            return None

        try:
            latency_s = self._window_quantile(
                first.success_latency_buckets, last.success_latency_buckets,
                percentile)
        except TelemetryError:  # a bucket went backwards, +Inf did not
            return None
        success_rate = 1.0 - delta_failures / delta_requests
        return MetricSample(
            latency_s=latency_s,
            success_rate=min(max(success_rate, 0.0), 1.0),
            rps=delta_requests / elapsed,
            inflight=max(last.inflight, 0.0),
            mean_latency_s=delta_sum / delta_count if delta_count > 0
            else None)

    def _window_quantile(self, buckets0, buckets1, percentile: float):
        """Percentile of the observations between two cumulative-bucket
        snapshots; None when nothing was observed between them."""
        if not buckets1[-1] - buckets0[-1] > 0:
            return None
        return quantile_from_delta(
            self.bucket_bounds, buckets0, buckets1, percentile)

    def server_gauge(self, name: str, metric: str, now: float,
                     window_s: float) -> float | None:
        """Latest server-side gauge of a backend, or None without a sample.

        Server-reported metrics (queue occupancy, replica count) are
        properties of the backend itself, so their series are shared by
        all vantage points (never scope-prefixed). ``None`` — as opposed
        to the zero :meth:`server_queue` substitutes — lets a consumer
        that must distinguish "no data yet" from "idle" (the autoscaler's
        hold-state path) do so.
        """
        series = self._server_handles.get((name, metric))
        if series is None:
            series = self._server_handles[name, metric] = self.store.series(
                metric_names.server_series_name(name), metric)
        sample = series.latest_in_window(now - window_s, now)
        return max(sample[1], 0.0) if sample else None

    def server_queue(self, name: str, now: float, window_s: float) -> float:
        """Latest server-side queue occupancy of a backend (unscoped).

        Server-reported queue size is the feedback channel the original C3
        relies on; a backend without a sample in the window reads as 0.
        """
        value = self.server_gauge(
            name, metric_names.SERVER_QUEUE, now, window_s)
        return 0.0 if value is None else value

    def failure_latency_quantile(self, name: str, now: float,
                                 window_s: float, percentile: float):
        """Windowed percentile of *failed*-request latency (extension).

        Used by the dynamic-penalty-factor extension (paper §7 future
        work): continuous feedback about the response time of unsuccessful
        requests. Returns None without failure data in the window, and
        for buckets that went backwards (as :meth:`collect` does).
        """
        edges = self._proxy_series(name).first_last_in_window(
            now - window_s, now)
        if edges is None:
            return None
        try:
            return self._window_quantile(
                edges[0][1].failure_latency_buckets,
                edges[1][1].failure_latency_buckets, percentile)
        except TelemetryError:
            return None
