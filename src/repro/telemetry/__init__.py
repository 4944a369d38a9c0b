"""Prometheus-like telemetry pipeline (paper §4, "Metric collection").

The mesh's sidecar proxies expose monotonically increasing counters, an
in-flight gauge and a bucketed latency histogram per backend
(:mod:`repro.telemetry.metrics`, :mod:`repro.telemetry.histogram`). A
scraper process snapshots them on a fixed interval (default 5 s,
:mod:`repro.telemetry.scraper`) into time series; the controller's queries
(:mod:`repro.telemetry.query`) compute windowed rates and percentiles from
those samples — reproducing the data-freshness characteristics the paper
discusses (per-second averages extrapolated from a 10 s window holding at
least two scrape samples).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BackendTelemetry",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS_S",
    "Gauge",
    "LatencyHistogram",
    "PromMetricsSource",
    "SampleSeries",
    "Scraper",
    "TimeSeriesStore",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.histogram": (
        "DEFAULT_BUCKET_BOUNDS_S", "LatencyHistogram"),
    "repro.telemetry.metrics": ("BackendTelemetry", "Counter", "Gauge"),
    "repro.telemetry.query": ("PromMetricsSource",),
    "repro.telemetry.scraper": ("Scraper",),
    "repro.telemetry.timeseries": ("SampleSeries", "TimeSeriesStore"),
})
