"""Exact statistics over captured benchmark records (reporting path)."""

from repro._lazy import lazy_exports

__all__ = [
    "BackendCriticalPath",
    "critical_path",
    "exact_percentile",
    "latency_timeline",
    "percentile_summary",
    "relative_decrease",
    "render_critical_path",
    "rps_timeline",
    "success_rate",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.critical_path": (
        "BackendCriticalPath", "critical_path", "render_critical_path"),
    "repro.analysis.percentiles": ("exact_percentile", "percentile_summary"),
    "repro.analysis.stats": (
        "latency_timeline", "relative_decrease", "rps_timeline",
        "success_rate"),
})
