"""The benchmark harness: coordinator, per-figure experiments, reporting."""

from repro._lazy import lazy_exports

__all__ = [
    "BenchmarkResult",
    "Cell",
    "CellFailed",
    "CellOutcome",
    "ComparisonTable",
    "ScenarioBenchConfig",
    "format_table",
    "run_cells",
    "run_hotel_benchmark",
    "run_scenario_benchmark",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.coordinator": (
        "BenchmarkResult", "ScenarioBenchConfig", "run_hotel_benchmark",
        "run_scenario_benchmark"),
    "repro.bench.parallel": ("Cell", "CellFailed", "CellOutcome", "run_cells"),
    "repro.bench.results": ("ComparisonTable", "format_table"),
})
