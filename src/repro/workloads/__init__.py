"""Workloads: time-varying profiles, TIER-like scenarios, load generators,
and the DeathStarBench hotel-reservation call graph."""

from repro._lazy import lazy_exports

__all__ = [
    "BackendProfile",
    "CallGraphApp",
    "EndpointSpec",
    "OpenLoopLoadGenerator",
    "PiecewiseSeries",
    "SCENARIO_NAMES",
    "Scenario",
    "ServiceSpec",
    "Span",
    "build_hotel_application",
    "build_scenario",
    "build_social_application",
    "constant_series",
    "load_scenario",
    "save_scenario",
    "scenario_from_spans",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.profiles": (
        "BackendProfile", "PiecewiseSeries", "constant_series"),
    "repro.workloads.scenarios": (
        "SCENARIO_NAMES", "Scenario", "build_scenario"),
    "repro.workloads.loadgen": ("OpenLoopLoadGenerator",),
    "repro.workloads.hotel": ("build_hotel_application",),
    "repro.workloads.social": ("build_social_application",),
    "repro.workloads.callgraph": (
        "CallGraphApp", "EndpointSpec", "ServiceSpec"),
    "repro.workloads.spans": ("Span", "scenario_from_spans"),
    "repro.workloads.traceio": ("load_scenario", "save_scenario"),
})
