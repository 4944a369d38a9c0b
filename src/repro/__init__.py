"""repro — reproduction of "L3: Latency-aware Load Balancing in Multi-Cluster
Service Mesh" (Middleware '24).

The package implements the L3 controller (EWMA/PeakEWMA filtering, the
weighting algorithm and the rate-control algorithm from the paper) together
with every substrate the paper's evaluation depends on: a discrete-event
simulator (:mod:`repro.sim`), a multi-cluster service-mesh data plane
(:mod:`repro.mesh`), a Prometheus-like telemetry pipeline
(:mod:`repro.telemetry`), the comparison balancers (:mod:`repro.balancers`),
synthetic equivalents of the paper's trace scenarios plus the
DeathStarBench hotel-reservation call graph (:mod:`repro.workloads`), and
the benchmark harness regenerating every figure (:mod:`repro.bench`), and
a live localhost testbed that runs the same controller stack against a
real networked mesh over asyncio sockets (:mod:`repro.live`), and
telemetry-driven per-cluster autoscaling co-simulated with the weight
controllers (:mod:`repro.autoscale`).

Quickstart::

    from repro import run_scenario_benchmark

    result = run_scenario_benchmark(scenario="scenario-1", algorithm="l3",
                                    duration_s=120.0, seed=7)
    print(result.p99_ms, result.success_rate)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AutoscalePolicy",
    "BALANCER_NAMES",
    "BackendSnapshot",
    "BenchmarkResult",
    "ClusterOutage",
    "ControllerIntrospection",
    "ControllerPause",
    "ControllerReplica",
    "CostConfig",
    "DecisionAuditLog",
    "Ewma",
    "Fault",
    "FaultInjector",
    "L3Config",
    "L3Controller",
    "LeaseLock",
    "LinkDegradation",
    "LinkPartition",
    "LiveConfig",
    "LiveHarness",
    "MeshTracer",
    "MetricSample",
    "OutlierEjectionConfig",
    "PeakEwma",
    "ReplicaCrash",
    "ReplicaRestart",
    "SCENARIO_NAMES",
    "ScenarioBenchConfig",
    "ScrapeOutage",
    "TracingConfig",
    "WeightingConfig",
    "apply_rate_control",
    "build_scenario",
    "compute_weights",
    "export_trace",
    "half_life_to_beta",
    "load_scenario",
    "make_balancer",
    "parse_autoscale_spec",
    "parse_fault_spec",
    "relative_change",
    "run_callgraph_benchmark",
    "run_hotel_benchmark",
    "run_live",
    "run_scenario_benchmark",
    "run_social_benchmark",
    "save_scenario",
    "scenario_from_otlp",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.autoscale.policy": ("AutoscalePolicy",),
    "repro.autoscale.spec": ("parse_autoscale_spec",),
    "repro.bench.coordinator": (
        "BenchmarkResult", "ScenarioBenchConfig", "run_callgraph_benchmark",
        "run_hotel_benchmark", "run_scenario_benchmark",
        "run_social_benchmark"),
    "repro.core.config": ("L3Config",),
    "repro.core.controller": ("L3Controller", "MetricSample"),
    "repro.core.cost": ("CostConfig",),
    "repro.core.ewma": ("Ewma", "PeakEwma", "half_life_to_beta"),
    "repro.core.rate_control": ("apply_rate_control", "relative_change"),
    "repro.core.weighting": (
        "BackendSnapshot", "WeightingConfig", "compute_weights"),
    "repro.core.introspection": ("ControllerIntrospection",),
    "repro.core.leader": ("ControllerReplica", "LeaseLock"),
    "repro.balancers.factory": ("BALANCER_NAMES", "make_balancer"),
    "repro.faults.base": ("Fault", "FaultInjector"),
    "repro.faults.faults": (
        "ClusterOutage", "ControllerPause", "LinkDegradation",
        "LinkPartition", "ReplicaCrash", "ReplicaRestart", "ScrapeOutage"),
    "repro.faults.spec": ("parse_fault_spec",),
    "repro.live.harness": ("LiveConfig", "run_live"),
    "repro.live.runtime": ("LiveHarness",),
    "repro.mesh.ejection": ("OutlierEjectionConfig",),
    "repro.tracing.audit": ("DecisionAuditLog",),
    "repro.tracing.recorder": ("MeshTracer", "TracingConfig"),
    "repro.tracing.export": ("export_trace", "scenario_from_otlp"),
    "repro.workloads.scenarios": ("SCENARIO_NAMES", "build_scenario"),
    "repro.workloads.traceio": ("load_scenario", "save_scenario"),
})
