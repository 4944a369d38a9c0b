"""Composable fault injection for the simulated mesh (resilience testing).

The paper's headline resilience result (§5.2.3, Figs. 11-12) is that L3
reroutes around a failing cluster within one reconcile interval. This
package makes such failures *first-class*: faults are schedulable
disruptions applied to a live mesh — replicas crash and restart, whole
clusters go dark (fast-failing or blackholing), links partition or
degrade, the scraper misses windows, the controller stalls — instead of
pre-baked success-rate traces.

Quickstart::

    from repro.faults import ClusterOutage, FaultInjector

    injector = FaultInjector(mesh, scraper=scraper,
                             controllers=[balancer.controller])
    injector.schedule(ClusterOutage("cluster-2", at_s=60.0,
                                    duration_s=30.0, mode="blackhole"))

or, through the benchmark coordinator::

    run_scenario_benchmark("scenario-1", "l3", faults=[...], ...)

Blackhole faults need a client-side deadline to be survivable — see
``request_timeout_s`` on :class:`~repro.bench.coordinator.ScenarioBenchConfig`
and :class:`~repro.mesh.proxy.ClientProxy`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultSpecError",
    "ReplicaCrash",
    "ReplicaRestart",
    "ClusterOutage",
    "LinkPartition",
    "LinkDegradation",
    "ScrapeOutage",
    "ControllerPause",
    "ControllerCrash",
    "FAULT_KINDS",
    "fault_from_dict",
    "fault_to_dict",
    "parse_fault_entry",
    "parse_fault_spec",
    "validate_fault_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("FaultSpecError",),
    "repro.faults.base": ("Fault", "FaultInjector"),
    "repro.faults.faults": (
        "ClusterOutage", "ControllerCrash", "ControllerPause",
        "LinkDegradation", "LinkPartition", "ReplicaCrash", "ReplicaRestart",
        "ScrapeOutage"),
    "repro.faults.spec": (
        "FAULT_KINDS", "fault_from_dict", "fault_to_dict",
        "parse_fault_entry", "parse_fault_spec", "validate_fault_spec"),
})
