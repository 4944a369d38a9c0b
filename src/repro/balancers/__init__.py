"""Load-balancing algorithms: L3, the paper's comparators, and the zoo.

Beyond the paper's own comparison set (round-robin, C3, L3 ± PeakEWMA)
the package carries the retrieved-work zoo the tournament harness races:
KnapsackLB's calibrated-curve knapsack solve, the distributed
gradient-descent split, the workload-dependent service-rate solver, and
the classical client-side family (P2C+PeakEWMA, least-outstanding,
greedy EWMA-latency, locality failover). Every algorithm registers in
:mod:`repro.balancers.factory`; ``BALANCER_NAMES`` is the one table.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BALANCER_NAMES",
    "Balancer",
    "BalancerSpec",
    "C3Config",
    "C3Controller",
    "EwmaLatencyBalancer",
    "FailoverBalancer",
    "GradientConfig",
    "GradientDescentBalancer",
    "KnapsackConfig",
    "KnapsackLbController",
    "LeastOutstandingBalancer",
    "LoadCostModel",
    "P2cPeakEwmaBalancer",
    "PeriodicSplitBalancer",
    "RoundRobinBalancer",
    "ServiceRateConfig",
    "ServiceRateController",
    "StaticWeightBalancer",
    "balancer_specs",
    "controller_balancer_names",
    "greedy_allocation",
    "make_balancer",
    "project_to_floored_simplex",
    "register_balancer",
    "solve_rate_shares",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.balancers.base": ("Balancer",),
    "repro.balancers.c3": ("C3Config", "C3Controller"),
    "repro.balancers.estimate": ("LoadCostModel",),
    "repro.balancers.ewma_latency": ("EwmaLatencyBalancer",),
    "repro.balancers.failover": ("FailoverBalancer",),
    "repro.balancers.gradient": (
        "GradientConfig", "GradientDescentBalancer",
        "project_to_floored_simplex"),
    "repro.balancers.knapsack": (
        "KnapsackConfig", "KnapsackLbController", "greedy_allocation"),
    "repro.balancers.least_outstanding": ("LeastOutstandingBalancer",),
    "repro.balancers.p2c": ("P2cPeakEwmaBalancer",),
    "repro.balancers.periodic": ("PeriodicSplitBalancer",),
    "repro.balancers.round_robin": ("RoundRobinBalancer",),
    "repro.balancers.service_rate": (
        "ServiceRateConfig", "ServiceRateController", "solve_rate_shares"),
    "repro.balancers.static_weights": ("StaticWeightBalancer",),
    "repro.balancers.factory": (
        "BALANCER_NAMES", "BalancerSpec", "balancer_specs",
        "controller_balancer_names", "make_balancer", "register_balancer"),
})
