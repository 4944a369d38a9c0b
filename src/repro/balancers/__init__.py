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
    "C3Balancer",
    "C3Config",
    "EwmaLatencyBalancer",
    "FailoverBalancer",
    "GradientConfig",
    "GradientDescentBalancer",
    "KnapsackConfig",
    "KnapsackLbBalancer",
    "L3Balancer",
    "LeastOutstandingBalancer",
    "LoadCostModel",
    "P2cPeakEwmaBalancer",
    "PeriodicSplitBalancer",
    "RoundRobinBalancer",
    "ServiceRateAwareBalancer",
    "ServiceRateConfig",
    "StaticWeightBalancer",
    "balancer_specs",
    "controller_balancer_names",
    "greedy_allocation",
    "make_balancer",
    "project_to_floored_simplex",
    "register_balancer",
    "solve_rate_shares",
    "validate_backend_pool",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.balancers.base": ("Balancer", "validate_backend_pool"),
    "repro.balancers.c3": ("C3Balancer", "C3Config"),
    "repro.balancers.estimate": ("LoadCostModel",),
    "repro.balancers.ewma_latency": ("EwmaLatencyBalancer",),
    "repro.balancers.failover": ("FailoverBalancer",),
    "repro.balancers.gradient": (
        "GradientConfig", "GradientDescentBalancer",
        "project_to_floored_simplex"),
    "repro.balancers.knapsack": (
        "KnapsackConfig", "KnapsackLbBalancer", "greedy_allocation"),
    "repro.balancers.l3": ("L3Balancer",),
    "repro.balancers.least_outstanding": ("LeastOutstandingBalancer",),
    "repro.balancers.p2c": ("P2cPeakEwmaBalancer",),
    "repro.balancers.periodic": ("PeriodicSplitBalancer",),
    "repro.balancers.round_robin": ("RoundRobinBalancer",),
    "repro.balancers.service_rate": (
        "ServiceRateAwareBalancer", "ServiceRateConfig", "solve_rate_shares"),
    "repro.balancers.static_weights": ("StaticWeightBalancer",),
    "repro.balancers.factory": (
        "BALANCER_NAMES", "BalancerSpec", "balancer_specs",
        "controller_balancer_names", "make_balancer", "register_balancer"),
})
