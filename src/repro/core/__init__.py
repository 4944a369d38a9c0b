"""The paper's primary contribution: the L3 load-balancing control loop.

Submodules map one-to-one onto the paper's design section (§3) and
proof-of-concept details (§4):

* :mod:`repro.core.ewma` — EWMA (Eq. 1) and PeakEWMA (Eq. 2) filters.
* :mod:`repro.core.weighting` — the weighting algorithm (Algorithm 1,
  Eq. 3 and Eq. 4).
* :mod:`repro.core.rate_control` — the rate-control algorithm
  (Algorithm 2, Eq. 5).
* :mod:`repro.core.state` — per-backend filtered metric state with the §4
  default values and convergence-to-default behaviour.
* :mod:`repro.core.controller` — the reconcile loop gluing a metrics
  source to a weight sink (the simulated TrafficSplit).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BackendMetricState",
    "BackendSnapshot",
    "ControllerIntrospection",
    "ControllerReplica",
    "CostConfig",
    "Ewma",
    "L3Config",
    "L3Controller",
    "LeaseLock",
    "MetricSample",
    "PeakEwma",
    "WeightingConfig",
    "apply_cost_bias",
    "apply_rate_control",
    "compute_weights",
    "half_life_to_beta",
    "relative_change",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("L3Config",),
    "repro.core.controller": ("L3Controller", "MetricSample"),
    "repro.core.cost": ("CostConfig", "apply_cost_bias"),
    "repro.core.ewma": ("Ewma", "PeakEwma", "half_life_to_beta"),
    "repro.core.introspection": ("ControllerIntrospection",),
    "repro.core.leader": ("ControllerReplica", "LeaseLock"),
    "repro.core.rate_control": ("apply_rate_control", "relative_change"),
    "repro.core.state": ("BackendMetricState",),
    "repro.core.weighting": (
        "BackendSnapshot", "WeightingConfig", "compute_weights"),
})
