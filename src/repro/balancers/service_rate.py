"""Workload-dependent service-rate solve (Zhang et al., arXiv:2411.17103).

Classical queueing-based balancers assume each server has a fixed
service rate; the retrieved paper's point is that real service rates are
*workload-dependent* — the rate a backend achieves is a function of the
load routed to it — and that a balancer should estimate that function
and solve for the split that respects it. The adaptation here:

* **Estimation** — per backend, the windowed mean response time is
  deflated by queue depth (the same FIFO approximation C3 uses:
  ``service_time ~= latency / (inflight + 1)``) and regressed against
  observed RPS through a rolling
  :class:`~repro.balancers.estimate.LoadCostModel`, giving the
  workload-dependent curve ``s_b(r)``; the service rate is its
  reciprocal ``mu_b(r) = 1 / s_b(r)``.
* **Solve** — the target split routes traffic proportionally to
  *achieved* service rates, which depend on the split itself. The
  circular definition is resolved by fixed-point iteration: seed with
  the uniform split, then repeat ``r_b = total * x_b;
  x_b = mu_b(r_b) / sum mu`` a fixed number of rounds. With
  non-decreasing linear ``s_b`` the map is a contraction in practice and
  a handful of rounds settle to three digits. The solved split becomes
  TrafficSplit weights (floored at ``min_weight`` to keep probes alive).

Known failure mode (DESIGN §5g): the deflation step inherits C3's FIFO
approximation, so WAN transit time is wrongly counted as service time —
a *far* backend looks slower than it is, giving the solver an incidental
(and sometimes helpful) locality bias that is model error, not design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.balancers.estimate import LoadCostModel
from repro.core.config import ReconcileConfig
from repro.core.controller import ReconcileController
from repro.errors import ConfigError


@dataclass(frozen=True)
class ServiceRateConfig(ReconcileConfig):
    """Tunables of the service-rate-aware solver."""

    # Service-time prior before a backend's first observation.
    default_service_time_s: float = 0.05
    # Fixed-point rounds of the split <-> rate solve.
    solve_iterations: int = 8
    weight_scale: int = 100
    min_weight: int = 1
    history_points: int = 24

    def __post_init__(self):
        super().__post_init__()
        if self.default_service_time_s <= 0:
            raise ConfigError("default_service_time_s must be positive")
        if self.solve_iterations < 1:
            raise ConfigError(
                f"solve_iterations must be >= 1: {self.solve_iterations}")
        if self.weight_scale < 1:
            raise ConfigError(f"weight_scale must be >= 1: {self.weight_scale}")
        if self.min_weight < 1:
            raise ConfigError(f"min_weight must be >= 1: {self.min_weight}")
        if self.history_points < 2:
            raise ConfigError(
                f"history_points must be >= 2: {self.history_points}")


def solve_rate_shares(models: dict[str, LoadCostModel], total_rps: float,
                      iterations: int) -> dict[str, float]:
    """Fixed-point split over workload-dependent service rates."""
    names = list(models)
    shares = {name: 1.0 / len(names) for name in names}
    for _ in range(iterations):
        rates = {}
        for name in names:
            service_time = max(
                models[name].predict(total_rps * shares[name]), 1e-6)
            rates[name] = 1.0 / service_time
        total_rate = sum(rates.values())
        shares = {name: rates[name] / total_rate for name in names}
    return shares


class ServiceRateController(ReconcileController):
    """Periodic estimate-then-solve loop pushing service-rate weights."""

    config_type = ServiceRateConfig

    def new_backend(self, name: str, start_time: float) -> LoadCostModel:
        return LoadCostModel(self.config.default_service_time_s,
                             max_points=self.config.history_points)

    def solve(self, samples, now: float) -> dict[str, int]:
        """Estimate each backend's service-time curve, then solve the
        fixed point."""
        config = self.config
        total_rps = 0.0
        for name, model in self.backends.items():
            sample = samples.get(name)
            if sample is None:
                continue
            if sample.mean_latency_s is not None:
                service_time = (sample.mean_latency_s
                                / (max(sample.inflight, 0.0) + 1.0))
                model.observe(sample.rps, service_time)
            total_rps += sample.rps
        shares = solve_rate_shares(
            self.backends, total_rps, config.solve_iterations)
        return {
            name: max(int(round(share * config.weight_scale)),
                      config.min_weight)
            for name, share in shares.items()
        }
