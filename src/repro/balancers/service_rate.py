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
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.errors import ConfigError
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ServiceRateConfig:
    """Tunables of the service-rate-aware solver."""

    reconcile_interval_s: float = 5.0
    metrics_window_s: float = 10.0
    percentile: float = 0.99
    # Service-time prior before a backend's first observation.
    default_service_time_s: float = 0.05
    # Fixed-point rounds of the split <-> rate solve.
    solve_iterations: int = 8
    weight_scale: int = 100
    min_weight: int = 1
    history_points: int = 24

    def __post_init__(self):
        for name in ("reconcile_interval_s", "metrics_window_s",
                     "default_service_time_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError(f"percentile must be in (0, 1): {self.percentile}")
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


class ServiceRateController:
    """Periodic estimate-then-solve loop pushing service-rate weights."""

    def __init__(self, backend_names, metrics_source, weight_sink,
                 config: ServiceRateConfig | None = None):
        if not backend_names:
            raise ConfigError("service-rate needs at least one backend")
        self.config = config or ServiceRateConfig()
        self.metrics_source = metrics_source
        self.weight_sink = weight_sink
        self.models = {
            name: LoadCostModel(self.config.default_service_time_s,
                                max_points=self.config.history_points)
            for name in backend_names
        }
        self.last_weights: dict[str, int] = {}
        self.reconcile_count = 0
        self.paused = False

    def pause(self) -> None:
        """Suspend the reconcile loop (fault injection: stalled operator)."""
        self.paused = True

    def resume(self) -> None:
        """Resume a paused reconcile loop."""
        self.paused = False

    def reconcile(self, now: float) -> dict[str, int]:
        """One estimation + fixed-point-solve cycle (pushed to the sink)."""
        config = self.config
        samples = self.metrics_source.collect(
            list(self.models), now, config.metrics_window_s,
            config.percentile)
        total_rps = 0.0
        for name, model in self.models.items():
            sample = samples.get(name)
            if sample is None:
                continue
            if sample.mean_latency_s is not None:
                service_time = (sample.mean_latency_s
                                / (max(sample.inflight, 0.0) + 1.0))
                model.observe(sample.rps, service_time)
            total_rps += sample.rps
        shares = solve_rate_shares(
            self.models, total_rps, config.solve_iterations)
        weights = {
            name: max(int(round(share * config.weight_scale)),
                      config.min_weight)
            for name, share in shares.items()
        }
        self.weight_sink.set_weights(weights, now)
        self.last_weights = weights
        self.reconcile_count += 1
        return weights


class ServiceRateAwareBalancer(PeriodicSplitBalancer):
    """Workload-dependent service-rate solver driving a TrafficSplit."""

    def __init__(self, sim: Simulator, service: str, backend_names,
                 metrics_source, config: ServiceRateConfig | None = None,
                 propagation_delay_s: float = 0.5):
        self.config = config or ServiceRateConfig()
        super().__init__(
            sim, service, backend_names,
            lambda split: ServiceRateController(
                list(backend_names), metrics_source, split,
                config=self.config),
            propagation_delay_s=propagation_delay_s)
