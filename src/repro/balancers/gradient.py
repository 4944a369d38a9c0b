"""Distributed gradient-descent split (Balseiro/Mirrokni/Wydrowski,
arXiv:2504.10693).

The load-balancing scheme behind Google's PReq: every *client* owns a
probability split over the backends and improves it locally by gradient
steps on its own observed latency — no controller, no metrics pipeline,
no coordination between clients; the paper proves the decentralised
dynamics converge to the network-latency-aware optimum. The adaptation
here keeps the decentralised shape on this repo's substrate:

* between updates the balancer samples its current split per request and
  accumulates each backend's observed request cost (latency, plus a
  fixed penalty per failure so outages register as expensive);
* every ``update_interval_s`` the mean cost per backend becomes the
  stochastic gradient estimate and the split takes one step of
  multiplicative weights / mirror descent on the simplex::

      x_b  <-  x_b * (1 - eta * (g_b - g_mean) / g_mean)

  (``g_mean`` is the split-weighted mean cost, so the step is sum-zero:
  below-average backends grow, above-average shrink, scale-free in the
  latency unit);
* the result is projected back onto the simplex with an ``min_share``
  exploration floor — the floor traffic is what keeps cost estimates of
  down-weighted backends fresh (without it a backend priced out once
  could never be observed recovering).

Known failure mode (DESIGN §5g): one client's gradient is noisy at low
per-backend sample counts, so the step size trades convergence speed
against steady-state jitter; and convergence takes several update
periods where L3 re-weights in one reconcile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.balancers.base import Balancer
from repro.core.controller import validate_backend_pool
from repro.errors import ConfigError
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class GradientConfig:
    """Tunables of the distributed gradient-descent balancer."""

    update_interval_s: float = 5.0
    # Step size eta of the multiplicative-weights update; the gradient
    # is normalised by the current mean cost, so eta is unitless.
    step_size: float = 0.3
    # Exploration floor: no backend's share drops below this.
    min_share: float = 0.02
    # Cost prior before a backend's first observation.
    default_cost_s: float = 0.1
    # Added to a failed request's latency so failures repel traffic.
    failure_penalty_s: float = 1.0

    def __post_init__(self):
        for name in ("update_interval_s", "default_cost_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.step_size <= 1.0:
            raise ConfigError(
                f"step_size must be in (0, 1]: {self.step_size}")
        if not 0.0 <= self.min_share < 1.0:
            raise ConfigError(
                f"min_share must be in [0, 1): {self.min_share}")
        if self.failure_penalty_s < 0:
            raise ConfigError(
                f"failure_penalty_s must be >= 0: {self.failure_penalty_s}")


def project_to_floored_simplex(shares: dict[str, float],
                               floor: float) -> dict[str, float]:
    """Project onto ``{x : x_b >= floor, sum x = 1}`` (mass-preserving).

    Negative entries are clipped, the above-floor mass is rescaled to
    fill exactly the budget the floors leave; an all-degenerate input
    falls back to the uniform split.
    """
    names = list(shares)
    budget = 1.0 - floor * len(names)
    if budget < 0:
        raise ConfigError(
            f"floor {floor} infeasible for {len(names)} backends")
    clipped = {name: max(value, 0.0) for name, value in shares.items()}
    total = sum(clipped.values())
    if total <= 0:
        return {name: 1.0 / len(names) for name in names}
    scaled = {name: value / total for name, value in clipped.items()}
    excess = {name: max(value - floor, 0.0) for name, value in scaled.items()}
    excess_total = sum(excess.values())
    if excess_total <= 0:
        return {name: 1.0 / len(names) for name in names}
    return {
        name: floor + excess[name] * budget / excess_total
        for name in names
    }


class GradientDescentBalancer(Balancer):
    """Per-client split updated by projected gradient steps on latency."""

    def __init__(self, backend_names, config: GradientConfig | None = None):
        self._names = validate_backend_pool(backend_names, "gradient")
        self.config = config or GradientConfig()
        if self.config.min_share * len(self._names) >= 1.0:
            raise ConfigError(
                f"min_share {self.config.min_share} infeasible for "
                f"{len(self._names)} backends")
        uniform = 1.0 / len(self._names)
        self.shares = {name: uniform for name in self._names}
        self._cost_estimate = {
            name: self.config.default_cost_s for name in self._names}
        self._cost_sum = {name: 0.0 for name in self._names}
        self._cost_count = {name: 0 for name in self._names}
        self.update_count = 0
        self._loop = None

    def pick(self, rng, now: float) -> str:
        if len(self._names) == 1:
            return self._names[0]
        threshold = rng.random()
        running = 0.0
        for name in self._names:
            running += self.shares[name]
            if threshold < running:
                return name
        return self._names[-1]

    def on_response(self, backend: str, now: float, latency_s: float,
                    success: bool) -> None:
        cost = latency_s
        if not success:
            cost += self.config.failure_penalty_s
        self._cost_sum[backend] += cost
        self._cost_count[backend] += 1

    def update(self, now: float) -> dict[str, float]:
        """One gradient step from the costs accumulated since the last."""
        for name in self._names:
            if self._cost_count[name] > 0:
                self._cost_estimate[name] = (
                    self._cost_sum[name] / self._cost_count[name])
            # No samples: the previous estimate persists (the floor
            # traffic makes prolonged starvation unlikely).
            self._cost_sum[name] = 0.0
            self._cost_count[name] = 0
        mean_cost = sum(self.shares[name] * self._cost_estimate[name]
                        for name in self._names)
        if mean_cost > 0:
            eta = self.config.step_size
            stepped = {
                name: self.shares[name] * max(
                    1.0 - eta * (self._cost_estimate[name] - mean_cost)
                    / mean_cost, 0.0)
                for name in self._names
            }
            self.shares = project_to_floored_simplex(
                stepped, self.config.min_share)
        self.update_count += 1
        return dict(self.shares)

    def start(self, sim: Simulator) -> None:
        if self._loop is None:
            self._loop = sim.every(
                self.config.update_interval_s, self.update)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.cancel()
            self._loop = None
