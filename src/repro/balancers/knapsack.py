"""KnapsackLB-style allocation solve (Gandhi & Narayana, arXiv:2404.17783).

KnapsackLB reframes load balancing as an optimisation problem: calibrate
a latency-versus-throughput curve per backend from passive observations,
then solve for the traffic assignment that minimises aggregate latency —
the paper casts it as a knapsack/LP over the calibrated curves. This
adaptation keeps that two-phase structure on this repo's substrate:

* **Calibration** — every reconcile interval the windowed metrics source
  yields each backend's observed RPS and latency; the pair feeds a
  rolling :class:`~repro.balancers.estimate.LoadCostModel` (straight-line
  latency-vs-RPS fit, slope clamped non-negative).
* **Solve** — total observed demand is split into ``allocation_units``
  equal chunks and assigned greedily, each chunk to the backend with the
  lowest *predicted latency at its next chunk*. For convex
  (here: linear, non-negative-slope) curves this greedy marginal-cost
  rule produces the optimal fractional-knapsack allocation — a pure
  python solver, no LP dependency. Unit counts become TrafficSplit
  weights; a backend priced out of every chunk keeps ``min_weight`` so
  probe traffic continues refreshing its curve.

Known failure mode (documented in DESIGN §5g): the model is only as good
as the calibration window — a backend whose latency jumps for reasons
unrelated to load (a WAN path degradation) is modelled as a high *base*
latency only after the window turns over, so reaction is a couple of
reconcile intervals slower than L3's direct EWMA path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.balancers.estimate import LoadCostModel
from repro.core.config import ReconcileConfig
from repro.core.controller import ReconcileController, latency_signal_reader
from repro.errors import ConfigError


@dataclass(frozen=True)
class KnapsackConfig(ReconcileConfig):
    """Tunables of the KnapsackLB adaptation (cadence matches L3's loop)."""

    # Latency signal feeding the curve fit: "mean" is the stabler
    # calibration target; "percentile" optimises the tail directly.
    latency_signal: str = "mean"
    default_latency_s: float = 0.1
    # Granularity of the greedy solve: demand is split into this many
    # equal chunks (more = finer weights, linearly more solver work).
    allocation_units: int = 100
    # Floor weight so starved backends keep a trickle of probe traffic.
    min_weight: int = 1
    # Curve-fit window length, in reconcile observations per backend.
    history_points: int = 24

    def __post_init__(self):
        super().__post_init__()
        if self.default_latency_s <= 0:
            raise ConfigError("default_latency_s must be positive")
        latency_signal_reader(self.latency_signal)
        if self.allocation_units < 1:
            raise ConfigError(
                f"allocation_units must be >= 1: {self.allocation_units}")
        if self.min_weight < 1:
            raise ConfigError(f"min_weight must be >= 1: {self.min_weight}")
        if self.history_points < 2:
            raise ConfigError(
                f"history_points must be >= 2: {self.history_points}")


def greedy_allocation(models: dict[str, LoadCostModel], total_rps: float,
                      units: int) -> dict[str, int]:
    """Assign ``units`` equal demand chunks by lowest marginal latency.

    Returns the unit count per backend. Ties resolve to dict order
    (deterministic under a fixed seed). With ``total_rps == 0`` the
    chunks still get assigned — on the backends' *base* latencies — so a
    cold start produces a sensible latency-ranked split rather than
    all-zero weights.
    """
    chunk = max(total_rps, 0.0) / units
    assigned = {name: 0.0 for name in models}
    counts = {name: 0 for name in models}
    for _ in range(units):
        best = min(
            models,
            key=lambda name: models[name].predict(assigned[name] + chunk))
        assigned[best] += chunk
        counts[best] += 1
    return counts


class KnapsackLbController(ReconcileController):
    """Periodic calibrate-then-solve loop pushing knapsack weights."""

    config_type = KnapsackConfig

    def new_backend(self, name: str, start_time: float) -> LoadCostModel:
        return LoadCostModel(self.config.default_latency_s,
                             max_points=self.config.history_points)

    def solve(self, samples, now: float) -> dict[str, int]:
        """Calibrate each backend's curve, then solve the knapsack."""
        config = self.config
        latency_of = latency_signal_reader(config.latency_signal)
        total_rps = 0.0
        for name, model in self.backends.items():
            sample = samples.get(name)
            if sample is None:
                continue
            latency = latency_of(sample)
            if latency is not None:
                model.observe(sample.rps, latency)
            total_rps += sample.rps
        counts = greedy_allocation(
            self.backends, total_rps, config.allocation_units)
        return {
            name: max(count, config.min_weight)
            for name, count in counts.items()
        }
