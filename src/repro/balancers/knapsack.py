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
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.errors import ConfigError
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class KnapsackConfig:
    """Tunables of the KnapsackLB adaptation (cadence matches L3's loop)."""

    reconcile_interval_s: float = 5.0
    metrics_window_s: float = 10.0
    percentile: float = 0.99
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
        for name in ("reconcile_interval_s", "metrics_window_s",
                     "default_latency_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError(f"percentile must be in (0, 1): {self.percentile}")
        if self.latency_signal not in ("mean", "percentile"):
            raise ConfigError(
                f"latency_signal must be 'mean' or 'percentile': "
                f"{self.latency_signal!r}")
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


class KnapsackLbController:
    """Periodic calibrate-then-solve loop pushing knapsack weights."""

    def __init__(self, backend_names, metrics_source, weight_sink,
                 config: KnapsackConfig | None = None):
        if not backend_names:
            raise ConfigError("knapsack needs at least one backend")
        self.config = config or KnapsackConfig()
        self.metrics_source = metrics_source
        self.weight_sink = weight_sink
        self.models = {
            name: LoadCostModel(self.config.default_latency_s,
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
        """One calibration + greedy-solve cycle (pushed to the sink)."""
        config = self.config
        samples = self.metrics_source.collect(
            list(self.models), now, config.metrics_window_s,
            config.percentile)
        total_rps = 0.0
        for name, model in self.models.items():
            sample = samples.get(name)
            if sample is None:
                continue
            if config.latency_signal == "mean":
                latency = sample.mean_latency_s
            else:
                latency = sample.latency_s
            if latency is not None:
                model.observe(sample.rps, latency)
            total_rps += sample.rps
        counts = greedy_allocation(
            self.models, total_rps, config.allocation_units)
        weights = {
            name: max(count, config.min_weight)
            for name, count in counts.items()
        }
        self.weight_sink.set_weights(weights, now)
        self.last_weights = weights
        self.reconcile_count += 1
        return weights


class KnapsackLbBalancer(PeriodicSplitBalancer):
    """KnapsackLB adaptation driving a TrafficSplit."""

    def __init__(self, sim: Simulator, service: str, backend_names,
                 metrics_source, config: KnapsackConfig | None = None,
                 propagation_delay_s: float = 0.5):
        self.config = config or KnapsackConfig()
        super().__init__(
            sim, service, backend_names,
            lambda split: KnapsackLbController(
                list(backend_names), metrics_source, split,
                config=self.config),
            propagation_delay_s=propagation_delay_s)
