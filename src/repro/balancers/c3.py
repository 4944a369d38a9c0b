"""Adaptation of C3 (Suresh et al., NSDI '15) to the service-mesh setting.

C3 ranks replicas of a data store with a cubic queue-aware scoring
function and selects per request. The paper adapts it for comparison
(§5.1) with three deliberate changes, which we reproduce:

* decisions operate on the **aggregated** traffic distribution (a
  TrafficSplit updated from windowed metrics), not per request;
* **no success-rate optimisation** — C3 targets data stores where request
  failure is not the dominant concern;
* **no backpressure/rate-limiting backlog queue** — microservices in a
  mesh lack the capacity self-awareness C3's rate control assumes.

The replica score keeps C3's structure: for backend ``b`` with filtered
response time ``R_b`` and filtered queue estimate ``q_b``::

    psi_b = R_b - T_b + (1 + q_b)^3 * T_b

where ``T_b = R_b / (q_b + 1)`` approximates the per-request service time
from aggregated metrics (FIFO intuition: response time is roughly
(queue+1) × service time). Weights are proportional to ``1 / psi_b``. The
cubic term is what lets C3 back off sharply from queue build-up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.ewma import Ewma, half_life_to_beta
from repro.errors import ConfigError
from repro.sim.engine import Simulator

_MIN_SCORE = 1e-6


@dataclass(frozen=True)
class C3Config:
    """Tunables of the C3 adaptation (defaults match the L3 loop cadence)."""

    reconcile_interval_s: float = 5.0
    metrics_window_s: float = 10.0
    percentile: float = 0.99
    latency_half_life_s: float = 5.0
    queue_half_life_s: float = 5.0
    default_latency_s: float = 5.0
    weight_scale: float = 1000.0
    min_weight: float = 1.0
    # Divisor applied to the queue signal before cubing (exposed for the
    # ablation benches; 1.0 = the raw server-reported queue size).
    queue_divisor: float = 1.0
    # Which latency signal R-bar filters: the original C3 EWMAs raw
    # response times, i.e. the windowed *mean* here; tail-percentile
    # weighting is L3's contribution, not C3's.
    latency_signal: str = "mean"
    # Which queue signal q-bar filters: "server" = the server-reported
    # queue occupancy (the original C3's piggybacked feedback channel);
    # "inflight" = the client proxy's in-flight count (includes WAN
    # transit, so it doubles as a latency proxy — NOT what C3 measures,
    # kept for the ablation benches).
    queue_signal: str = "server"

    def __post_init__(self):
        for name in ("reconcile_interval_s", "metrics_window_s",
                     "latency_half_life_s", "queue_half_life_s",
                     "default_latency_s", "weight_scale", "queue_divisor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError(f"percentile must be in (0, 1): {self.percentile}")
        if self.latency_signal not in ("mean", "percentile"):
            raise ConfigError(
                f"latency_signal must be 'mean' or 'percentile': "
                f"{self.latency_signal!r}")
        if self.queue_signal not in ("server", "inflight"):
            raise ConfigError(
                f"queue_signal must be 'server' or 'inflight': "
                f"{self.queue_signal!r}")


def c3_score(latency_s: float, queue: float) -> float:
    """The cubic replica score; lower is better."""
    latency_s = max(latency_s, _MIN_SCORE)
    queue = max(queue, 0.0)
    service_time = latency_s / (queue + 1.0)
    q_hat = 1.0 + queue
    return max(latency_s - service_time + q_hat ** 3 * service_time,
               _MIN_SCORE)


class _C3BackendState:
    def __init__(self, config: C3Config, now: float):
        self.latency = Ewma(config.default_latency_s,
                            half_life_to_beta(config.latency_half_life_s), now)
        self.queue = Ewma(0.0, half_life_to_beta(config.queue_half_life_s), now)


class C3Controller:
    """Periodic reconcile loop computing C3 weights from windowed metrics."""

    def __init__(self, backend_names, metrics_source, weight_sink,
                 config: C3Config | None = None, start_time: float = 0.0):
        if not backend_names:
            raise ConfigError("C3 needs at least one backend")
        self.config = config or C3Config()
        self.metrics_source = metrics_source
        self.weight_sink = weight_sink
        self.backends = {
            name: _C3BackendState(self.config, start_time)
            for name in backend_names
        }
        self.last_weights: dict[str, int] = {}
        self.reconcile_count = 0
        # Pause support (fault injection), mirroring L3Controller.
        self.paused = False

    def pause(self) -> None:
        """Suspend the reconcile loop (fault injection: stalled operator)."""
        self.paused = True

    def resume(self) -> None:
        """Resume a paused reconcile loop."""
        self.paused = False

    def reconcile(self, now: float) -> dict[str, int]:
        """One metrics → cubic scores → weights cycle (pushed to the sink)."""
        samples = self.metrics_source.collect(
            list(self.backends), now, self.config.metrics_window_s,
            self.config.percentile)
        weights: dict[str, int] = {}
        for name, state in self.backends.items():
            sample = samples.get(name)
            if sample is not None:
                if self.config.latency_signal == "mean":
                    latency = sample.mean_latency_s
                else:
                    latency = sample.latency_s
                if latency is not None:
                    state.latency.observe(latency, now)
                # C3 cubes the server-reported queue size (NSDI '15) — it
                # does not normalise by throughput (that normalisation is
                # one of L3's §3.1 design points).
                if self.config.queue_signal == "server":
                    queue = self._server_queue(name, now)
                else:
                    queue = sample.inflight
                state.queue.observe(queue / self.config.queue_divisor, now)
            score = c3_score(state.latency.value, state.queue.value)
            raw = self.config.weight_scale / score
            weights[name] = max(int(round(raw)), int(self.config.min_weight))
        self.weight_sink.set_weights(weights, now)
        self.last_weights = weights
        self.reconcile_count += 1
        return weights

    def _server_queue(self, name: str, now: float) -> float:
        """Server-reported queue size; 0 when the source cannot provide it."""
        reader = getattr(self.metrics_source, "server_queue", None)
        if reader is None:
            return 0.0
        return reader(name, now, self.config.metrics_window_s)


class C3Balancer(PeriodicSplitBalancer):
    """C3 adaptation driving a TrafficSplit — the paper's comparator."""

    def __init__(self, sim: Simulator, service: str, backend_names,
                 metrics_source, config: C3Config | None = None,
                 propagation_delay_s: float = 0.5):
        self.config = config or C3Config()
        super().__init__(
            sim, service, backend_names,
            lambda split: C3Controller(
                list(backend_names), metrics_source, split,
                config=self.config, start_time=sim.now),
            propagation_delay_s=propagation_delay_s)
