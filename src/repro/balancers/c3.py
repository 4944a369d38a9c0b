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

from repro.core.config import ReconcileConfig
from repro.core.controller import ReconcileController, latency_signal_reader
from repro.core.ewma import Ewma, half_life_to_beta
from repro.errors import ConfigError

_MIN_SCORE = 1e-6


@dataclass(frozen=True)
class C3Config(ReconcileConfig):
    """Tunables of the C3 adaptation (defaults match the L3 loop cadence)."""

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
        super().__post_init__()
        for name in ("latency_half_life_s", "queue_half_life_s",
                     "default_latency_s", "weight_scale", "queue_divisor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        latency_signal_reader(self.latency_signal)
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


class C3Controller(ReconcileController):
    """Periodic reconcile loop computing C3 weights from windowed metrics."""

    config_type = C3Config

    def new_backend(self, name: str, start_time: float) -> _C3BackendState:
        return _C3BackendState(self.config, start_time)

    def solve(self, samples, now: float) -> dict[str, int]:
        """Filter the samples, then weigh by inverse cubic score."""
        config = self.config
        latency_of = latency_signal_reader(config.latency_signal)
        # Server-reported queue sizes; 0 when the source cannot provide them.
        server_queue = getattr(self.metrics_source, "server_queue", None)
        weights: dict[str, int] = {}
        for name, state in self.backends.items():
            sample = samples.get(name)
            if sample is not None:
                latency = latency_of(sample)
                if latency is not None:
                    state.latency.observe(latency, now)
                # C3 cubes the server-reported queue size (NSDI '15) — it
                # does not normalise by throughput (that normalisation is
                # one of L3's §3.1 design points).
                if config.queue_signal == "inflight":
                    queue = sample.inflight
                elif server_queue is None:
                    queue = 0.0
                else:
                    queue = server_queue(name, now, config.metrics_window_s)
                state.queue.observe(queue / config.queue_divisor, now)
            score = c3_score(state.latency.value, state.queue.value)
            raw = config.weight_scale / score
            weights[name] = max(int(round(raw)), int(config.min_weight))
        return weights
