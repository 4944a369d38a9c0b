"""Plain EWMA-latency greedy pick — the filter without the P2C sampling.

The simplest latency-aware client-side policy: keep a per-backend EWMA of
observed response times and send each request to the current minimum,
with a small epsilon of uniform exploration. It isolates what the EWMA
filter alone buys (versus P2C's two-sample cost comparison and versus
the controller-based weight solvers): greedy argmin herds onto one
backend, and the backends it starves keep stale estimates that only the
exploration traffic refreshes — the classic explore/exploit failure mode
this balancer exists to demonstrate in the tournament.
"""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.core.controller import validate_backend_pool
from repro.core.ewma import Ewma, half_life_to_beta


class EwmaLatencyBalancer(Balancer):
    """Greedy lowest-EWMA-latency pick with epsilon exploration."""

    def __init__(self, backend_names, default_latency_s: float = 1.0,
                 half_life_s: float = 5.0, explore_prob: float = 0.10,
                 start_time: float = 0.0):
        """Args:
            backend_names: the pool.
            default_latency_s: optimistic prior before any observation
                (matches P2C's prior so cold-start behavior is comparable).
            half_life_s: EWMA half-life of the latency filter.
            explore_prob: fraction of picks routed uniformly at random —
                the only thing keeping starved backends' estimates alive.
            start_time: simulation time at construction.
        """
        self._names = validate_backend_pool(backend_names, "ewma")
        beta = half_life_to_beta(half_life_s)
        self.explore_prob = explore_prob
        self._latency = {
            name: Ewma(default_latency_s, beta, start_time)
            for name in self._names
        }

    def pick(self, rng, now: float) -> str:
        if len(self._names) == 1:
            return self._names[0]
        if rng.random() < self.explore_prob:
            return self._names[rng.randrange(len(self._names))]
        # min() is stable: equal estimates resolve to pool order, which
        # keeps runs deterministic under a fixed seed.
        return min(self._names, key=lambda n: self._latency[n].value)

    def on_response(self, backend: str, now: float, latency_s: float,
                    success: bool) -> None:
        self._latency[backend].observe(latency_s, now)
