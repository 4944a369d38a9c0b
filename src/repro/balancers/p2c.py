"""Power-of-two-choices with PeakEWMA cost — Linkerd's in-proxy default.

An *extension* beyond the paper's comparison set: it shows what per-request
feedback (no Prometheus scrape detour) buys relative to the
TrafficSplit-level algorithms. The proxy keeps, per backend, a PeakEWMA of
observed latency and a live in-flight counter; each request samples two
distinct backends uniformly and takes the one with the lower cost
``latency_ewma * (inflight + 1)`` (Linkerd's "Beyond Round Robin" cost
function).
"""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.core.controller import validate_backend_pool
from repro.core.ewma import PeakEwma, half_life_to_beta


class P2cPeakEwmaBalancer(Balancer):
    """Per-request P2C + PeakEWMA balancer (extension)."""

    def __init__(self, backend_names, default_latency_s: float = 1.0,
                 half_life_s: float = 5.0, start_time: float = 0.0):
        names = validate_backend_pool(backend_names, "p2c")
        beta = half_life_to_beta(half_life_s)
        self._names = names
        self._latency = {
            name: PeakEwma(default_latency_s, beta, start_time)
            for name in names
        }
        self._inflight = {name: 0 for name in names}

    def _cost(self, name: str) -> float:
        return self._latency[name].value * (self._inflight[name] + 1)

    def pick(self, rng, now: float) -> str:
        if len(self._names) == 1:
            return self._names[0]
        first, second = rng.sample(self._names, 2)
        return first if self._cost(first) <= self._cost(second) else second

    def on_request_sent(self, backend: str, now: float) -> None:
        self._inflight[backend] += 1

    def on_response(self, backend: str, now: float, latency_s: float,
                    success: bool) -> None:
        self._inflight[backend] = max(self._inflight[backend] - 1, 0)
        self._latency[backend].observe(latency_s, now)
