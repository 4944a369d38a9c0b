"""Least-outstanding-requests — the classical client-side queue heuristic.

The oldest adaptive policy in the client-side family (AWS ALB's "least
outstanding requests", Envoy's LEAST_REQUEST with full scan): every
request goes to the backend with the fewest requests currently in
flight, ties broken uniformly at random. In-flight count is a free,
perfectly fresh congestion signal — it needs no scrape pipeline and no
latency model — but it is *latency-blind*: a fast backend and a slow
backend with equal queue depth look identical, so under cross-cluster
delay skew it keeps feeding the far cluster (the failure mode the
tournament's degraded-backend cell makes visible).
"""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.core.controller import validate_backend_pool


class LeastOutstandingBalancer(Balancer):
    """Pick the backend with the fewest in-flight requests."""

    def __init__(self, backend_names):
        self._names = validate_backend_pool(backend_names, "least-outstanding")
        self._inflight = {name: 0 for name in self._names}

    def pick(self, rng, now: float) -> str:
        if len(self._names) == 1:
            return self._names[0]
        lowest = min(self._inflight.values())
        tied = [n for n in self._names if self._inflight[n] == lowest]
        if len(tied) == 1:
            return tied[0]
        return tied[rng.randrange(len(tied))]

    def on_request_sent(self, backend: str, now: float) -> None:
        self._inflight[backend] += 1

    def on_response(self, backend: str, now: float, latency_s: float,
                    success: bool) -> None:
        self._inflight[backend] = max(self._inflight[backend] - 1, 0)
