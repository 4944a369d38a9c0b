"""Round-robin — the paper's primary baseline (Linkerd's simplest policy)."""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.core.controller import validate_backend_pool


class RoundRobinBalancer(Balancer):
    """Cycle through the backends in a fixed order, one request each."""

    def __init__(self, backend_names):
        self._names = validate_backend_pool(backend_names, "round-robin")
        self._index = 0

    def pick(self, rng, now: float) -> str:
        name = self._names[self._index]
        self._index = (self._index + 1) % len(self._names)
        return name
