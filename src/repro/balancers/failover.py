"""Locality failover — the related-work mechanism (paper §6, extension).

Most service meshes ship multi-cluster *failover* rather than continuous
latency-aware balancing: all traffic stays in the local cluster until
health checks mark it unhealthy, then everything shifts to a fallback.
Istio's locality failover, Linkerd's failover extension and AWS AppMesh
all follow this pattern; the paper positions L3 against it ("traffic can
be quickly forwarded to other clusters without waiting ... for the
fallback mechanism to kick in").

This implementation uses outlier detection on the success rate: a backend
whose recent success rate falls below ``unhealthy_threshold`` is ejected
for ``ejection_s`` seconds and traffic moves to the preference-ordered
next backend. It gives the benchmark suite the "reactive failover"
comparison point the related work describes.
"""

from __future__ import annotations

from collections import deque

from repro.balancers.base import Balancer
from repro.core.controller import validate_backend_pool
from repro.errors import ConfigError


class FailoverBalancer(Balancer):
    """Prefer backends in order; fail over on unhealthy success rate."""

    def __init__(self, preference_order, unhealthy_threshold: float = 0.5,
                 window: int = 50, ejection_s: float = 30.0):
        """Args:
            preference_order: backends from most to least preferred (the
                local cluster first, then fallbacks).
            unhealthy_threshold: eject when the windowed success rate of
                the active backend drops below this.
            window: number of recent responses the health check considers.
            ejection_s: how long an ejected backend stays out of rotation.
        """
        names = validate_backend_pool(preference_order, "failover")
        if not 0.0 < unhealthy_threshold <= 1.0:
            raise ConfigError(
                f"threshold must be in (0, 1]: {unhealthy_threshold}")
        if window < 1:
            raise ConfigError(f"window must be >= 1: {window}")
        if ejection_s < 0:
            raise ConfigError(f"ejection must be >= 0: {ejection_s}")
        self._order = names
        self.unhealthy_threshold = unhealthy_threshold
        self.window = window
        self.ejection_s = ejection_s
        self._outcomes = {name: deque(maxlen=window) for name in names}
        self._ejected_until = {name: float("-inf") for name in names}

    def _healthy(self, name: str, now: float) -> bool:
        if now < self._ejected_until[name]:
            return False
        outcomes = self._outcomes[name]
        # Too few samples to judge: assume healthy (fail open).
        if len(outcomes) < self.window // 2:
            return True
        return (sum(outcomes) / len(outcomes)) >= self.unhealthy_threshold

    def pick(self, rng, now: float) -> str:
        for name in self._order:
            if self._healthy(name, now):
                return name
        # Everything looks unhealthy: fall back to the top preference —
        # sending *somewhere* beats blackholing, and its window will
        # refresh fastest.
        return self._order[0]

    def on_response(self, backend: str, now: float, latency_s: float,
                    success: bool) -> None:
        if now < self._ejected_until[backend]:
            # Stale responses from requests in flight at ejection time
            # must not pre-judge the backend for its return to rotation.
            return
        outcomes = self._outcomes[backend]
        outcomes.append(1.0 if success else 0.0)
        if (len(outcomes) >= self.window // 2
                and sum(outcomes) / len(outcomes) < self.unhealthy_threshold):
            self._ejected_until[backend] = now + self.ejection_s
            outcomes.clear()  # judge afresh after the ejection expires
