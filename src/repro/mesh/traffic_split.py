"""SMI-style TrafficSplit (paper §4).

A TrafficSplit maps a service to a set of backends with non-negative
integer weights; a backend with twice the weight receives twice the
traffic. Weight updates do not take effect instantly: the mesh control
plane must push new configuration to the affected sidecar proxies, modelled
as a fixed propagation delay.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from repro.core.controller import validate_backend_pool
from repro.errors import ConfigError, MeshError
from repro.sim.engine import Simulator


class TrafficSplit:
    """Weighted traffic distribution between a service's backends."""

    __slots__ = ("sim", "service", "propagation_delay_s", "_weights",
                 "_total", "_names", "_cum", "_generation",
                 "_applied_generation", "update_count")

    def __init__(self, sim: Simulator, service: str, backend_names,
                 propagation_delay_s: float = 0.5):
        """Args:
            sim: owning simulator (used to delay weight propagation).
            service: the service whose traffic is being split.
            backend_names: initial backends; all start with equal weight.
            propagation_delay_s: control-plane push latency before new
                weights reach the data plane.
        """
        names = validate_backend_pool(backend_names, "TrafficSplit")
        if propagation_delay_s < 0:
            raise ConfigError(
                f"propagation delay must be >= 0: {propagation_delay_s}")
        self.sim = sim
        self.service = service
        self.propagation_delay_s = propagation_delay_s
        self._weights: dict[str, int] = {name: 1 for name in names}
        # Cached sum of active weights: pick() runs once per request,
        # weights change a few times a minute.
        self._total = len(names)
        self._rebuild_cumulative()
        self._generation = itertools.count(1)
        self._applied_generation = 0
        self.update_count = 0

    @property
    def weights(self) -> dict[str, int]:
        """The weights currently active in the data plane (a copy)."""
        return dict(self._weights)

    def backend_names(self) -> list[str]:
        return list(self._weights)

    def add_backend(self, name: str, weight: int = 1) -> None:
        """Add a target service to the split (§4: the operator's first
        control loop handles "the addition and removal of TrafficSplits
        and their target services")."""
        if name in self._weights:
            raise MeshError(f"backend already in split: {name}")
        if weight < 0 or int(weight) != weight:
            raise MeshError(f"invalid initial weight: {weight}")
        self._weights[name] = int(weight)
        self._total = sum(self._weights.values())
        self._rebuild_cumulative()

    def remove_backend(self, name: str) -> None:
        """Remove a target service; the last backend cannot be removed."""
        if name not in self._weights:
            raise MeshError(f"unknown backend: {name}")
        if len(self._weights) == 1:
            raise MeshError("cannot remove the last backend")
        del self._weights[name]
        self._total = sum(self._weights.values())
        self._rebuild_cumulative()

    def set_weights(self, weights: dict[str, int], now: float) -> None:
        """Write new weights; they activate after the propagation delay.

        Implements the :class:`repro.core.controller.WeightSink` protocol.
        Unknown backends are rejected; omitted backends keep their current
        weight (SMI updates are full objects in practice, but partial
        updates make the controller/mesh lifecycle races explicit).
        """
        for name, weight in weights.items():
            if name not in self._weights:
                raise MeshError(
                    f"unknown backend {name!r} in TrafficSplit {self.service!r}")
            if weight < 0 or int(weight) != weight:
                raise MeshError(
                    f"weights must be non-negative integers: {name}={weight}")
        generation = next(self._generation)
        if self.propagation_delay_s == 0:
            self._apply(dict(weights), generation)
        else:
            self.sim.call_after(
                self.propagation_delay_s, self._apply, dict(weights), generation)

    def _apply(self, weights: dict[str, int], generation: int) -> None:
        # Two in-flight pushes can reorder only if the control plane is
        # modelled with variable delay; guard regardless so an older (or
        # duplicate) generation never overwrites a newer one.
        if generation <= self._applied_generation:
            return
        self._applied_generation = generation
        self._weights.update(weights)
        self._total = sum(self._weights.values())
        self._rebuild_cumulative()
        self.update_count += 1

    def _rebuild_cumulative(self) -> None:
        # pick() used to walk the weights dict linearly; at fleet scale
        # (hundreds of backends) that scan dominated the hot path. The
        # cumulative-sum table turns it into one bisect. Running floats
        # over integer weights are exact (sums stay far below 2**53), so
        # bisect_right(cum, threshold) lands on exactly the same backend
        # the strict `threshold < running` scan returned — including
        # zero-weight entries, which both schemes skip.
        self._names = list(self._weights)
        cum = []
        running = 0.0
        for weight in self._weights.values():
            running += weight
            cum.append(running)
        self._cum = cum

    def pick(self, rng) -> str:
        """Pick a backend proportionally to the active weights."""
        total = self._total
        if total <= 0:
            # All-zero weights would blackhole traffic; fall back to uniform
            # (the SMI spec leaves this undefined; Linkerd errors requests,
            # but a benchmark must keep flowing to keep measuring).
            return self._names[rng.randrange(len(self._names))]
        threshold = rng.random() * total
        names = self._names
        # threshold == total can occur when rng.random() is close enough
        # to 1.0 that the product rounds up; the linear scan fell through
        # to the last backend, so clamp the bisect the same way.
        idx = bisect_right(self._cum, threshold)
        if idx >= len(names):
            idx = len(names) - 1
        return names[idx]
