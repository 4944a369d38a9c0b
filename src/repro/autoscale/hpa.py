"""The original simple HPA loop (the seed's first autoscaler).

§3.2 motivates the rate controller by its interplay with cluster
autoscaling: on an RPS surge, spreading load "enables the cluster's
autoscaling mechanisms to promptly scale up the faster backends". This
class was the first cut of that interplay — a self-contained loop that
reads the backend's in-flight count *directly* (no telemetry pipeline)
and scales with a flat reaction delay and scale-down cooldown.

It remains as the minimal executable reference of the HPA formula; the
full co-simulation subsystem — telemetry-driven signals, provisioning
pipeline, stabilization windows, cold-start warmup, cost accounting —
is :class:`~repro.autoscale.controller.BackendAutoscaler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError, Interrupted


@dataclass(frozen=True)
class AutoscalerConfig:
    """HPA-like tunables.

    Attributes:
        target_utilization: desired in-flight per replica-capacity ratio.
        min_replicas / max_replicas: replica-count bounds.
        interval_s: control-loop period.
        scale_up_delay_s: pod start-up time — new capacity becomes
            effective only after this long.
        scale_down_cooldown_s: minimum time between scale-downs (HPA's
            stabilisation window).
    """

    target_utilization: float = 0.5
    min_replicas: int = 1
    max_replicas: int = 10
    interval_s: float = 15.0
    scale_up_delay_s: float = 30.0
    scale_down_cooldown_s: float = 120.0

    def __post_init__(self):
        if not 0.0 < self.target_utilization <= 1.0:
            raise ConfigError(
                f"target utilization must be in (0, 1]: "
                f"{self.target_utilization}")
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ConfigError(
                f"invalid replica bounds: [{self.min_replicas}, "
                f"{self.max_replicas}]")
        if self.interval_s <= 0:
            raise ConfigError(f"interval must be positive: {self.interval_s}")
        if self.scale_up_delay_s < 0 or self.scale_down_cooldown_s < 0:
            raise ConfigError("delays must be >= 0")


class Autoscaler:
    """Scales one backend's replica set toward a utilisation target."""

    def __init__(self, backend, config: AutoscalerConfig | None = None):
        """Args:
            backend: the :class:`~repro.mesh.service.Backend` to scale
                (duck-typed: ``replicas``, ``inflight``,
                ``add_replica``/``remove_replica``).
            config: tunables; defaults apply when omitted.
        """
        self.backend = backend
        self.config = config or AutoscalerConfig()
        self.scale_events: list[tuple[float, int]] = []
        self._last_scale_down: float = float("-inf")
        self._pending_up = 0

    @property
    def replica_count(self) -> int:
        return len(self.backend.replicas)

    def desired_replicas(self) -> int:
        """HPA formula: ceil(current * utilisation / target), bounded."""
        capacity = self.backend.replicas[0].server.capacity
        current = self.replica_count
        utilization = self.backend.inflight / max(current * capacity, 1)
        desired = math.ceil(
            current * utilization / self.config.target_utilization)
        desired = max(desired, self.config.min_replicas)
        return min(desired, self.config.max_replicas)

    def _scale_up(self, sim, count: int) -> None:
        """Add replicas after the pod start-up delay."""
        self._pending_up += count

        def start():
            for _ in range(count):
                if self.replica_count < self.config.max_replicas:
                    self.backend.add_replica()
                    self.scale_events.append((sim.now, +1))
            self._pending_up -= count

        sim.call_after(self.config.scale_up_delay_s, start)

    def _scale_down(self, sim, count: int) -> None:
        for _ in range(count):
            if self.replica_count > self.config.min_replicas:
                self.backend.remove_replica()
                self.scale_events.append((sim.now, -1))
        self._last_scale_down = sim.now

    def step(self, sim) -> None:
        """One control-loop evaluation."""
        desired = self.desired_replicas()
        effective = self.replica_count + self._pending_up
        if desired > effective:
            self._scale_up(sim, desired - effective)
        elif desired < self.replica_count:
            cooldown_over = (sim.now - self._last_scale_down
                             >= self.config.scale_down_cooldown_s)
            if cooldown_over:
                # Scale down one replica at a time — conservative, like
                # HPA's default behaviour policies.
                self._scale_down(sim, 1)

    def run(self, sim):
        """Generator process: evaluate every ``interval_s``."""
        try:
            while True:
                yield sim.timeout(self.config.interval_s)
                self.step(sim)
        except Interrupted:
            return
