"""The live control-plane driver: reconciles on wall-clock time.

The controllers themselves (:class:`~repro.core.controller.L3Controller`,
:class:`~repro.balancers.c3.C3Controller`) are substrate-agnostic —
``reconcile(now)`` is a pure metrics→weights cycle. On the simulator a
``sim.every`` loop supplies the cadence; here an asyncio task does. In HA
mode the loop steps several :class:`~repro.core.leader.ControllerReplica`
instances competing over one wall-clock
:class:`~repro.core.leader.LeaseLock`; only the lease holder reconciles,
exactly the paper's lease-based leader election.
"""

from __future__ import annotations

import asyncio

from repro.core.leader import ControllerReplica, LeaseLock
from repro.errors import ConfigError


class ControllerStepper:
    """Adapts a bare controller to the ``step(now)`` interface.

    Honours the controller's ``paused`` flag (fault injection:
    controller-pause stalls the loop without killing it), mirroring what
    the simulator's run loop does.
    """

    def __init__(self, controller):
        self.controller = controller

    def step(self, now: float) -> bool:
        if getattr(self.controller, "paused", False):
            return False
        self.controller.reconcile(now)
        return True


class LiveControlLoop:
    """Ticks a set of steppers every ``interval_s`` of wall-clock time."""

    def __init__(self, steppers, clock, interval_s: float):
        """Args:
            steppers: objects with ``step(now) -> bool`` — bare
                controllers wrapped in :class:`ControllerStepper`, or
                :class:`~repro.core.leader.ControllerReplica` instances
                sharing a lease.
            clock: zero-argument callable, seconds since the run started.
            interval_s: reconcile cadence.
        """
        if interval_s <= 0:
            raise ConfigError(
                f"reconcile interval must be positive: {interval_s}")
        self.steppers = list(steppers)
        self.clock = clock
        self.interval_s = interval_s
        self.ticks = 0

    def tick(self, now: float | None = None) -> int:
        """Step every stepper once; returns how many reconciled."""
        if now is None:
            now = self.clock()
        return sum(1 for stepper in self.steppers if stepper.step(now))

    async def run(self) -> None:
        """Tick forever on the configured cadence (cancel to stop)."""
        while True:
            await asyncio.sleep(self.interval_s)
            self.tick()
            self.ticks += 1


def ha_replicas(controllers, lease_ttl_s: float, clock,
                ) -> tuple[LeaseLock, list[ControllerReplica]]:
    """Build HA replicas over one shared wall-clock lease.

    Each controller instance becomes one replica; they share the metrics
    source and the weight sink, so whichever holds the lease drives the
    split — the paper's multi-replica operator deployment.
    """
    lease = LeaseLock(ttl_s=lease_ttl_s, clock=clock)
    return lease, [
        ControllerReplica(f"replica-{i}", controller, lease)
        for i, controller in enumerate(controllers)
    ]
