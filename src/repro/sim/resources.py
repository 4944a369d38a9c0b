"""Shared resources of the simulation.

:class:`Server` models a bounded-concurrency executor with a FIFO wait
queue — the building block for microservice replicas (a replica with
``capacity`` worker slots queues excess requests, which is what makes load
balancing matter).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class Server:
    """A resource with ``capacity`` concurrent slots and a FIFO queue.

    Usage::

        if server.try_acquire():
            ...                       # slot held: start the work
        else:
            server.enqueue_waiter(gate)   # gate fires once a slot is held
        ...
        server.release()              # hands the slot to the oldest waiter
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"server capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of acquisitions waiting for a free slot."""
        return len(self._waiters)

    @property
    def occupancy(self) -> int:
        """Held slots plus waiting acquisitions (one read for gauges)."""
        return self._in_use + len(self._waiters)

    @staticmethod
    def total_occupancy(servers) -> int:
        """Summed :attr:`occupancy` of ``servers``, minus the calls."""
        return sum([server._in_use + len(server._waiters)
                    for server in servers])

    def try_acquire(self) -> bool:
        """Grab a slot if one is free right now.

        Returns ``True`` with the slot held, or ``False`` without
        queueing anything — callers that get ``False`` park a waiter via
        :meth:`enqueue_waiter`.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def enqueue_waiter(self, event: Event) -> None:
        """Queue ``event`` (a :meth:`~repro.sim.events.EventPool.gate`)
        for the next free slot (FIFO); it is fired via ``succeed()``."""
        self._waiters.append(event)

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            # Hand the slot over directly; _in_use stays constant.
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1
