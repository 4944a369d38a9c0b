"""The agenda entry of the simulation kernel, and its free list.

There is one kind of agenda entry: an :class:`Event` carrying a
zero-argument callback. It is either *scheduled* (pushed onto the heap
with a delay) or handed out as an unscheduled *gate* that some other
code fires later via :meth:`Event.succeed` — a server's wait queue, a
replica's blackhole gate list.
"""

from __future__ import annotations

import typing
from heapq import heappush

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Event:
    """A reusable zero-argument callback event owned by an :class:`EventPool`.

    The allocation-lean primitive behind the request state machines
    (:mod:`repro.mesh.fastdispatch`) and the control loops
    (:meth:`Simulator.every <repro.sim.engine.Simulator.every>`): a hop
    is one pooled event carrying a pre-bound method. The event recycles
    itself back into its pool *before* invoking the callback, so a chain
    of hops typically reuses one object end to end.

    Reuse contract (enforced by the pool, tested in
    ``tests/sim/test_event_pool.py``):

    * every acquired event is scheduled (or ``succeed``-ed) exactly once
      and fires exactly once — the pool never recycles an event that is
      still on the agenda;
    * holders must drop their reference once the event has fired; the
      recycled object may already be serving an unrelated hop;
    * a holder may disarm a scheduled event by pointing ``fn`` at a
      no-op and dropping its reference: the entry stays on the agenda
      and fires as nothing (a request deadline beaten by its flight).
    """

    __slots__ = ("fn", "_pool", "_triggered")

    def __init__(self, pool: "EventPool"):
        self.fn = None
        self._pool = pool
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """Whether the event is on the agenda, waiting to fire."""
        return self._triggered

    def succeed(self, delay: float = 0.0) -> "Event":
        """Fire the event: run its callback ``delay`` seconds from now."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._triggered = True
        pool = self._pool
        heappush(pool._heap,
                 (pool.sim._now + delay, next(pool._sequence), self))
        return self

    def _process(self) -> None:
        # Reset the two fields reuse depends on (the carried function
        # and the trigger flag succeed() checks) and return to the free
        # list *before* running the callback, so a chain of hops reuses
        # one object end to end. Simulator.run inlines this body.
        fn = self.fn
        pool = self._pool
        self.fn = None
        self._triggered = False
        free = pool._free
        if len(free) < pool.max_free:
            free.append(self)
        fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {'triggered' if self._triggered else 'pending'}>"


class EventPool:
    """A bounded free list of :class:`Event` objects.

    ``schedule`` runs a callback after a delay without allocating an
    event per hop; ``gate`` hands out an *unscheduled* event for
    queue-waiter / blackhole-gate duty (fired later via ``succeed()``).
    The free list is bounded by ``max_free``: under steady load the pool
    reaches its working-set size and every hop is a reuse; events freed
    beyond the bound are dropped to the garbage collector, so a burst
    cannot pin memory forever.
    """

    __slots__ = ("sim", "max_free", "_free", "created", "reused",
                 "_heap", "_sequence")

    def __init__(self, sim: "Simulator", max_free: int = 512):
        if max_free < 0:
            raise SimulationError(f"negative pool bound: {max_free}")
        self.sim = sim
        self.max_free = max_free
        self._free: list = []
        self.created = 0
        self.reused = 0
        # The simulator never rebinds its agenda list or sequence counter,
        # so schedule() can capture them once instead of chasing two
        # attribute chains per hop.
        self._heap = sim._heap
        self._sequence = sim._sequence

    def __len__(self) -> int:
        """Number of events currently sitting on the free list."""
        return len(self._free)

    def schedule(self, delay: float, fn) -> Event:
        """Schedule ``fn()`` to run ``delay`` seconds from now.

        This is the data plane's hottest call (one per state-machine
        hop), so :meth:`gate` is inlined: one free-list pop, one heap
        push.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        free = self._free
        if free:
            event = free.pop()
            self.reused += 1
        else:
            event = Event(self)
            self.created += 1
        event.fn = fn
        event._triggered = True
        heappush(self._heap,
                 (self.sim._now + delay, next(self._sequence), event))
        return event

    def gate(self, fn) -> Event:
        """An unscheduled pooled event; firing it later runs ``fn()``.

        Hand it to code that wakes sleepers via ``event.succeed()`` — a
        :class:`~repro.sim.resources.Server` wait queue, a replica's
        blackhole gate list.
        """
        free = self._free
        if free:
            event = free.pop()
            self.reused += 1
        else:
            event = Event(self)
            self.created += 1
        event.fn = fn
        return event
