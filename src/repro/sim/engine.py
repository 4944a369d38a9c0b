"""The simulation event loop.

:class:`Simulator` owns the clock and a binary-heap agenda of triggered
events. Time is a ``float`` in **seconds**. Ties are broken by insertion
order, which makes runs fully deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.errors import SimulationError
from repro.sim.events import (_PENDING, Callback, Event, EventPool,
                              PooledCallback, Timeout, unhandled_failure)
from repro.sim.process import Process


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def hello(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.spawn(hello(sim))
        sim.run()
        assert proc.value == "done"
    """

    # Slotted: the clock store/read happens once per processed event, and
    # slot access skips the instance-dict lookup.
    __slots__ = ("_now", "_heap", "_sequence", "events_processed", "pool")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list = []
        self._sequence = count()
        self.events_processed = 0
        # The simulation's one free list of callback events: every proxy
        # and the load generator schedule their hops through it.
        self.pool = EventPool(self)

    # ------------------------------------------------------------------ #
    # Clock and agenda
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _enqueue(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    # ------------------------------------------------------------------ #
    # Event factories
    # ------------------------------------------------------------------ #

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator, name: str | None = None) -> Process:
        """Start a generator as a process at the current time."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, fn, *args) -> Event:
        """Run ``fn(*args)`` as a callback at absolute time ``when``.

        Fast path: a single :class:`~repro.sim.events.Callback` event
        carries the function directly — no closure allocation and no
        callback-list append per scheduled call.
        """
        if when < self._now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self._now})")
        return Callback(self, when - self._now, fn, args)

    def call_after(self, delay: float, fn, *args) -> Event:
        """Run ``fn(*args)`` as a callback ``delay`` seconds from now."""
        return self.call_at(self._now + delay, fn, *args)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Process the single next event on the agenda.

        A failed event whose exception is delivered to no waiter (and that
        has not been ``defused``) aborts the run — errors must never pass
        silently.
        """
        if not self._heap:
            raise SimulationError("step() on an empty agenda")
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        event._process()
        if unhandled_failure(event):
            raise SimulationError(
                f"unhandled failure in {event!r}") from event._exception

    def run(self, until: float | None = None) -> float:
        """Run until the agenda empties or the clock would pass ``until``.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier (so periodic measurements can
        rely on the final timestamp). Returns the final clock value.

        The loop body is :meth:`step` inlined (with direct slot reads in
        place of the ``ok`` property): one event dispatch per heap pop,
        no per-event method-call overhead — this is the hottest loop in
        the repository.
        """
        heap = self._heap
        pop = heapq.heappop
        pooled = PooledCallback
        pending = _PENDING
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        processed = self.events_processed
        # Two copies of the loop so the bounded variant (every benchmark
        # run) pays neither a per-event `until is None` test nor a
        # sentinel comparison. Pooled callbacks — the bulk of data-plane
        # traffic — are dispatched inline (the exact body of
        # PooledCallback._process, which step() still uses): they carry
        # no exception, no waiters and no external callbacks, so the
        # failure predicate below never applies to them.
        try:
            if until is None:
                while heap:
                    when, _seq, event = pop(heap)
                    self._now = when
                    processed += 1
                    if type(event) is pooled:
                        fn = event.fn
                        pool = event._pool
                        event.fn = None
                        event._value = pending
                        if pool is not None:
                            free = pool._free
                            if len(free) < pool.max_free:
                                free.append(event)
                        fn()
                        continue
                    event._process()
                    # The cheap slot read guards the common success case;
                    # the full decision is the same unhandled_failure()
                    # predicate step() uses, so the paths cannot diverge.
                    if (event._exception is not None
                            and unhandled_failure(event)):
                        raise SimulationError(
                            f"unhandled failure in {event!r}"
                        ) from event._exception
            else:
                while heap and heap[0][0] <= until:
                    when, _seq, event = pop(heap)
                    self._now = when
                    processed += 1
                    if type(event) is pooled:
                        fn = event.fn
                        pool = event._pool
                        event.fn = None
                        event._value = pending
                        if pool is not None:
                            free = pool._free
                            if len(free) < pool.max_free:
                                free.append(event)
                        fn()
                        continue
                    event._process()
                    if (event._exception is not None
                            and unhandled_failure(event)):
                        raise SimulationError(
                            f"unhandled failure in {event!r}"
                        ) from event._exception
        finally:
            self.events_processed = processed
        if until is not None:
            self._now = until
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} agenda={len(self._heap)}>"
