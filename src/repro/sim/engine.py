"""The simulation event loop.

:class:`Simulator` owns the clock and a binary-heap agenda of triggered
events. Time is a ``float`` in **seconds**. Ties are broken by insertion
order, which makes runs fully deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from itertools import count

from repro.errors import SimulationError
from repro.sim.events import Event, EventPool


class Periodic:
    """A running :meth:`Simulator.every` loop; :meth:`cancel` stops it."""

    __slots__ = ("_sim", "_interval_s", "_tick")

    def __init__(self, sim: "Simulator", interval_s: float, tick):
        self._sim = sim
        self._interval_s = interval_s
        self._tick = tick
        sim.pool.schedule(interval_s, self._fire)

    def _fire(self) -> None:
        tick = self._tick
        if tick is None:
            return
        tick(self._sim._now)
        # Re-arm only after the tick returned: whatever the tick itself
        # scheduled (a weight push, a scale-up) gets the earlier sequence
        # number, which is the tie order the pinned digests rest on.
        if self._tick is not None:
            self._sim.pool.schedule(self._interval_s, self._fire)

    def cancel(self) -> None:
        """Never call ``tick`` again (idempotent).

        The one agenda entry already armed stays on the heap and fires
        as a no-op.
        """
        self._tick = None


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.call_after(1.0, print, "one second in")
        loop = sim.every(5.0, scraper.tick)     # tick(now) at t=5, 10, ...
        sim.run(until=60.0)
        loop.cancel()
    """

    # Slotted: the clock store/read happens once per processed event, and
    # slot access skips the instance-dict lookup.
    __slots__ = ("_now", "_heap", "_sequence", "events_processed", "pool")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list = []
        self._sequence = count()
        self.events_processed = 0
        # The simulation's one free list of callback events: every proxy,
        # the load generator and the control loops schedule through it.
        self.pool = EventPool(self)

    # ------------------------------------------------------------------ #
    # Clock and agenda
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def call_at(self, when: float, fn, *args) -> Event:
        """Run ``fn(*args)`` as a callback at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self._now})")
        return self.pool.schedule(
            when - self._now, partial(fn, *args) if args else fn)

    def call_after(self, delay: float, fn, *args) -> Event:
        """Run ``fn(*args)`` as a callback ``delay`` seconds from now."""
        return self.call_at(self._now + delay, fn, *args)

    def every(self, interval_s: float, tick) -> Periodic:
        """Run ``tick(now)`` every ``interval_s`` seconds until cancelled.

        The first tick is ``interval_s`` from now; each following one is
        scheduled after the previous ``tick`` returned. Loops started in
        some order tick in that order at every instant they share. A tick
        that raises propagates out of :meth:`run` and ends its loop.
        """
        if not 0 < interval_s < math.inf:
            raise SimulationError(
                f"interval must be positive and finite: {interval_s}")
        return Periodic(self, interval_s, tick)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Process the single next event on the agenda."""
        if not self._heap:
            raise SimulationError("step() on an empty agenda")
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        event._process()

    def run(self, until: float | None = None) -> float:
        """Run until the agenda empties or the clock would pass ``until``.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier (so periodic measurements can
        rely on the final timestamp). Returns the final clock value.

        The loop body is :meth:`step` with ``Event._process`` inlined:
        one event dispatch per heap pop, no per-event method-call
        overhead — this is the hottest loop in the repository. A callback
        that raises propagates out of here as itself.
        """
        heap = self._heap
        pop = heapq.heappop
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        processed = self.events_processed
        # Two copies of the loop so the bounded variant (every benchmark
        # run) pays neither a per-event `until is None` test nor a
        # sentinel comparison.
        try:
            if until is None:
                while heap:
                    when, _seq, event = pop(heap)
                    self._now = when
                    processed += 1
                    fn = event.fn
                    pool = event._pool
                    event.fn = None
                    event._triggered = False
                    free = pool._free
                    if len(free) < pool.max_free:
                        free.append(event)
                    fn()
            else:
                while heap and heap[0][0] <= until:
                    when, _seq, event = pop(heap)
                    self._now = when
                    processed += 1
                    fn = event.fn
                    pool = event._pool
                    event.fn = None
                    event._triggered = False
                    free = pool._free
                    if len(free) < pool.max_free:
                        free.append(event)
                    fn()
        finally:
            self.events_processed = processed
        if until is not None:
            self._now = until
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} agenda={len(self._heap)}>"
