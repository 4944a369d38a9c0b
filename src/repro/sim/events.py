"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes wait on events by yielding them; arbitrary callbacks can also be
attached. Events carry either a value (success) or an exception (failure).
"""

from __future__ import annotations

import typing
from heapq import heappush

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


def unhandled_failure(event) -> bool:
    """Whether a just-processed event's failure must abort the run.

    The single failure predicate shared by :meth:`Simulator.step` and the
    inlined hot loop in :meth:`Simulator.run` — a failed event whose
    exception reached no waiter, and that nobody ``defused``, must never
    pass silently. Keeping one definition means single-step debugging and
    the hot loop cannot diverge on failure handling.
    """
    return (event._exception is not None and not event._delivered
            and not event.defused)


class Event:
    """A one-shot simulation event.

    Lifecycle: *pending* (just created) → *triggered* (scheduled onto the
    event heap via :meth:`succeed`/:meth:`fail`) → *processed* (callbacks
    have run).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_processed",
                 "_delivered", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list = []
        self._value = _PENDING
        self._exception: BaseException | None = None
        self._processed = False
        self._delivered = False
        # A failed event whose exception reaches no waiter aborts the run
        # unless it has been explicitly defused.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (valid once triggered)."""
        return self._exception is None

    @property
    def value(self):
        """The event's value; raises if the event failed or is pending."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    def succeed(self, value=None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, optionally after ``delay``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.sim._enqueue(delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception, optionally after ``delay``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self._value = None
        self.sim._enqueue(delay, self)
        return self

    def add_callback(self, callback) -> None:
        """Attach ``callback(event)``; runs when the event is processed.

        If the event has already been processed the callback runs
        immediately (this keeps waiting on completed processes race-free).
        """
        if self._processed:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run all callbacks. Called by the simulator loop exactly once."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        self._delivered = bool(callbacks)
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self.sim._enqueue(delay, self)


class Callback(Event):
    """An event that invokes ``fn(*args)`` directly when it fires.

    The fast path behind :meth:`Simulator.call_at` / ``call_after``: the
    function is stored on the event itself instead of wrapped in a lambda
    appended to the callback list, saving one closure and one list
    allocation per scheduled call — these fire once per weight push and
    per fault application, so the savings compound over long sweeps.
    Externally attached callbacks (:meth:`Event.add_callback`) still run,
    after the carried function, in the usual order.
    """

    __slots__ = ("fn", "args")

    def __init__(self, sim: "Simulator", delay: float, fn, args=()):
        super().__init__(sim)
        self.fn = fn
        self.args = args
        self._value = None
        self.sim._enqueue(delay, self)

    def _process(self) -> None:
        self._processed = True
        self._delivered = True
        self.fn(*self.args)
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for callback in callbacks:
                callback(self)


class PooledCallback(Event):
    """A reusable zero-argument callback event owned by an :class:`EventPool`.

    The allocation-lean primitive behind the request state machines
    (:mod:`repro.mesh.fastdispatch`): a hop is one pooled event carrying
    a pre-bound method, not a fresh ``Timeout`` plus generator-resume
    machinery. The event recycles itself back into its
    pool *before* invoking the callback, so a chain of hops typically
    reuses one object end to end.

    Reuse contract (enforced by the pool, tested in
    ``tests/sim/test_event_pool.py``):

    * every acquired event is scheduled (or ``succeed``-ed) exactly once
      and fires exactly once — the pool never recycles an event that is
      still on the agenda;
    * holders must drop their reference once the event has fired; the
      recycled object may already be serving an unrelated hop;
    * ``add_callback`` is not supported — the carried function is the
      only continuation (external callbacks would survive recycling and
      fire on the wrong occupant).
    """

    __slots__ = ("fn", "_pool")

    def __init__(self, sim: "Simulator", pool: "EventPool | None" = None):
        super().__init__(sim)
        self.fn = None
        self._pool = pool

    def _process(self) -> None:
        # Inlined recycle: reset the two fields reuse depends on (the
        # carried function, and the trigger sentinel succeed() checks)
        # and return to the free list *before* running the callback, so
        # a chain of hops reuses one object end to end. The remaining
        # Event flags are never consulted on a pooled event: it cannot
        # fail (no _exception), and add_callback is unsupported.
        fn = self.fn
        pool = self._pool
        self.fn = None
        self._value = _PENDING
        if pool is not None:
            free = pool._free
            if len(free) < pool.max_free:
                free.append(self)
        fn()


class EventPool:
    """A bounded free list of :class:`PooledCallback` events.

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

    def acquire(self, fn) -> PooledCallback:
        """A pristine pooled event carrying ``fn``; not yet scheduled."""
        free = self._free
        if free:
            event = free.pop()
            self.reused += 1
        else:
            event = PooledCallback(self.sim, self)
            self.created += 1
        event.fn = fn
        return event

    def schedule(self, delay: float, fn) -> PooledCallback:
        """Schedule ``fn()`` to run ``delay`` seconds from now.

        This is the data plane's hottest call (one per state-machine
        hop), so :meth:`acquire` and the simulator's ``_enqueue`` are
        inlined: one free-list pop, one heap push.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        free = self._free
        if free:
            event = free.pop()
            self.reused += 1
        else:
            event = PooledCallback(self.sim, self)
            self.created += 1
        event.fn = fn
        event._value = None
        heappush(self._heap,
                 (self.sim._now + delay, next(self._sequence), event))
        return event

    def gate(self, fn) -> PooledCallback:
        """An unscheduled pooled event; firing it later runs ``fn()``.

        Hand it to code that wakes sleepers via ``event.succeed()`` — a
        :class:`~repro.sim.resources.Server` wait queue, a replica's
        blackhole gate list.
        """
        return self.acquire(fn)

    def recycle(self, event: PooledCallback) -> None:
        """Reset ``event`` and return it to the free list (if not full)."""
        event.fn = None
        event._value = _PENDING
        event._exception = None
        event._processed = False
        event._delivered = False
        event.defused = False
        if event.callbacks:
            event.callbacks.clear()
        if len(self._free) < self.max_free:
            self._free.append(event)
