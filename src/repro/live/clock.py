"""Wall-clock time for the live testbed.

The simulator's convention is "seconds since the run started, starting at
0.0"; every reusable component (EWMAs, the controller, the lease lock,
the time-series store) takes ``now`` floats in that frame. The live
testbed keeps the convention by measuring monotonic wall-clock time
relative to the harness boot — so :class:`~repro.core.controller.L3Controller`
and :class:`~repro.telemetry.query.PromMetricsSource` run unchanged on
either substrate.

:class:`WallClock` stands in for the simulator where the control plane
takes one: it has its ``now`` and its periodic primitive, ``every``.

Every live run waits on :func:`precise_event_loop`: CPython's epoll
selector rounds each timed wait *up* to a whole millisecond, which on a
1 ms service would make timer rounding part of the latency the testbed
measures.

Tests that must not sleep use a plain ``lambda: t`` (or
:class:`FakeClock`) wherever a clock is expected.
"""

from __future__ import annotations

import asyncio
import math
import select
import selectors
import time

from repro.errors import ConfigError, MeshError

# select()'s FD_SETSIZE: the highest descriptor it can wait on, plus one.
_SELECT_FD_LIMIT = 1024


class PreciseEpollSelector(selectors.EpollSelector):
    """An epoll selector whose timed waits keep µs precision.

    ``epoll_wait`` takes whole milliseconds, so the stock selector
    rounds a 0.2 ms timer up to 1 ms. A positive, finite wait here
    blocks in ``select()`` (µs resolution) on the epoll descriptor
    itself — readable exactly when some registered socket is ready —
    and only then harvests the events with a non-blocking poll. ``None``
    (wait forever) and ``0`` (poll) pass straight through.

    ``select()`` only takes descriptors below 1024; this one is made
    before the run opens any socket, and construction refuses one that
    is not.
    """

    def __init__(self):
        super().__init__()
        if self.fileno() >= _SELECT_FD_LIMIT:
            fd = self.fileno()
            self.close()
            raise MeshError(
                f"epoll descriptor {fd} is past select()'s limit of "
                f"{_SELECT_FD_LIMIT}; create the live loop before "
                f"opening sockets")

    def select(self, timeout=None):
        if timeout is None or not 0 < timeout < math.inf:
            return super().select(timeout)
        if not select.select((self.fileno(),), (), (), timeout)[0]:
            return []
        return super().select(0)


def precise_event_loop() -> asyncio.AbstractEventLoop:
    """A new event loop on :class:`PreciseEpollSelector` — the live
    runs' loop (``asyncio.Runner(loop_factory=precise_event_loop)``)."""
    return asyncio.SelectorEventLoop(PreciseEpollSelector())


class WallPeriodic:
    """A running :meth:`WallClock.every` loop; :meth:`cancel` stops it.

    A tick that raises ends the loop; the exception is kept in
    :attr:`error` for the owner to re-raise.
    """

    __slots__ = ("_clock", "_interval_s", "_tick", "_timer", "error")

    def __init__(self, clock: "WallClock", interval_s: float, tick):
        self._clock = clock
        self._interval_s = interval_s
        self._tick = tick
        self.error: Exception | None = None
        self._timer = asyncio.get_running_loop().call_later(
            interval_s, self._fire)

    def _fire(self) -> None:
        try:
            self._tick(self._clock())
        except Exception as exc:
            self.error = exc
            return
        # Re-arm only after the tick returned (Simulator.every's
        # contract); a tick that cancelled its own loop stays cancelled.
        if self._tick is not None:
            self._timer = asyncio.get_running_loop().call_later(
                self._interval_s, self._fire)

    def cancel(self) -> None:
        """Never call ``tick`` again (idempotent)."""
        self._tick = None
        self._timer.cancel()


class WallClock:
    """Monotonic seconds since construction (the live run's time origin)."""

    __slots__ = ("_t0",)

    def __init__(self):
        self._t0 = time.monotonic()

    def __call__(self) -> float:
        return time.monotonic() - self._t0

    @property
    def now(self) -> float:
        """The current reading (the simulator's ``now``)."""
        return self()

    def every(self, interval_s: float, tick) -> WallPeriodic:
        """``Simulator.every`` on the running event loop: ``tick(now)``
        at one interval from now, re-armed (a ``call_later`` timer, no
        task) only after it returned; a tick that raises ends its loop."""
        if not 0 < interval_s < math.inf:
            raise ConfigError(
                f"interval must be positive and finite: {interval_s}")
        return WallPeriodic(self, interval_s, tick)


class FakeClock:
    """A manually-advanced clock for deterministic, sleep-free tests."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        """Move time forward and return the new reading."""
        self.now += seconds
        return self.now
