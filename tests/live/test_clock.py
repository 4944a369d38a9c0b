"""WallClock.every: Simulator.every's contract on a real event loop;
the live runs' µs-precise selector and loop.

Short real intervals (10-30 ms); the assertions allow for the host
being slow, never for it being early.
"""

import asyncio
import math
import select
import selectors
import socket
import statistics
import time

import pytest

from repro.errors import ConfigError, MeshError
from repro.live import clock as clock_module
from repro.live.clock import PreciseEpollSelector, WallClock, precise_event_loop

INTERVAL_S = 0.01


def run(scenario):
    return asyncio.run(scenario())


def other_tasks():
    return [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]


class TestEvery:
    def test_cadence_and_readings(self):
        clock = WallClock()
        ticks = []

        async def scenario():
            started = clock()
            loop = clock.every(INTERVAL_S, ticks.append)
            while len(ticks) < 5:
                await asyncio.sleep(INTERVAL_S)
            loop.cancel()
            return started

        started = run(scenario)
        # The first tick comes one interval after the call; each tick
        # gets the clock's reading, at least an interval apart.
        assert ticks[0] - started >= INTERVAL_S - 1e-3
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(gap >= INTERVAL_S - 1e-3 for gap in gaps), gaps
        assert ticks[-1] <= clock()

    def test_rearms_only_after_the_tick_returned(self):
        clock = WallClock()
        ticks = []

        def slow_tick(now):
            ticks.append(now)
            time.sleep(3 * INTERVAL_S)

        async def scenario():
            loop = clock.every(INTERVAL_S, slow_tick)
            while len(ticks) < 3:
                await asyncio.sleep(INTERVAL_S)
            loop.cancel()

        run(scenario)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(gap >= 4 * INTERVAL_S - 1e-3 for gap in gaps), gaps

    def test_cancel_before_the_first_tick(self):
        clock = WallClock()
        ticks = []

        async def scenario():
            clock.every(INTERVAL_S, ticks.append).cancel()
            await asyncio.sleep(5 * INTERVAL_S)

        run(scenario)
        assert ticks == []

    def test_cancel_from_inside_a_tick(self):
        clock = WallClock()
        ticks = []

        def tick(now):
            ticks.append(now)
            if len(ticks) == 2:
                loop.cancel()

        async def scenario():
            nonlocal loop
            loop = clock.every(INTERVAL_S, tick)
            await asyncio.sleep(10 * INTERVAL_S)

        loop = None
        run(scenario)
        assert len(ticks) == 2

    def test_cancel_twice_is_harmless(self):
        clock = WallClock()
        ticks = []

        async def scenario():
            loop = clock.every(INTERVAL_S, ticks.append)
            await asyncio.sleep(2.5 * INTERVAL_S)
            loop.cancel()
            loop.cancel()
            seen = len(ticks)
            await asyncio.sleep(3 * INTERVAL_S)
            return seen

        seen = run(scenario)
        assert seen >= 1
        assert len(ticks) == seen

    def test_a_raising_tick_ends_its_loop_and_keeps_the_error(self):
        clock = WallClock()
        ticks = []

        def tick(now):
            ticks.append(now)
            if len(ticks) == 2:
                raise RuntimeError("reconcile blew up")

        async def scenario():
            loop = clock.every(INTERVAL_S, tick)
            await asyncio.sleep(10 * INTERVAL_S)
            return loop

        loop = run(scenario)
        assert len(ticks) == 2
        assert isinstance(loop.error, RuntimeError)

    def test_creates_no_task(self):
        clock = WallClock()
        ticks = []

        async def scenario():
            loop = clock.every(INTERVAL_S, ticks.append)
            while len(ticks) < 3:
                assert other_tasks() == []
                await asyncio.sleep(INTERVAL_S)
            loop.cancel()
            return other_tasks()

        assert run(scenario) == []

    @pytest.mark.parametrize("interval_s", [0.0, -1.0, math.inf])
    def test_interval_validation(self, interval_s):
        async def scenario():
            WallClock().every(interval_s, print)

        with pytest.raises(ConfigError):
            run(scenario)

    def test_now_reads_the_clock(self):
        clock = WallClock()
        first = clock.now
        assert 0.0 <= first <= clock()


class TestPreciseEpollSelector:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Records the ``select.select`` timeouts (reporting nothing
        ready) and the stock epoll polls the selector makes."""
        calls = {"select": [], "epoll": []}

        def fake_select(rlist, wlist, xlist, timeout):
            calls["select"].append(timeout)
            return [], [], []

        def fake_epoll(self, timeout=None):
            calls["epoll"].append(timeout)
            return []

        monkeypatch.setattr(select, "select", fake_select)
        monkeypatch.setattr(selectors.EpollSelector, "select", fake_epoll)
        return calls

    def test_sub_ms_timeout_reaches_select_unrounded(self, calls):
        with PreciseEpollSelector() as selector:
            selector.select(0.0002)
        assert calls["select"] == [0.0002]

    def test_timeout_returns_nothing_without_polling_epoll(self, calls):
        with PreciseEpollSelector() as selector:
            assert selector.select(0.0002) == []
        assert calls["epoll"] == []

    @pytest.mark.parametrize("timeout", [None, 0, -1.0])
    def test_forever_and_poll_pass_straight_through(self, calls, timeout):
        with PreciseEpollSelector() as selector:
            assert selector.select(timeout) == []
        assert calls == {"select": [], "epoll": [timeout]}

    def test_harvests_a_ready_socket(self):
        left, right = socket.socketpair()
        with left, right, PreciseEpollSelector() as selector:
            key = selector.register(left, selectors.EVENT_READ)
            assert selector.select(0.0002) == []
            right.send(b"x")
            assert selector.select(0.5) == [(key, selectors.EVENT_READ)]

    def test_descriptor_past_the_select_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(clock_module, "_SELECT_FD_LIMIT", 0)
        with pytest.raises(MeshError, match="select"):
            PreciseEpollSelector()

    def test_sub_ms_sleeps_wake_on_time(self):
        # The stock epoll loop rounds every wait up to a whole
        # millisecond: 0.2 ms sleeps wake ~1 ms late at the median.
        async def probe():
            lateness = []
            for _ in range(200):
                start = time.perf_counter()
                await asyncio.sleep(0.0002)
                lateness.append(time.perf_counter() - start - 0.0002)
            return statistics.median(lateness)

        with asyncio.Runner(loop_factory=precise_event_loop) as runner:
            assert runner.run(probe()) < 0.0005
