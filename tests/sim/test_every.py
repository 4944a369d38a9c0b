"""``Simulator.every``: the one periodic primitive the control loops run on."""

import math

import pytest

from repro.errors import SimulationError


class TestCadence:
    def test_ticks_at_multiples_of_the_interval_with_the_clock(self, sim):
        seen = []
        sim.every(2.5, lambda now: seen.append((now, sim.now)))
        sim.run(until=10.0)
        assert seen == [(2.5, 2.5), (5.0, 5.0), (7.5, 7.5), (10.0, 10.0)]

    def test_first_tick_is_one_interval_after_a_late_start(self, sim):
        seen = []
        sim.run(until=3.0)
        sim.every(5.0, seen.append)
        sim.run(until=14.0)
        assert seen == [8.0, 13.0]


class TestTieOrder:
    def test_equal_intervals_tick_in_start_order_at_every_instant(self, sim):
        order = []
        sim.every(1.0, lambda now: order.append(("a", now)))
        sim.every(1.0, lambda now: order.append(("b", now)))
        sim.run(until=3.0)
        assert order == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0),
                         ("a", 3.0), ("b", 3.0)]

    def test_work_a_tick_schedules_precedes_its_own_next_tick(self, sim):
        """The next tick is enqueued after ``tick`` returns, so a push the
        tick scheduled one interval out (a weight propagation equal to the
        reconcile interval) lands before the following tick reads it."""
        order = []

        def tick(now):
            order.append(("tick", now))
            sim.call_after(1.0, order.append, ("push", now + 1.0))

        sim.every(1.0, tick)
        sim.run(until=2.0)
        assert order == [("tick", 1.0), ("push", 2.0), ("tick", 2.0)]


class TestCancel:
    def test_cancel_before_the_first_tick(self, sim):
        seen = []
        loop = sim.every(1.0, seen.append)
        loop.cancel()
        sim.run()
        assert seen == []
        assert sim.events_processed == 1  # the one dead agenda entry

    def test_cancel_from_inside_the_own_tick_leaves_no_entry(self, sim):
        seen = []

        def tick(now):
            seen.append(now)
            if now == 2.0:
                loop.cancel()

        loop = sim.every(1.0, tick)
        sim.run()
        assert seen == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.events_processed == 2

    def test_cancel_twice_is_a_no_op(self, sim):
        seen = []
        loop = sim.every(1.0, seen.append)
        sim.run(until=1.5)
        loop.cancel()
        loop.cancel()
        sim.run()
        assert seen == [1.0]
        assert sim.now == 2.0
        assert sim.events_processed == 2  # one tick + one dead entry


class TestRaisingTick:
    def test_run_aborts_with_the_ticks_own_exception(self, sim):
        seen = []

        def tick(now):
            seen.append(now)
            if now == 2.0:
                raise ValueError("boom")

        sim.every(1.0, tick)
        sim.call_at(3.0, seen.append, "after")
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=10.0)
        assert seen == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.events_processed == 2
        # The failed loop is over; the rest of the agenda is intact.
        sim.run(until=10.0)
        assert seen == [1.0, 2.0, "after"]
        assert sim.events_processed == 3


class TestInterval:
    @pytest.mark.parametrize(
        "interval_s", [0, 0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_non_positive_or_non_finite_interval_rejected(self, sim,
                                                          interval_s):
        with pytest.raises(SimulationError):
            sim.every(interval_s, lambda now: None)
        assert sim.peek() == math.inf
