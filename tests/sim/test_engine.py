"""Tests for the simulation event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.5).now == 42.5

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_agenda_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_event_time(self, sim):
        sim.call_after(3.0, lambda: None)
        sim.call_after(1.0, lambda: None)
        assert sim.peek() == 1.0


class TestCallbacks:
    def test_call_after_runs_at_right_time(self, sim):
        fired = []
        sim.call_after(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_call_at_runs_at_absolute_time(self, sim):
        fired = []
        sim.call_at(7.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 7.0

    def test_call_at_in_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_callbacks_fire_in_time_order(self, sim):
        order = []
        sim.call_after(3.0, order.append, "c")
        sim.call_after(1.0, order.append, "a")
        sim.call_after(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        sim.call_after(1.0, order.append, 1)
        sim.call_after(1.0, order.append, 2)
        sim.call_after(1.0, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_callback_can_schedule_more_work(self, sim):
        log = []

        def first():
            log.append(("first", sim.now))
            sim.call_after(1.0, second)

        def second():
            log.append(("second", sim.now))

        sim.call_after(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 2.0)]


class TestRun:
    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        sim.call_after(1.0, fired.append, "early")
        sim.call_after(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_boundary_event_is_processed(self, sim):
        fired = []
        sim.call_after(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_step_on_empty_agenda_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_returns_final_time(self, sim):
        sim.call_after(3.0, lambda: None)
        assert sim.run() == 3.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-1.0, lambda: None)

