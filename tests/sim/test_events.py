"""Tests for event primitives: Event, Timeout."""

import pytest

from repro.errors import SimulationError


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed("payload")
        sim.run()
        assert event.processed
        assert event.value == "payload"

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_double_succeed_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_succeed_after_fail_raises(self, sim):
        event = sim.event()
        event.fail(RuntimeError("x"))
        event.defused = True
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_failed_event_value_raises_original(self, sim):
        event = sim.event()
        event.fail(KeyError("missing"))
        event.defused = True
        sim.run()
        with pytest.raises(KeyError):
            event.value

    def test_delayed_succeed(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(sim.now))
        event.succeed(delay=4.0)
        sim.run()
        assert seen == [4.0]

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event().succeed("v")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_ok_reflects_outcome(self, sim):
        good = sim.event().succeed()
        bad = sim.event()
        bad.fail(RuntimeError("x"))
        bad.defused = True
        sim.run()
        assert good.ok and not bad.ok


class TestTimeout:
    def test_fires_after_delay(self, sim):
        fired = []
        timeout = sim.timeout(2.0, value="done")
        timeout.add_callback(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(2.0, "done")]

    def test_zero_delay_fires_at_now(self, sim):
        sim.run(until=5.0)
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)
