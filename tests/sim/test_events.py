"""Tests for the agenda entry: an unscheduled gate fired via succeed()."""

import pytest

from repro.errors import SimulationError


class TestEvent:
    def test_starts_pending(self, sim):
        assert not sim.pool.gate(lambda: None).triggered

    def test_double_succeed_raises(self, sim):
        event = sim.pool.gate(lambda: None).succeed()
        assert event.triggered
        with pytest.raises(SimulationError):
            event.succeed()

    def test_delayed_succeed(self, sim):
        seen = []
        sim.pool.gate(lambda: seen.append(sim.now)).succeed(delay=4.0)
        sim.run()
        assert seen == [4.0]
