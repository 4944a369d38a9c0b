"""Tests for the Server resource."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Server
from tests.conftest import occupy


def hold(sim, server, hold_s, log, tag):
    occupy(sim, server, hold_s, lambda: log.append((sim.now, tag)))


class TestServer:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Server(sim, 0)

    def test_serves_up_to_capacity_concurrently(self, sim):
        server = Server(sim, 2)
        log = []
        for i in range(2):
            hold(sim, server, 1.0, log, i)
        sim.run()
        assert [t for t, _ in log] == [1.0, 1.0]

    def test_excess_requests_queue_fifo(self, sim):
        server = Server(sim, 1)
        log = []
        for i in range(3):
            hold(sim, server, 1.0, log, i)
        sim.run()
        assert log == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_in_use_and_queue_len_track_state(self, sim):
        server = Server(sim, 1)
        for i in range(3):
            hold(sim, server, 1.0, [], i)
        sim.run(until=0.5)
        assert server.in_use == 1
        assert server.queue_len == 2
        sim.run()
        assert server.in_use == 0
        assert server.queue_len == 0

    def test_release_without_acquire_raises(self, sim):
        server = Server(sim, 1)
        with pytest.raises(SimulationError):
            server.release()

    def test_release_hands_slot_to_waiter_without_gap(self, sim):
        server = Server(sim, 1)
        log = []
        hold(sim, server, 2.0, log, "first")
        hold(sim, server, 1.0, log, "second")
        sim.run()
        assert log == [(2.0, "first"), (3.0, "second")]
