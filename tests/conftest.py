"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

LIVE_TESTS = pathlib.Path(__file__).parent / "live"


def pytest_collection_modifyitems(items) -> None:
    """Run the real-socket smokes of ``tests/live`` after everything else.

    They assert on wall-clock behaviour; interleaved with CPU-heavy
    simulation tests they compete for the host and flake. The sort is
    stable, so order within each group is the collection order.
    """
    items.sort(key=lambda item: LIVE_TESTS in item.path.parents)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng_registry() -> RngRegistry:
    return RngRegistry(seed=1234)


@pytest.fixture
def rng(rng_registry):
    return rng_registry.stream("test")


def occupy(sim, server, hold_s, done, started=None):
    """Take a slot of ``server`` (queueing if none is free), hold it for
    ``hold_s`` seconds, call ``done()``, then release it.

    The way the request state machines use a :class:`Server`:
    ``try_acquire`` or park a pooled gate that fires once a slot is held.
    """

    def finish():
        done()
        server.release()

    def start():
        if started is not None:
            started()
        sim.pool.schedule(hold_s, finish)

    if server.try_acquire():
        start()
    else:
        server.enqueue_waiter(sim.pool.gate(start))
