"""The pooled-event free list: reuse, state hygiene, and the bound.

These pin the reuse contract documented on
:class:`repro.sim.events.Event`: a recycled event must be
indistinguishable from a fresh one (no stale function or trigger flag
leaking into the next occupant), chains of hops must reuse one object
end to end, and the free list must never grow past ``max_free``.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventPool


class TestReuse:
    def test_schedule_fires_fn(self, sim):
        pool = EventPool(sim)
        fired = []
        pool.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_chain_reuses_one_object(self, sim):
        """A hop chain recycles-before-fire, so each hop's schedule() pops
        the very object that just fired."""
        pool = EventPool(sim)
        seen = []

        def hop(remaining):
            if remaining:
                event = pool.schedule(0.5, lambda: hop(remaining - 1))
                seen.append(id(event))

        hop(5)
        sim.run()
        assert len(set(seen)) == 1
        assert pool.created == 1
        assert pool.reused == 4

    def test_counters_track_acquisitions(self, sim):
        pool = EventPool(sim)
        pool.schedule(0.0, lambda: None)
        pool.schedule(0.0, lambda: None)  # first is still on the agenda
        assert pool.created == 2
        sim.run()
        pool.schedule(0.0, lambda: None)
        assert pool.created == 2
        assert pool.reused == 1

    def test_gate_event_fired_via_succeed(self, sim):
        pool = EventPool(sim)
        fired = []
        gate = pool.gate(lambda: fired.append(sim.now))
        sim.call_after(2.0, gate.succeed)
        sim.run()
        assert fired == [2.0]
        # The gate recycled itself on firing and is reusable.
        assert pool.gate(lambda: None) is gate

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            EventPool(sim).schedule(-0.1, lambda: None)


class TestNoStaleState:
    def test_recycled_event_is_pristine(self, sim):
        pool = EventPool(sim)
        event = pool.schedule(1.0, lambda: None)
        sim.run()
        assert len(pool) == 1
        assert event.fn is None
        assert not event.triggered

    def test_next_occupant_sees_only_its_own_fn(self, sim):
        pool = EventPool(sim)
        calls = []
        pool.schedule(1.0, lambda: calls.append("first"))
        sim.run()
        pool.schedule(1.0, lambda: calls.append("second"))
        sim.run()
        assert calls == ["first", "second"]

    def test_recycled_event_can_succeed_again(self, sim):
        """succeed() checks the trigger sentinel; recycling must reset it
        or reuse would raise 'event already triggered'."""
        pool = EventPool(sim)
        fired = []
        first = pool.gate(lambda: fired.append("a"))
        first.succeed()
        sim.run()
        second = pool.gate(lambda: fired.append("b"))
        assert second is first
        second.succeed()
        sim.run()
        assert fired == ["a", "b"]


class TestBound:
    def test_free_list_never_exceeds_max_free(self, sim):
        pool = EventPool(sim, max_free=2)
        for _ in range(6):
            pool.schedule(0.0, lambda: None)
        sim.run()
        assert len(pool) <= 2

    def test_zero_bound_pool_always_allocates(self, sim):
        pool = EventPool(sim, max_free=0)
        for _ in range(3):
            pool.schedule(0.0, lambda: None)
            sim.run()
        assert len(pool) == 0
        assert pool.created == 3
        assert pool.reused == 0

    def test_negative_bound_rejected(self, sim):
        with pytest.raises(SimulationError):
            EventPool(sim, max_free=-1)
