"""Determinism and stress tests for the simulation kernel."""

from functools import partial

from repro.sim.engine import Simulator
from repro.sim.resources import Server
from repro.sim.rng import RngRegistry
from tests.conftest import occupy


def chaotic_workload(seed):
    """A moderately large random workload; returns a fingerprint."""
    sim = Simulator()
    registry = RngRegistry(seed)
    rng = registry.stream("chaos")
    server = Server(sim, 4)
    log = []

    def job(i):
        occupy(sim, server, rng.random() * 0.5,
               lambda: log.append((round(sim.now, 9), i)))

    def spawner(i):
        sim.call_after(rng.random() * 2.0, job, i)
        if i + 1 < 300:
            sim.call_after(rng.random() * 0.05, spawner, i + 1)

    spawner(0)
    sim.run()
    return sim.now, tuple(log)


class TestDeterminism:
    def test_identical_seeds_identical_history(self):
        assert chaotic_workload(7) == chaotic_workload(7)

    def test_different_seeds_differ(self):
        assert chaotic_workload(7) != chaotic_workload(8)

    def test_all_jobs_complete(self):
        _final, log = chaotic_workload(3)
        assert len(log) == 300
        assert sorted(i for _t, i in log) == list(range(300))


class TestStress:
    def test_many_concurrent_processes(self):
        sim = Simulator()
        done = []
        ticks = [0] * 2000
        loops = []

        def worker(i, _now):
            ticks[i] += 1
            if ticks[i] == 10:
                loops[i].cancel()
                done.append(i)

        for i in range(2000):
            loops.append(sim.every(0.1, partial(worker, i)))
        sim.run()
        assert len(done) == 2000
        assert abs(sim.now - 1.0) < 1e-9  # 10 x 0.1 accumulates FP error

    def test_deep_process_chain(self):
        """A 200-deep chain of gates, each fired from the callback of the
        one before it: wake-ups go through the agenda, not the stack."""
        sim = Simulator()
        fired = []

        def link(depth, inner):
            fired.append(depth)
            if inner is not None:
                inner.succeed()

        gate = None
        for depth in range(201):
            gate = sim.pool.gate(partial(link, depth, gate))
        gate.succeed(delay=0.001)
        sim.run()
        assert fired == list(range(200, -1, -1))
        assert sim.now == 0.001

    def test_interleaved_events_and_processes(self):
        sim = Simulator()
        order = []

        sim.call_at(1.0, order.append, "callback-first")
        sim.every(1.0, lambda now: order.append("loop-a"))
        sim.every(1.0, lambda now: order.append("loop-b"))
        sim.run(until=1.0)
        # Deterministic tie order at equal time = enqueue order.
        assert order == ["callback-first", "loop-a", "loop-b"]
        # A one-off registered before the instant still precedes both
        # loops, whose next ticks were enqueued at t=1 in A-then-B order
        # — the ordering the pinned digests rest on.
        sim.call_at(3.0, order.append, "callback-second")
        del order[:]
        sim.run(until=3.0)
        assert order == ["loop-a", "loop-b",
                         "callback-second", "loop-a", "loop-b"]
