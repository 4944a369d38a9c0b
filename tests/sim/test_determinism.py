"""Determinism and stress tests for the simulation kernel."""

from repro.sim.engine import Simulator
from repro.sim.resources import Server
from repro.sim.rng import RngRegistry
from tests.sim._slot import slot


def chaotic_workload(seed):
    """A moderately large random workload; returns a fingerprint."""
    sim = Simulator()
    registry = RngRegistry(seed)
    rng = registry.stream("chaos")
    server = Server(sim, 4)
    log = []

    def job(sim, i):
        yield sim.timeout(rng.random() * 2.0)
        yield slot(sim, server)
        try:
            yield sim.timeout(rng.random() * 0.5)
            log.append((round(sim.now, 9), i))
        finally:
            server.release()

    def spawner(sim):
        for i in range(300):
            sim.spawn(job(sim, i))
            yield sim.timeout(rng.random() * 0.05)

    sim.spawn(spawner(sim))
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

        def worker(sim, i):
            for _ in range(10):
                yield sim.timeout(0.1)
            done.append(i)

        for i in range(2000):
            sim.spawn(worker(sim, i))
        sim.run()
        assert len(done) == 2000
        assert abs(sim.now - 1.0) < 1e-9  # 10 x 0.1 accumulates FP error

    def test_deep_process_chain(self):
        sim = Simulator()

        def nested(sim, depth):
            if depth == 0:
                yield sim.timeout(0.001)
                return 0
            result = yield sim.spawn(nested(sim, depth - 1))
            return result + 1

        process = sim.spawn(nested(sim, 200))
        sim.run()
        assert process.value == 200

    def test_interleaved_events_and_processes(self):
        sim = Simulator()
        order = []

        def process(sim):
            yield sim.timeout(1.0)
            order.append("process")

        sim.call_after(1.0, order.append, "callback-first")
        sim.spawn(process(sim))
        sim.call_after(1.0, order.append, "callback-second")
        sim.run()
        assert len(order) == 3
        # Deterministic tie order at equal time = enqueue order. The
        # process's timeout is enqueued when its generator first runs
        # (bootstrap at t=0), i.e. *after* both callbacks registered.
        assert order == ["callback-first", "callback-second", "process"]
