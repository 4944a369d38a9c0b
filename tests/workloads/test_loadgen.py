"""Tests for the open-loop load generator."""

import pytest

from repro.errors import ConfigError
from repro.mesh.request import RequestRecord
from repro.workloads.loadgen import OpenLoopLoadGenerator
from repro.workloads.profiles import PiecewiseSeries


class SlowTarget:
    """A dispatch target with a fixed response time."""

    def __init__(self, sim, response_time_s):
        self.sim = sim
        self.response_time_s = response_time_s
        self.dispatched = 0

    def dispatch(self, intended_start_s, done):
        self.dispatched += 1
        self.sim.call_after(
            self.response_time_s, self._respond, self.dispatched,
            intended_start_s, self.sim.now, done)

    def _respond(self, request_id, intended_start_s, start, done):
        done(RequestRecord(
            request_id=request_id, service="svc",
            source_cluster="c1", backend="svc/c1",
            intended_start_s=intended_start_s, start_s=start,
            end_s=self.sim.now, success=True))


class TestValidation:
    def test_invalid_arrival(self, sim, rng):
        with pytest.raises(ConfigError):
            OpenLoopLoadGenerator(
                SlowTarget(sim, 0.01), 10.0, rng, [], arrival="chaotic")

    def test_invalid_rps_type(self, sim, rng):
        with pytest.raises(ConfigError):
            OpenLoopLoadGenerator(SlowTarget(sim, 0.01), "fast", rng, [])

    def test_invalid_duration(self, sim, rng):
        generator = OpenLoopLoadGenerator(
            SlowTarget(sim, 0.01), 10.0, rng, [])
        with pytest.raises(ConfigError):
            generator.start(sim, 0.0)


class TestUniformArrivals:
    def test_constant_rate_spacing(self, sim, rng):
        records = []
        target = SlowTarget(sim, 0.001)
        generator = OpenLoopLoadGenerator(
            target, 10.0, rng, records, arrival="uniform")
        generator.start(sim, 2.0)
        sim.run()
        # 10 RPS for 2 s -> 19 requests (the one at t=2.0 is excluded).
        assert generator.generated == 19
        starts = sorted(r.start_s for r in records)
        gaps = {round(b - a, 9) for a, b in zip(starts, starts[1:])}
        assert gaps == {0.1}

    def test_open_loop_is_not_blocked_by_slow_target(self, sim, rng):
        records = []
        target = SlowTarget(sim, 10.0)  # responses far slower than gaps
        generator = OpenLoopLoadGenerator(
            target, 10.0, rng, records, arrival="uniform")
        generator.start(sim, 1.0)
        sim.run(until=1.0)
        # The schedule kept pace (10 RPS x 1 s, +/-1 for FP edge effects).
        assert generator.generated in (9, 10)
        assert not records  # nothing finished yet
        sim.run()
        assert len(records) == generator.generated

    def test_latency_measured_from_intended_start(self, sim, rng):
        records = []
        generator = OpenLoopLoadGenerator(
            SlowTarget(sim, 0.5), 10.0, rng, records, arrival="uniform")
        generator.start(sim, 0.5)
        sim.run()
        for record in records:
            assert record.latency_s == pytest.approx(0.5)
            assert record.intended_start_s == record.start_s


class TestPoissonArrivals:
    def test_mean_rate_approximates_target(self, sim, rng):
        records = []
        generator = OpenLoopLoadGenerator(
            SlowTarget(sim, 0.0001), 100.0, rng, records, arrival="poisson")
        generator.start(sim, 30.0)
        sim.run()
        rate = generator.generated / 30.0
        assert 85.0 < rate < 115.0

    def test_gaps_are_irregular(self, sim, rng):
        records = []
        generator = OpenLoopLoadGenerator(
            SlowTarget(sim, 0.0001), 50.0, rng, records, arrival="poisson")
        generator.start(sim, 5.0)
        sim.run()
        starts = sorted(r.start_s for r in records)
        gaps = {round(b - a, 6) for a, b in zip(starts, starts[1:])}
        assert len(gaps) > 10


class TestTimeVaryingRate:
    def test_rate_follows_series(self, sim, rng):
        records = []
        rps = PiecewiseSeries([(0.0, 10.0), (10.0, 10.0), (10.001, 100.0),
                               (20.0, 100.0)])
        generator = OpenLoopLoadGenerator(
            SlowTarget(sim, 0.0001), rps, rng, records, arrival="uniform")
        generator.start(sim, 20.0)
        sim.run()
        early = sum(1 for r in records if r.start_s < 10.0)
        late = sum(1 for r in records if r.start_s >= 10.0)
        assert 95 <= early + late <= 1105
        assert late > early * 5
