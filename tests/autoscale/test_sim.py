"""Autoscaling wired through the benchmark coordinator: determinism,
engine guards, and the elasticity study cells on a short surge."""

import dataclasses

import pytest

from repro.bench.coordinator import run_scenario_benchmark
from repro.bench.experiments import elasticity_trial
from repro.bench.study import (
    count_replica_flaps,
    count_weight_flaps,
    run_grid,
)
from repro.errors import ConfigError
from repro.sim.shard import run_sharded_benchmark
from repro.workloads.scenarios import build_scenario

SHORT = 90.0


class TestSurgeRun:
    @pytest.fixture(scope="class")
    def cell(self):
        trial = elasticity_trial("surge", "elastic-surge", "autoscale",
                                 duration_s=SHORT)
        [row] = run_grid([trial], seeds=(3,))["surge"]
        return row

    def test_scaler_fires_and_stays_in_bounds(self, cell):
        assert cell["scale_events"] > 0
        policies = build_scenario("elastic-surge", SHORT).autoscale
        bounds = {f"api/{c}": p for c, p in policies.items()}
        assert set(cell["final_replicas"]) == set(bounds)
        for backend, count in cell["final_replicas"].items():
            policy = bounds[backend]
            assert policy.min_replicas <= count <= policy.max_replicas

    def test_cost_integral_is_populated(self, cell):
        # 6 replicas exist at minimum across the whole accounted span.
        assert cell["replica_seconds"] > 0
        assert cell["requests"] > 0
        assert 0.0 < cell["success_rate"] <= 1.0

    def test_result_carries_event_log_and_weight_samples(self):
        scenario = build_scenario("elastic-surge", SHORT)
        result = run_scenario_benchmark(scenario, "l3", duration_s=SHORT,
                                        seed=3)
        assert result.autoscale_events
        for when, backend, delta, after in result.autoscale_events:
            assert delta in (-1, +1)
            assert after >= 1
            assert backend in result.replica_seconds
        assert result.autoscale_events == sorted(result.autoscale_events)
        assert result.weight_samples
        assert result.total_replica_seconds == pytest.approx(
            sum(result.replica_seconds.values()))

    def test_autoscale_off_leaves_result_fields_empty(self):
        scenario = dataclasses.replace(
            build_scenario("elastic-surge", 30.0), autoscale=None)
        result = run_scenario_benchmark(scenario, "round-robin",
                                        duration_s=30.0, seed=3)
        assert result.autoscale_events == []
        assert result.replica_seconds == {}
        assert result.weight_samples == []
        assert result.final_replicas == {}


class TestJobsDeterminism:
    def test_outcomes_identical_across_worker_counts(self):
        trials = [elasticity_trial(mode, "elastic-surge", mode,
                                   duration_s=60.0)
                  for mode in ("autoscale", "fixed-min")]
        serial = run_grid(trials, seeds=(3,), jobs=1)
        forked = run_grid(trials, seeds=(3,), jobs=2)
        assert serial == forked


class TestEngineGuards:
    def test_shard_engine_rejects_autoscaling_scenarios(self):
        scenario = build_scenario("elastic-surge", 60.0)
        with pytest.raises(ConfigError, match="fixed replica sets"):
            run_sharded_benchmark(scenario, "l3", duration_s=60.0)


class TestInteractionMetrics:
    def test_replica_flaps_count_direction_reversals(self):
        events = [(10.0, "a", +1, 2), (20.0, "a", +1, 3),
                  (50.0, "a", -1, 2), (60.0, "b", -1, 1),
                  (70.0, "a", +1, 3)]
        # a: up->down->up = 2 reversals; b: single move = 0.
        assert count_replica_flaps(events) == 2
        assert count_replica_flaps([]) == 0

    def test_weight_flaps_ignore_jitter_inside_dead_band(self):
        steady = [(t, {"a": 0.50 + 0.001 * (t % 2)}) for t in range(10)]
        assert count_weight_flaps(steady) == 0
        flappy = [(0.0, {"a": 0.50}), (1.0, {"a": 0.80}),
                  (2.0, {"a": 0.40}), (3.0, {"a": 0.70})]
        assert count_weight_flaps(flappy) == 2
