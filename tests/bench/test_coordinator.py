"""Tests for the benchmark coordinator (short runs)."""

import gc
import sys
import weakref

import pytest

from repro.bench import coordinator
from repro.bench.coordinator import (
    BenchmarkResult,
    ScenarioBenchConfig,
    run_hotel_benchmark,
    run_scenario_benchmark,
)
from repro.errors import ConfigError
from repro.mesh.ejection import OutlierEjectionConfig
from repro.sim.engine import Simulator

# Short but non-trivial runs keep this module fast (~ a few seconds).
DURATION_S = 30.0
ENV = ScenarioBenchConfig(warmup_s=10.0, drain_s=10.0)


# ScenarioBenchConfig fields call-graph proxies do not take, each with a
# non-default value.
UNWIRED_PROXY_KNOBS = {
    "max_retries": 2,
    "retry_backoff_s": 0.05,
    "request_timeout_s": 1.0,
    "outlier_ejection": OutlierEjectionConfig(),
}


@pytest.fixture(scope="module")
def rr_result():
    return run_scenario_benchmark(
        "scenario-1", "round-robin", duration_s=DURATION_S, seed=11, env=ENV)


class TestScenarioBenchmark:
    def test_produces_records(self, rr_result):
        assert rr_result.request_count > 100
        assert rr_result.scenario == "scenario-1"
        assert rr_result.algorithm == "round-robin"

    def test_latency_metrics_available(self, rr_result):
        assert 0 < rr_result.p50_ms < rr_result.p90_ms <= rr_result.p99_ms

    def test_success_rate_for_healthy_scenario(self, rr_result):
        assert rr_result.success_rate == 1.0

    def test_warmup_excluded(self, rr_result):
        assert all(
            r.intended_start_s >= ENV.warmup_s for r in rr_result.records)

    def test_deterministic_same_seed(self):
        a = run_scenario_benchmark(
            "scenario-2", "l3", duration_s=20.0, seed=5, env=ENV)
        b = run_scenario_benchmark(
            "scenario-2", "l3", duration_s=20.0, seed=5, env=ENV)
        assert a.request_count == b.request_count
        assert a.p99_ms == b.p99_ms
        assert a.controller_weights == b.controller_weights

    def test_different_seed_differs(self):
        a = run_scenario_benchmark(
            "scenario-2", "l3", duration_s=20.0, seed=5, env=ENV)
        b = run_scenario_benchmark(
            "scenario-2", "l3", duration_s=20.0, seed=6, env=ENV)
        assert a.p99_ms != b.p99_ms

    def test_l3_exposes_controller_weights(self):
        result = run_scenario_benchmark(
            "scenario-1", "l3", duration_s=20.0, seed=5, env=ENV)
        assert set(result.controller_weights) == {
            "api/cluster-1", "api/cluster-2", "api/cluster-3"}

    def test_round_robin_has_no_controller_weights(self, rr_result):
        assert rr_result.controller_weights == {}

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario_benchmark(
                "scenario-1", "psychic", duration_s=10.0, env=ENV)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario_benchmark(
                "scenario-42", "l3", duration_s=10.0, env=ENV)

    def test_vector_alias_runs_the_fast_engine_without_numpy(
            self, rr_result, monkeypatch):
        # The one test of the alias the ledger's fleet-vector cell pins;
        # it goes when the alias does.
        monkeypatch.setitem(sys.modules, "numpy", None)
        aliased = run_scenario_benchmark(
            "scenario-1", "round-robin", duration_s=DURATION_S, seed=11,
            env=ENV, engine="vector")
        assert aliased.records == rr_result.records
        assert aliased.events_processed == rr_result.events_processed

    def test_process_engine_is_gone(self):
        with pytest.raises(ConfigError, match="engine"):
            run_scenario_benchmark(
                "scenario-1", "l3", duration_s=10.0, env=ENV,
                engine="process")

    def test_finished_world_is_collected(self, monkeypatch):
        # A world is one reference cycle; with the cyclic collector idle
        # only the coordinator's own collect can free it.
        alive_at_build = []
        worlds = []

        class TrackedSimulator(Simulator):
            __slots__ = ("__weakref__",)

            def __init__(self):
                alive_at_build.append(
                    sum(ref() is not None for ref in worlds))
                super().__init__()
                worlds.append(weakref.ref(self))

        monkeypatch.setattr(coordinator, "Simulator", TrackedSimulator)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                run_scenario_benchmark(
                    "scenario-1", "round-robin", duration_s=2.0, env=ENV)
        finally:
            gc.enable()
        assert alive_at_build == [0, 0, 0]

    def test_env_validation(self):
        with pytest.raises(ConfigError):
            ScenarioBenchConfig(replicas=0)
        with pytest.raises(ConfigError):
            ScenarioBenchConfig(warmup_s=-1.0)

    def test_round_robin_spreads_traffic_evenly(self, rr_result):
        from collections import Counter

        counts = Counter(r.backend for r in rr_result.records)
        values = sorted(counts.values())
        assert values[-1] - values[0] <= 2


class TestHotelBenchmark:
    def test_end_to_end(self):
        result = run_hotel_benchmark(
            "round-robin", rps=50.0, duration_s=30.0, seed=7, env=ENV)
        assert result.scenario == "hotel-reservation"
        assert result.request_count > 500
        assert result.success_rate == 1.0
        assert result.p99_ms > result.p50_ms > 0

    def test_deterministic(self):
        a = run_hotel_benchmark(
            "l3", rps=30.0, duration_s=20.0, seed=7, env=ENV)
        b = run_hotel_benchmark(
            "l3", rps=30.0, duration_s=20.0, seed=7, env=ENV)
        assert a.p99_ms == b.p99_ms

    def test_env_arrival_reaches_the_load_generator(self):
        def gaps(arrival):
            env = ScenarioBenchConfig(warmup_s=2.0, drain_s=5.0,
                                      arrival=arrival)
            result = run_hotel_benchmark(
                "round-robin", rps=50.0, duration_s=4.0, seed=7, env=env)
            starts = sorted(r.intended_start_s for r in result.records)
            return {round(b - a, 9) for a, b in zip(starts, starts[1:])}

        assert gaps("uniform") == {0.02}
        assert len(gaps("poisson")) > 50

    @pytest.mark.parametrize("knob", UNWIRED_PROXY_KNOBS)
    def test_unwired_knob_rejected(self, knob):
        env = ScenarioBenchConfig(
            warmup_s=2.0, **{knob: UNWIRED_PROXY_KNOBS[knob]})
        with pytest.raises(ConfigError, match=knob):
            run_hotel_benchmark("l3", rps=10.0, duration_s=2.0, env=env)


class TestBenchmarkResult:
    def test_empty_records_raise_on_percentile(self):
        result = BenchmarkResult(
            scenario="s", algorithm="a", seed=0, duration_s=1.0, records=[])
        with pytest.raises(ValueError):
            result.p99_ms

    def test_empty_records_success_rate_is_one(self):
        result = BenchmarkResult(
            scenario="s", algorithm="a", seed=0, duration_s=1.0, records=[])
        assert result.success_rate == 1.0
