"""The sharded bulk engine: shard-count invariance and scope guards.

The shard engine's only determinism contract is with itself: a fixed
``(scenario, seed)`` must produce byte-identical results for every
``jobs`` value, because every random draw is keyed to the entity that
consumes it, never to scheduling order. CI runs the jobs=1 vs jobs=2
comparison on every push (the ``fleet-smoke`` job); these tests run it
in-process, plus the up-front ConfigError guards that keep the engine
from silently diverging on inputs outside its scope, and the lazy numpy
gate (the ``[fleet]`` extra) the engine sits behind.
"""

from __future__ import annotations

import dataclasses
import pathlib
import subprocess
import sys

import pytest

from repro.bench.digest import digest_result
from repro.errors import ConfigError
from repro.faults.faults import ClusterOutage
from repro.sim.shard import SHARD_ALGORITHMS, run_sharded_benchmark
from repro.sim.vectorpath import HAVE_NUMPY, require_numpy
from repro.workloads.fleet import FleetSpec, build_fleet_scenario
from repro.workloads.scenarios import build_scenario

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed ([fleet] extra)")

# A small fleet cell: big enough that clusters land on distinct shards
# with interleaved barrier merges, small enough for test-suite runtime.
_SPEC = FleetSpec(clusters=12, duration_s=60.0, total_rps=120.0,
                  replica_budget_per_cluster=2)
_SEED = 3
_DURATION = 20.0


@pytest.fixture(scope="module")
def fleet_scenario():
    return build_fleet_scenario(_SPEC, seed=_SEED)


@pytest.fixture(scope="module")
def jobs1_result(fleet_scenario):
    return run_sharded_benchmark(
        fleet_scenario, "l3", duration_s=_DURATION, seed=_SEED, jobs=1)


@requires_numpy
class TestShardInvariance:
    @pytest.mark.parametrize("jobs", [2, 5])
    def test_jobs_do_not_change_the_bytes(self, fleet_scenario,
                                          jobs1_result, jobs):
        sharded = run_sharded_benchmark(
            fleet_scenario, "l3", duration_s=_DURATION, seed=_SEED,
            jobs=jobs)
        assert digest_result(sharded) == digest_result(jobs1_result)

    def test_poisson_arrivals_are_also_invariant(self, fleet_scenario):
        from repro.bench.coordinator import ScenarioBenchConfig

        env = ScenarioBenchConfig(arrival="poisson")
        runs = [
            run_sharded_benchmark(
                fleet_scenario, "l3-peak", duration_s=_DURATION,
                seed=_SEED, env=env, jobs=jobs)
            for jobs in (1, 3)
        ]
        assert digest_result(runs[0]) == digest_result(runs[1])

    def test_result_shape(self, jobs1_result):
        result = jobs1_result
        assert result.records, "a loaded fleet cell must serve requests"
        keys = [(r.end_s, r.request_id) for r in result.records]
        assert keys == sorted(keys), "records sorted by completion"
        assert result.controller_weights, "the controller reconciled"
        assert set(result.controller_weights) == {
            f"api/cluster-{i}" for i in range(1, _SPEC.clusters + 1)}
        # No retries/deadlines/faults in scope: every request succeeds
        # unless the profile itself fails it (this fleet's don't).
        assert result.success_rate == 1.0
        assert result.events_processed == 0

    def test_seed_changes_the_bytes(self, fleet_scenario, jobs1_result):
        other = run_sharded_benchmark(
            fleet_scenario, "l3", duration_s=_DURATION, seed=_SEED + 1,
            jobs=1)
        assert digest_result(other) != digest_result(jobs1_result)


@requires_numpy
class TestScopeGuards:
    """Anything the bulk model cannot reproduce is rejected up front."""

    def test_algorithm_outside_scope(self, fleet_scenario):
        assert "round-robin" not in SHARD_ALGORITHMS
        with pytest.raises(ConfigError, match="shard engine"):
            run_sharded_benchmark(fleet_scenario, "round-robin",
                                  duration_s=5.0)

    def test_topology_free_scenario(self):
        with pytest.raises(ConfigError, match="FleetTopology"):
            run_sharded_benchmark(build_scenario("scenario-1"), "l3",
                                  duration_s=5.0)

    def test_fault_schedule(self, fleet_scenario):
        faulty = dataclasses.replace(
            fleet_scenario,
            faults=(ClusterOutage(cluster="cluster-2", at_s=5.0,
                                  duration_s=5.0),))
        with pytest.raises(ConfigError, match="fault"):
            run_sharded_benchmark(faulty, "l3", duration_s=5.0)

    def test_resilience_knobs(self, fleet_scenario):
        from repro.bench.coordinator import ScenarioBenchConfig

        for env in (ScenarioBenchConfig(max_retries=1),
                    ScenarioBenchConfig(request_timeout_s=0.05)):
            with pytest.raises(ConfigError, match="retries"):
                run_sharded_benchmark(fleet_scenario, "l3",
                                      duration_s=5.0, env=env)

    def test_jobs_must_be_positive(self, fleet_scenario):
        with pytest.raises(ConfigError, match="jobs"):
            run_sharded_benchmark(fleet_scenario, "l3", duration_s=5.0,
                                  jobs=0)

    def test_reconcile_must_align_with_epochs(self, fleet_scenario):
        from repro.core.config import L3Config

        config = L3Config(reconcile_interval_s=7.0)  # not a multiple of 5
        with pytest.raises(ConfigError, match="multiple"):
            run_sharded_benchmark(fleet_scenario, "l3", duration_s=5.0,
                                  l3_config=config)


class TestNumpyGate:
    """numpy loads when a sharded run asks for it, and never before."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        # A None entry makes ``import numpy`` raise ImportError.
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_require_numpy_names_the_extra(self, no_numpy):
        with pytest.raises(ConfigError, match=r"\[fleet\]"):
            require_numpy()

    def test_shard_engine_refuses(self, no_numpy):
        scenario = build_fleet_scenario(
            FleetSpec(clusters=3, duration_s=30.0, total_rps=30.0,
                      replica_budget_per_cluster=1), seed=1)
        with pytest.raises(ConfigError, match=r"\[fleet\]"):
            run_sharded_benchmark(scenario, "l3", duration_s=10.0)

    def test_per_event_imports_leave_numpy_unloaded(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                "import repro.bench.coordinator, repro.sim.shard, "
                "repro.live; sys.exit('numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
