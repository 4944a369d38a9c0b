"""Fast engine vs. generator engine: record-for-record equivalence.

The fast request engine (:mod:`repro.mesh.fastdispatch`) must be
indistinguishable from the legacy one-process-per-request engine — not
statistically, but *exactly*: same :class:`RequestRecord` stream, same
controller weights, same fault log, for every scenario, algorithm, seed
and fault schedule. These tests run both engines on the same cell and
compare the full record dataclasses field for field.

Durations are short (the comparison is deterministic, not statistical)
but long enough that every scheduled fault fires *and* recovers inside
the measured window.
"""

from __future__ import annotations

import pytest

from repro.bench.coordinator import ScenarioBenchConfig, run_scenario_benchmark
from repro.faults.faults import (
    ClusterOutage,
    LinkDegradation,
    LinkPartition,
    ReplicaCrash,
)
from repro.mesh.proxy import OutlierEjectionConfig


def _deadline_retry_env() -> ScenarioBenchConfig:
    """A deadline/retry-heavy client config: tight per-attempt timeout,
    retries with backoff, and the outlier-ejection circuit breaker on."""
    return ScenarioBenchConfig(
        request_timeout_s=0.05,
        max_retries=2,
        retry_backoff_s=0.01,
        outlier_ejection=OutlierEjectionConfig(),
    )


def _run_both(scenario, algorithm, seed, duration_s, env=None, faults=None):
    fast = run_scenario_benchmark(
        scenario, algorithm, duration_s=duration_s, seed=seed,
        env=env, faults=faults, engine="fast")
    legacy = run_scenario_benchmark(
        scenario, algorithm, duration_s=duration_s, seed=seed,
        env=env, faults=faults, engine="process")
    return fast, legacy


def _assert_equivalent(fast, legacy):
    # RequestRecord is a plain dataclass: == compares every field,
    # including the floats bit-for-bit.
    assert fast.records == legacy.records
    assert fast.controller_weights == legacy.controller_weights
    assert fast.fault_log == legacy.fault_log
    assert fast.records, "equivalence on an empty run proves nothing"


class TestSeedSweep:
    """Same scenario, five seeds — the RNG consumption order must match."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_scenario1_l3(self, seed):
        _assert_equivalent(
            *_run_both("scenario-1", "l3", seed, duration_s=10.0))


class TestScenarioSweep:
    """Different traffic shapes and algorithms, one cell each."""

    @pytest.mark.parametrize("scenario,algorithm,seed", [
        ("scenario-4", "round-robin", 2),
        ("scenario-4", "c3", 2),
        ("scenario-4", "l3-peak", 2),
        ("failure-1", "p2c", 7),
    ])
    def test_engines_agree(self, scenario, algorithm, seed):
        _assert_equivalent(
            *_run_both(scenario, algorithm, seed, duration_s=10.0))


class TestFaultInjection:
    """Faults exercise the paths the fast engine rewrote most: blackholed
    replicas (gated grants), fail-fast outages, WAN partitions."""

    def test_replica_crash_and_cluster_outage(self):
        faults = [
            ReplicaCrash(service="api", cluster="cluster-1", at_s=5.0,
                         replica_index=0, duration_s=10.0,
                         mode="blackhole"),
            ClusterOutage(cluster="cluster-2", at_s=12.0, duration_s=6.0,
                          mode="fail_fast", service="api"),
        ]
        _assert_equivalent(*_run_both(
            "scenario-2", "l3", seed=3, duration_s=25.0,
            env=_deadline_retry_env(), faults=faults))

    def test_link_partition_and_degradation(self):
        faults = [
            LinkPartition(src="cluster-1", dst="cluster-2", at_s=8.0,
                          duration_s=5.0),
            LinkDegradation(src="cluster-1", dst="cluster-3", at_s=15.0,
                            duration_s=8.0, multiplier=3.0,
                            extra_delay_s=0.005),
        ]
        _assert_equivalent(*_run_both(
            "scenario-3", "l3", seed=5, duration_s=25.0,
            env=_deadline_retry_env(), faults=faults))


class TestDeadlineRetryHeavy:
    """failure-2 saturates a cluster; with a 50 ms deadline and retries the
    timeout/retry/ejection machinery dominates the request lifecycle."""

    def test_failure2_l3(self):
        _assert_equivalent(*_run_both(
            "failure-2", "l3", seed=9, duration_s=15.0,
            env=_deadline_retry_env()))
