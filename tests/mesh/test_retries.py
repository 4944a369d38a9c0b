"""Tests for the client-retry extension (§5.2.1's missing piece)."""

import pytest

from repro.balancers.round_robin import RoundRobinBalancer
from repro.balancers.static_weights import StaticWeightBalancer
from repro.errors import MeshError
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.workloads.profiles import constant_backend_profile
from tests.mesh._drive import drive

CLUSTERS = ["cluster-1", "cluster-2"]


def quiet_wan():
    return WanLink(base_delay_s=0.010, jitter_p99_ratio=1.0,
                   drift_amplitude=0.0, spike_prob=0.0)


@pytest.fixture
def mesh(sim, rng_registry):
    mesh = ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                       wan_link=quiet_wan())
    mesh.deploy_service("api", profiles={
        "cluster-1": constant_backend_profile(0.010, 0.010,
                                              failure_prob=1.0),
        "cluster-2": constant_backend_profile(0.010, 0.010,
                                              failure_prob=0.0),
    })
    return mesh


class TestValidation:
    def test_negative_retries_rejected(self, sim, mesh):
        with pytest.raises(MeshError):
            mesh.client_proxy(
                "cluster-1", "api",
                StaticWeightBalancer({"api/cluster-1": 1.0}),
                max_retries=-1)

    def test_negative_backoff_rejected(self, sim, mesh):
        with pytest.raises(MeshError):
            mesh.client_proxy(
                "cluster-1", "api",
                StaticWeightBalancer({"api/cluster-1": 1.0}),
                retry_backoff_s=-0.1)


class TestRetries:
    def test_no_retries_by_default(self, sim, mesh):
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            StaticWeightBalancer({"api/cluster-1": 1.0}))
        record = drive(sim, proxy)
        assert not record.success
        assert record.attempts == 1

    def test_retry_can_land_on_healthy_backend(self, sim, mesh):
        # Round-robin alternates: first try hits the always-failing
        # cluster-1, the retry hits healthy cluster-2.
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            RoundRobinBalancer(["api/cluster-1", "api/cluster-2"]),
            max_retries=1)
        record = drive(sim, proxy)
        assert record.success
        assert record.attempts == 2
        assert record.backend == "api/cluster-2"

    def test_retries_exhausted_reports_failure(self, sim, mesh):
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            StaticWeightBalancer({"api/cluster-1": 1.0}),
            max_retries=3)
        record = drive(sim, proxy)
        assert not record.success
        assert record.attempts == 4  # 1 try + 3 retries

    def test_each_attempt_recorded_in_telemetry(self, sim, mesh):
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            StaticWeightBalancer({"api/cluster-1": 1.0}),
            max_retries=2)
        drive(sim, proxy)
        telemetry = proxy.telemetry["api/cluster-1"]
        assert telemetry.requests_total.value == 3
        assert telemetry.failures_total.value == 3

    def test_backoff_delays_retries(self, sim, mesh):
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            StaticWeightBalancer({"api/cluster-1": 1.0}),
            max_retries=2, retry_backoff_s=1.0)
        record = drive(sim, proxy)
        # Three attempts (~0.06 s of work each) plus two 1 s backoffs.
        assert record.latency_s > 2.0

    def test_latency_spans_all_attempts(self, sim, mesh):
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            RoundRobinBalancer(["api/cluster-1", "api/cluster-2"]),
            max_retries=1)
        record = drive(sim, proxy)
        # Two attempts, each ~10 ms service + 20 ms WAN RTT + overheads.
        assert record.latency_s > 0.055


class TestRetriesInBenchmark:
    def test_scenario_benchmark_with_retries_raises_success_rate(self):
        from repro.bench.coordinator import (
            ScenarioBenchConfig,
            run_scenario_benchmark,
        )

        base = ScenarioBenchConfig(warmup_s=10.0, drain_s=10.0)
        with_retries = ScenarioBenchConfig(
            warmup_s=10.0, drain_s=10.0, max_retries=2)
        plain = run_scenario_benchmark(
            "failure-1", "l3", duration_s=60.0, seed=3, env=base)
        retried = run_scenario_benchmark(
            "failure-1", "l3", duration_s=60.0, seed=3, env=with_retries)
        assert retried.success_rate > plain.success_rate + 0.02
        assert any(r.attempts > 1 for r in retried.records)
