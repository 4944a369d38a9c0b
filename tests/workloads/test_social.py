"""Tests for the social-network application (extension workload)."""

import pytest

from repro.balancers.round_robin import RoundRobinBalancer
from repro.bench.coordinator import ScenarioBenchConfig, run_social_benchmark
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.workloads.social import (
    build_social_application,
    social_endpoints,
    social_service_specs,
)

from tests.mesh._drive import drive

ENV = ScenarioBenchConfig(warmup_s=10.0, drain_s=10.0)
CLUSTERS = ["cluster-1", "cluster-2", "cluster-3"]


class TestSpecs:
    def test_stateful_tier_is_local_only(self):
        for name, spec in social_service_specs().items():
            stateful = name.startswith(("redis-", "memcached-", "mongodb-"))
            assert spec.local_only == stateful, name

    def test_compose_path_reaches_timelines(self):
        specs = social_service_specs()
        compose = specs["compose-post"]
        called = {
            service
            for stage in compose.stages
            if hasattr(stage, "services")
            for service in stage.services
        }
        assert {"unique-id", "media", "user", "text",
                "user-timeline", "write-home-timeline"} <= called | {
                    "post-storage"} | called

    def test_endpoint_mix_is_read_heavy(self):
        weights = {e.name: e.weight for e in social_endpoints()}
        assert weights["read-home-timeline"] > weights["compose-post"]
        assert sum(weights.values()) == pytest.approx(100.0)


class TestExecution:
    def test_single_request_through_graph(self, sim, rng_registry):
        mesh = ServiceMesh(
            sim, rng_registry, clusters=CLUSTERS,
            wan_link=WanLink(base_delay_s=0.010, jitter_p99_ratio=1.0,
                             drift_amplitude=0.0, spike_prob=0.0))
        app = build_social_application(
            mesh, "cluster-1",
            lambda service, names, src: RoundRobinBalancer(names),
            rng_registry.stream("social"))
        app.prewire()
        record = drive(sim, app)
        assert record.success
        assert record.service == "nginx"

    def test_compose_touches_write_path(self, sim, rng_registry):
        mesh = ServiceMesh(
            sim, rng_registry, clusters=CLUSTERS,
            wan_link=WanLink(base_delay_s=0.010, jitter_p99_ratio=1.0,
                             drift_amplitude=0.0, spike_prob=0.0))
        app = build_social_application(
            mesh, "cluster-1",
            lambda service, names, src: RoundRobinBalancer(names),
            rng_registry.stream("social"))
        app.prewire()
        # Force the compose endpoint.
        compose = next(e for e in app.endpoints
                       if e.name == "compose-post")
        done = []
        app._call("nginx", "cluster-1", sim.now, done.append,
                  stages=compose.stages)
        sim.run()
        assert done[0].success
        total_writes = sum(
            sum(r.completed for r in
                mesh.deployment("redis-home-timeline").backend_in(c).replicas)
            for c in CLUSTERS)
        assert total_writes >= 1


class TestBenchmark:
    def test_benchmark_runs_and_l3_helps_median(self):
        rr = run_social_benchmark(
            "round-robin", rps=60.0, duration_s=45.0, seed=3, env=ENV)
        l3 = run_social_benchmark(
            "l3", rps=60.0, duration_s=45.0, seed=3, env=ENV)
        assert rr.scenario == "social-network"
        assert rr.request_count == l3.request_count > 1000
        assert l3.p50_ms < rr.p50_ms
