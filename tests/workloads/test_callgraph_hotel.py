"""Tests for the call-graph engine and the hotel-reservation application."""

import collections

import pytest

from repro.balancers.round_robin import RoundRobinBalancer
from repro.errors import ConfigError, MeshError
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.workloads.callgraph import (
    CachedRead,
    CallGraphApp,
    EndpointSpec,
    ParallelCalls,
    ServiceSpec,
    deploy_callgraph_services,
)
from repro.workloads.hotel import (
    build_hotel_application,
    hotel_endpoints,
    hotel_service_specs,
)

from tests.mesh._drive import drive

CLUSTERS = ["cluster-1", "cluster-2", "cluster-3"]


def quiet_wan():
    return WanLink(base_delay_s=0.010, jitter_p99_ratio=1.0,
                   drift_amplitude=0.0, spike_prob=0.0)


def rr_factory(mesh):
    def factory(service, backend_names, source_cluster):
        return RoundRobinBalancer(backend_names)
    return factory


@pytest.fixture
def mesh(sim, rng_registry):
    return ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                       wan_link=quiet_wan())


class TestSpecs:
    def test_parallel_calls_validation(self):
        with pytest.raises(ConfigError):
            ParallelCalls(())

    def test_cached_read_validation(self):
        with pytest.raises(ConfigError):
            CachedRead("cache", "db", hit_prob=1.5)

    def test_endpoint_validation(self):
        with pytest.raises(ConfigError):
            EndpointSpec("e", weight=0.0, stages=())


class TestCallGraphExecution:
    def make_app(self, sim, mesh, rng_registry, stages, hit_prob=1.0):
        specs = {
            "root": ServiceSpec("root", 0.001, 0.001),
            "child-a": ServiceSpec("child-a", 0.002, 0.002),
            "child-b": ServiceSpec("child-b", 0.003, 0.003),
            "cache": ServiceSpec("cache", 0.0005, 0.0005, local_only=True),
            "db": ServiceSpec("db", 0.004, 0.004, local_only=True),
        }
        deploy_callgraph_services(mesh, specs)
        endpoints = [EndpointSpec("only", 1.0, stages=stages)]
        return CallGraphApp(
            mesh, specs, endpoints, root_service="root",
            client_cluster="cluster-1",
            balancer_factory=rr_factory(mesh),
            rng=rng_registry.stream("app"))

    def test_sequential_stages_accumulate_latency(self, sim, mesh,
                                                  rng_registry):
        app = self.make_app(sim, mesh, rng_registry, stages=(
            ParallelCalls(("child-a",)),
            ParallelCalls(("child-b",)),
        ))
        record = drive(sim, app)
        assert record.success
        # root 1ms + two sequential child calls (2 + 3 ms, + network).
        assert record.latency_s >= 0.006

    def test_parallel_stage_takes_max_not_sum(self, sim, mesh, rng_registry):
        app = self.make_app(sim, mesh, rng_registry, stages=(
            ParallelCalls(("child-a", "child-b")),
        ))
        record = drive(sim, app)
        sequential_estimate = 0.001 + 0.002 + 0.003
        # Parallel: root + max(children) + hops, well under sequential+hops.
        assert record.latency_s < sequential_estimate + 0.045

    def test_cache_hit_skips_db(self, sim, mesh, rng_registry):
        app = self.make_app(sim, mesh, rng_registry, stages=(
            CachedRead("cache", "db", hit_prob=1.0),
        ))
        drive(sim, app)
        db_backend = mesh.deployment("db").backend_in("cluster-1")
        assert sum(r.completed for r in db_backend.replicas) == 0

    def test_cache_miss_hits_db(self, sim, mesh, rng_registry):
        app = self.make_app(sim, mesh, rng_registry, stages=(
            CachedRead("cache", "db", hit_prob=0.0),
        ))
        drive(sim, app)
        total_db = sum(
            sum(r.completed for r in
                mesh.deployment("db").backend_in(c).replicas)
            for c in CLUSTERS)
        assert total_db == 1

    def test_local_only_service_stays_in_callers_cluster(self, sim, mesh,
                                                         rng_registry):
        app = self.make_app(sim, mesh, rng_registry, stages=(
            CachedRead("cache", "db", hit_prob=0.0),
        ))
        for _ in range(12):
            drive(sim, app)
        # The root is pinned to cluster-1; children (none here) vary. The
        # db call happens in the root's cluster == cluster-1 only.
        for cluster in ("cluster-2", "cluster-3"):
            backend = mesh.deployment("db").backend_in(cluster)
            assert sum(r.completed for r in backend.replicas) == 0

    def test_undeclared_service_rejected(self, sim, mesh, rng_registry):
        specs = {"root": ServiceSpec("root", 0.001, 0.001, stages=(
            ParallelCalls(("ghost",)),))}
        deploy_callgraph_services(mesh, specs)
        app = CallGraphApp(
            mesh, specs, [EndpointSpec("e", 1.0, stages=None)],
            root_service="root", client_cluster="cluster-1",
            balancer_factory=rr_factory(mesh),
            rng=rng_registry.stream("app"))
        with pytest.raises(MeshError, match="undeclared service 'ghost'"):
            drive(sim, app)


class TestHotelApplication:
    def test_specs_cover_paper_services(self):
        specs = hotel_service_specs()
        for name in ("frontend", "search", "geo", "rate", "profile",
                     "recommendation", "user", "reservation"):
            assert name in specs
        # Caches and databases are stateful -> local only.
        for name, spec in specs.items():
            if name.startswith(("memcached-", "mongodb-")):
                assert spec.local_only, name

    def test_endpoint_mix_matches_wrk2_script(self):
        endpoints = {e.name: e.weight for e in hotel_endpoints()}
        assert endpoints["search-hotel"] == pytest.approx(60.0)
        assert endpoints["recommend"] == pytest.approx(39.0)
        assert endpoints["user-login"] == pytest.approx(0.5)
        assert endpoints["reserve"] == pytest.approx(0.5)

    def test_end_to_end_request(self, sim, mesh, rng_registry):
        app = build_hotel_application(
            mesh, "cluster-1", rr_factory(mesh),
            rng_registry.stream("hotel"))
        app.prewire()
        record = drive(sim, app)
        assert record.success
        assert record.service == "frontend"
        assert 0.001 < record.latency_s < 1.0

    def test_endpoint_mix_sampling(self, sim, mesh, rng_registry):
        app = build_hotel_application(
            mesh, "cluster-1", rr_factory(mesh),
            rng_registry.stream("hotel"))
        counts = collections.Counter(
            app._pick_endpoint().name for _ in range(2000))
        assert counts["search-hotel"] > counts["recommend"] > counts["reserve"]

    def test_prewire_creates_all_proxies(self, sim, mesh, rng_registry):
        app = build_hotel_application(
            mesh, "cluster-1", rr_factory(mesh),
            rng_registry.stream("hotel"))
        app.prewire()
        specs = hotel_service_specs()
        # Every non-root service has a proxy in every cluster.
        expected = 1 + (len(specs) - 1) * len(CLUSTERS)
        assert len(mesh.proxies()) == expected
