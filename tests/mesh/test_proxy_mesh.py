"""Tests for the client proxy and mesh wiring."""

import pytest

from repro.balancers.round_robin import RoundRobinBalancer
from repro.balancers.static_weights import StaticWeightBalancer
from repro.errors import MeshError
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.profiles import constant_backend_profile
from tests.mesh._drive import drive

CLUSTERS = ["cluster-1", "cluster-2", "cluster-3"]


@pytest.fixture
def mesh(sim, rng_registry):
    mesh = ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                       wan_link=WanLink(base_delay_s=0.010,
                                        jitter_p99_ratio=1.0,
                                        drift_amplitude=0.0,
                                        spike_prob=0.0))
    mesh.deploy_service("api", profiles={
        cluster: constant_backend_profile(0.010, 0.010)
        for cluster in CLUSTERS
    })
    return mesh


class TestServiceMesh:
    def test_duplicate_cluster_rejected(self, sim, rng_registry):
        with pytest.raises(MeshError):
            ServiceMesh(sim, rng_registry, clusters=["a", "a"])

    def test_duplicate_service_rejected(self, mesh):
        with pytest.raises(MeshError):
            mesh.deploy_service("api", profiles={
                "cluster-1": constant_backend_profile(0.01, 0.02)})

    def test_unknown_service_lookup(self, mesh):
        with pytest.raises(MeshError):
            mesh.deployment("ghost")

    def test_deploy_to_unknown_cluster_rejected(self, mesh):
        with pytest.raises(MeshError):
            mesh.deploy_service("other", profiles={
                "nowhere": constant_backend_profile(0.01, 0.02)})

    def test_proxy_for_unknown_cluster_rejected(self, mesh):
        balancer = RoundRobinBalancer(["api/cluster-1"])
        with pytest.raises(MeshError):
            mesh.client_proxy("nowhere", "api", balancer)

    def test_services_listing(self, mesh):
        assert mesh.services() == ["api"]


class TestDispatch:
    def test_local_request_latency_has_no_wan(self, sim, mesh):
        balancer = StaticWeightBalancer({"api/cluster-1": 1.0})
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
        record = drive(sim, proxy)
        assert record.success
        assert record.backend == "api/cluster-1"
        # ~10 ms service + sub-ms local links and proxy overhead.
        assert 0.010 <= record.latency_s < 0.020

    def test_remote_request_pays_wan_round_trip(self, sim, mesh):
        balancer = StaticWeightBalancer({"api/cluster-2": 1.0})
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
        record = drive(sim, proxy)
        # 10 ms service + 2 x 10 ms WAN.
        assert record.latency_s == pytest.approx(0.030, abs=0.005)

    def test_latency_measured_from_intended_start(self, sim, mesh):
        balancer = StaticWeightBalancer({"api/cluster-1": 1.0})
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
        sim.run(until=5.0)
        record = drive(sim, proxy, intended_start_s=3.0)
        assert record.intended_start_s == 3.0
        assert record.latency_s == pytest.approx(
            record.end_s - 3.0)
        assert record.service_latency_s < record.latency_s

    def test_unknown_backend_pick_raises(self, sim, mesh):
        balancer = StaticWeightBalancer({"api/mars": 1.0})
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
        with pytest.raises(MeshError, match="unknown backend"):
            drive(sim, proxy)

    def test_telemetry_recorded_per_backend(self, sim, mesh):
        balancer = RoundRobinBalancer(
            ["api/cluster-1", "api/cluster-2", "api/cluster-3"])
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
        for _ in range(6):
            drive(sim, proxy)
        for name, telemetry in proxy.telemetry.items():
            assert telemetry.requests_total.value == 2, name
            assert telemetry.inflight.value == 0

    def test_request_ids_monotone(self, sim, mesh):
        balancer = StaticWeightBalancer({"api/cluster-1": 1.0})
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
        ids = []
        for _ in range(3):
            ids.append(drive(sim, proxy).request_id)
        assert ids == [0, 1, 2]


class TestTelemetryRegistration:
    def test_scoped_scrape_names(self, sim, mesh):
        proxy = mesh.client_proxy(
            "cluster-2", "api",
            StaticWeightBalancer({"api/cluster-1": 1.0}))
        names = {t.scrape_name for t in proxy.telemetry.values()}
        assert names == {
            "cluster-2|api/cluster-1",
            "cluster-2|api/cluster-2",
            "cluster-2|api/cluster-3",
        }

    def test_register_all_telemetry_and_server_gauges(self, sim, mesh):
        mesh.client_proxy("cluster-1", "api",
                          RoundRobinBalancer(["api/cluster-1"]))
        store = TimeSeriesStore()
        scraper = Scraper(store)
        mesh.register_all_telemetry(scraper)
        scraper.scrape_once(5.0)
        assert "cluster-1|api/cluster-1" in store.backends()
        assert "server|api/cluster-1" in store.backends()

    def test_two_proxies_same_source_service_not_allowed_twice(
            self, sim, mesh):
        balancer = RoundRobinBalancer(["api/cluster-1"])
        mesh.client_proxy("cluster-1", "api", balancer)
        mesh.client_proxy("cluster-1", "api", balancer)
        store = TimeSeriesStore()
        scraper = Scraper(store)
        # Identical scrape names are aggregated rather than erroring.
        mesh.register_all_telemetry(scraper)
        scraper.scrape_once(5.0)
        assert "cluster-1|api/cluster-1" in store.backends()
