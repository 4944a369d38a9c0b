"""Control-plane dynamics: propagation delay, staleness decay, recovery.

These pin down the §4 behaviours that only show up when the whole loop
(proxy → scraper → controller → TrafficSplit → proxy) runs together.
"""

import pytest

from repro.balancers.l3 import L3Balancer
from repro.core.config import L3Config
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.loadgen import OpenLoopLoadGenerator
from repro.workloads.profiles import constant_backend_profile

CLUSTERS = ["cluster-1", "cluster-2", "cluster-3"]


def build_world(seed=3, propagation_delay_s=0.5, profiles=None):
    sim = Simulator()
    rng = RngRegistry(seed)
    mesh = ServiceMesh(
        sim, rng, clusters=CLUSTERS,
        wan_link=WanLink(base_delay_s=0.010, jitter_p99_ratio=1.0,
                         drift_amplitude=0.0, spike_prob=0.0))
    profiles = profiles or {
        "cluster-1": constant_backend_profile(0.020, 0.060),
        "cluster-2": constant_backend_profile(0.200, 0.600),
        "cluster-3": constant_backend_profile(0.020, 0.060),
    }
    mesh.deploy_service("api", profiles=profiles)
    store = TimeSeriesStore()
    scraper = Scraper(store, interval_s=5.0)
    source = PromMetricsSource(store, scope="cluster-1")
    balancer = L3Balancer(
        sim, "api", mesh.deployment("api").backend_names(), source,
        config=L3Config(), propagation_delay_s=propagation_delay_s)
    proxy = mesh.client_proxy("cluster-1", "api", balancer)
    mesh.register_all_telemetry(scraper)
    sim.every(scraper.interval_s, scraper.tick)
    balancer.start(sim)
    return sim, rng, mesh, balancer, proxy


class TestPropagationDelay:
    def test_weights_lag_the_controller_by_the_push_delay(self):
        sim, rng, mesh, balancer, proxy = build_world(
            propagation_delay_s=2.0)
        records = []
        loadgen = OpenLoopLoadGenerator(
            proxy, 100.0, rng.stream("load"), records)
        loadgen.start(sim, 60.0)

        observed = {}

        def snapshot(label):
            observed[label] = dict(balancer.split.weights)

        # First reconcile fires at t=5; its weights land at t=7.
        sim.call_at(6.0, snapshot, "before-propagation")
        sim.call_at(7.5, snapshot, "after-propagation")
        sim.run(until=61.0)
        balancer.stop()
        sim.run(until=70.0)
        assert observed["before-propagation"] == {
            name: 1 for name in balancer.split.backend_names()}
        assert observed["after-propagation"] != observed["before-propagation"]


class TestStalenessDecay:
    def test_quiet_backend_weight_recovers_toward_default(self):
        """§4: without traffic, EWMAs converge back to their defaults.

        The slow backend's weight collapses while traffic flows; once the
        load stops entirely (no metrics for anyone), its filtered latency
        decays back toward the 5 s default — the same value as everyone
        else's — so the weights re-converge.
        """
        sim, rng, mesh, balancer, proxy = build_world()
        records = []
        loadgen = OpenLoopLoadGenerator(
            proxy, 150.0, rng.stream("load"), records)
        loadgen.start(sim, 60.0)
        sim.run(until=61.0)

        weights_loaded = dict(balancer.controller.last_weights)
        ratio_loaded = (weights_loaded["api/cluster-1"]
                        / weights_loaded["api/cluster-2"])
        assert ratio_loaded > 2.0  # slow cluster-2 was penalised

        # Silence: the controller keeps reconciling on stale metrics.
        sim.run(until=300.0)
        balancer.stop()
        sim.run(until=310.0)
        weights_quiet = dict(balancer.controller.last_weights)
        ratio_quiet = (weights_quiet["api/cluster-1"]
                       / weights_quiet["api/cluster-2"])
        assert ratio_quiet < ratio_loaded / 2.0
        assert ratio_quiet == pytest.approx(1.0, rel=0.25)


class TestRecoveryAfterDegradation:
    def test_weights_follow_a_backend_through_degradation_and_back(self):
        from repro.workloads.profiles import (
            BackendProfile,
            PiecewiseSeries,
            constant_series,
        )

        degraded = BackendProfile(
            median_latency_s=PiecewiseSeries(
                [(0.0, 0.020), (60.0, 0.020), (61.0, 0.400),
                 (120.0, 0.400), (121.0, 0.020), (240.0, 0.020)]),
            p99_latency_s=PiecewiseSeries(
                [(0.0, 0.060), (60.0, 0.060), (61.0, 1.200),
                 (120.0, 1.200), (121.0, 0.060), (240.0, 0.060)]),
            failure_prob=constant_series(0.0),
        )
        profiles = {
            "cluster-1": constant_backend_profile(0.020, 0.060),
            "cluster-2": degraded,
            "cluster-3": constant_backend_profile(0.020, 0.060),
        }
        sim, rng, mesh, balancer, proxy = build_world(profiles=profiles)
        records = []
        loadgen = OpenLoopLoadGenerator(
            proxy, 150.0, rng.stream("load"), records)
        loadgen.start(sim, 240.0)

        shares = {}

        def record_share(label):
            weights = balancer.split.weights
            total = sum(weights.values())
            shares[label] = weights["api/cluster-2"] / total

        sim.call_at(55.0, record_share, "healthy")
        sim.call_at(110.0, record_share, "degraded")
        sim.call_at(235.0, record_share, "recovered")
        sim.run(until=241.0)
        balancer.stop()
        sim.run(until=250.0)

        assert shares["degraded"] < shares["healthy"] / 3.0
        assert shares["recovered"] > shares["degraded"] * 2.0
