"""Tests for proxy request deadlines, down replicas, and ejection wiring."""

import pytest

from repro.balancers.round_robin import RoundRobinBalancer
from repro.balancers.static_weights import StaticWeightBalancer
from repro.errors import ConfigError, MeshError
from repro.mesh.ejection import OutlierEjectionConfig
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.workloads.profiles import constant_backend_profile
from tests.mesh._drive import drive, start

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
    }, replicas=2)
    return mesh


def to_cluster_1():
    return StaticWeightBalancer({"api/cluster-1": 1.0})


class TestReplicaDownModes:
    def test_fail_fast_crash_fails_quickly(self, sim, mesh):
        backend = mesh.deployment("api").backend_in("cluster-1")
        backend.crash("fail_fast")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1())
        record = drive(sim, proxy)
        assert record.success is False
        assert record.latency_s < 1.0  # the profile's failure latency

    def test_blackhole_crash_hangs_without_deadline(self, sim, mesh):
        mesh.deployment("api").backend_in("cluster-1").crash("blackhole")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1())
        done = start(sim, proxy)
        sim.run(until=60.0)
        assert not done  # parked forever: nothing ever answers

    def test_restart_releases_blackholed_requests(self, sim, mesh):
        backend = mesh.deployment("api").backend_in("cluster-1")
        backend.crash("blackhole")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1())
        done = start(sim, proxy)
        sim.run(until=5.0)
        assert not done
        backend.restart()
        sim.run()
        (record,) = done
        # The hung request completes as a failure, not a success.
        assert record.success is False
        assert record.end_s >= 5.0

    def test_crash_mode_validated(self, mesh):
        backend = mesh.deployment("api").backend_in("cluster-1")
        with pytest.raises(ConfigError):
            backend.replicas[0].crash("sideways")

    def test_picker_skips_down_replicas(self, sim, mesh):
        backend = mesh.deployment("api").backend_in("cluster-1")
        backend.replicas[0].crash("fail_fast")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1())
        for _ in range(4):
            # replica 1 serves all
            assert drive(sim, proxy).success is True


class TestRequestDeadline:
    def test_timeout_must_be_positive(self, mesh):
        with pytest.raises(MeshError, match="timeout"):
            mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                              request_timeout_s=0.0)

    def test_blackhole_fails_at_deadline(self, sim, mesh):
        mesh.deployment("api").backend_in("cluster-1").crash("blackhole")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  request_timeout_s=0.5)
        record = drive(sim, proxy)
        assert record.success is False
        assert record.latency_s == pytest.approx(0.5, abs=0.01)
        assert proxy.timeouts == 1

    def test_timeout_recorded_as_failed_attempt_in_telemetry(self, sim, mesh):
        mesh.deployment("api").backend_in("cluster-1").crash("blackhole")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  request_timeout_s=0.5)
        drive(sim, proxy)
        telemetry = proxy.telemetry["api/cluster-1"]
        assert telemetry.requests_total.value == 1
        assert telemetry.failures_total.value == 1
        # The abandoned attempt no longer counts as in flight for the
        # *client*: it got its (failure) answer at the deadline.
        assert telemetry.inflight.value == 0

    def test_fast_request_unaffected_by_deadline(self, sim, mesh):
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  request_timeout_s=5.0)
        assert drive(sim, proxy).success is True
        assert proxy.timeouts == 0

    def test_partitioned_link_fails_at_deadline(self, sim, mesh):
        mesh.network.partition("cluster-1", "cluster-2")
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            StaticWeightBalancer({"api/cluster-2": 1.0}),
            request_timeout_s=0.5)
        record = drive(sim, proxy)
        assert record.success is False
        assert record.latency_s == pytest.approx(0.5, abs=0.01)

    def test_abandoned_call_does_not_abort_the_run(self, sim, mesh):
        # The replica answers (a failure) *after* the deadline: the
        # abandoned flight must report to nobody.
        backend = mesh.deployment("api").backend_in("cluster-1")
        backend.crash("blackhole")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  request_timeout_s=0.5)
        done = start(sim, proxy)
        sim.run(until=2.0)
        assert done[0].success is False
        backend.restart()  # releases the blackholed forward as a failure
        sim.run()  # must not raise
        assert len(done) == 1
        assert proxy.telemetry["api/cluster-1"].failures_total.value == 1


class TestDeadlineRace:
    """Raced flights are pooled; the race's loser costs nothing."""

    def test_flight_beats_its_deadline(self, sim, mesh):
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  request_timeout_s=0.5)
        done = start(sim, proxy)
        sim.run(until=0.4)
        (record,) = done
        assert record.success is True
        assert proxy.timeouts == 0
        # The stale deadline comes due at 0.5 and resumes nothing.
        sim.run()
        assert sim.now >= 0.5
        assert done == [record]
        assert proxy.timeouts == 0
        assert proxy.telemetry["api/cluster-1"].requests_total.value == 1

    def test_back_to_back_requests_reuse_one_flight(self, sim, mesh):
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  request_timeout_s=0.5)
        first = start(sim, proxy)
        sim.run(until=0.49)
        (flight,) = proxy._flights
        # Dispatched before the first request's (disarmed) deadline at
        # 0.5, still in flight when it comes due.
        second = start(sim, proxy)
        sim.run(until=0.495)  # past the forwarding overhead
        assert proxy._flights == []
        sim.run()
        assert proxy._flights == [flight]
        assert len(first) == 1 and first[0].success is True
        assert len(second) == 1 and second[0].success is True
        assert second[0].end_s > 0.5
        assert proxy.timeouts == 0

    def test_abandoned_flight_holds_its_slot_until_service_ends(
            self, sim, mesh):
        mesh.deploy_service("slow", profiles={
            "cluster-1": constant_backend_profile(1.0, 1.0)}, replicas=1)
        proxy = mesh.client_proxy(
            "cluster-1", "slow", StaticWeightBalancer({"slow/cluster-1": 1.0}),
            request_timeout_s=0.5)
        server = mesh.deployment("slow").backend_in(
            "cluster-1").replicas[0].server
        done = start(sim, proxy)
        sim.run(until=0.6)
        (record,) = done
        assert record.success is False
        assert proxy.timeouts == 1
        assert server.in_use == 1  # the abandoned flight still runs
        assert proxy._flights == []
        sim.run()
        assert server.in_use == 0
        assert len(proxy._flights) == 1
        assert done == [record]

    def test_partitioned_flight_never_returns_to_the_pool(self, sim, mesh):
        mesh.network.partition("cluster-1", "cluster-2")
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            StaticWeightBalancer({"api/cluster-2": 1.0}),
            request_timeout_s=0.5)
        record = drive(sim, proxy)
        assert record.success is False
        assert proxy.timeouts == 1
        assert proxy._flights == []


class TestDeadlineWithRetries:
    def test_each_attempt_gets_its_own_deadline(self, sim, mesh):
        mesh.deployment("api").backend_in("cluster-1").crash("blackhole")
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1(),
                                  max_retries=2, request_timeout_s=0.5)
        record = drive(sim, proxy)
        assert record.success is False
        assert record.attempts == 3
        assert proxy.timeouts == 3
        assert record.latency_s == pytest.approx(1.5, abs=0.05)


class TestProxyEjection:
    def test_consecutive_failures_eject_and_reroute(self, sim, mesh):
        mesh.deployment("api").backend_in("cluster-1").crash("fail_fast")
        proxy = mesh.client_proxy(
            "cluster-1", "api",
            RoundRobinBalancer(["api/cluster-1", "api/cluster-2",
                                "api/cluster-3"]),
            outlier_ejection=OutlierEjectionConfig(consecutive_failures=2,
                                                   ejection_s=30.0))
        outcomes = []
        for _ in range(12):
            outcomes.append(drive(sim, proxy))
        assert proxy.ejector.ejections >= 1
        # After the breaker trips, traffic avoids the dead backend.
        later = outcomes[6:]
        assert all(r.backend != "api/cluster-1" for r in later)
        assert all(r.success for r in later)

    def test_fails_open_when_everything_is_ejected(self, sim, mesh):
        mesh.deployment("api").backend_in("cluster-1").crash("fail_fast")
        proxy = mesh.client_proxy(
            "cluster-1", "api", to_cluster_1(),
            outlier_ejection=OutlierEjectionConfig(consecutive_failures=1,
                                                   ejection_s=60.0))
        for _ in range(4):
            record = drive(sim, proxy)
        # Only ejected backends available: requests still go out (and
        # fail) instead of erroring or hanging in the pick loop.
        assert record.success is False
        assert proxy.ejector.ejections >= 1

    def test_ejection_off_by_default(self, mesh):
        proxy = mesh.client_proxy("cluster-1", "api", to_cluster_1())
        assert proxy.ejector is None
