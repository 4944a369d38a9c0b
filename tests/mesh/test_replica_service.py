"""Tests for replicas, backends, and service deployments."""

import pytest

from repro.errors import ConfigError, MeshError
from repro.mesh.cluster import backend_name, split_backend_name
from repro.mesh.replica import Replica
from repro.mesh.service import Backend, ServiceDeployment
from repro.workloads.profiles import constant_backend_profile
from tests.mesh._drive import backend_of, drive, local_proxy, start


@pytest.fixture
def profile():
    return constant_backend_profile(0.010, 0.030)


def make_backend(sim, rng_registry, profile, replicas=3, capacity=4,
                 cluster="cluster-1"):
    return Backend(sim, "svc", cluster, profile, rng_registry,
                   replicas=replicas, replica_capacity=capacity)


class TestNames:
    def test_backend_name_roundtrip(self):
        name = backend_name("svc", "cluster-2")
        assert name == "svc/cluster-2"
        assert split_backend_name(name) == ("svc", "cluster-2")

    def test_split_invalid_name(self):
        with pytest.raises(ValueError):
            split_backend_name("no-slash")


class TestReplica:
    def test_capacity_validation(self, sim, rng, profile):
        with pytest.raises(ConfigError):
            Replica(sim, "r", profile, rng, capacity=0)

    def test_successful_request(self, sim, rng_registry, profile):
        proxy = local_proxy(sim, rng_registry, profile)
        (replica,) = backend_of(proxy).replicas
        assert drive(sim, proxy).success is True
        assert replica.completed == 1
        assert sim.now > 0  # service time elapsed

    def test_failure_injection(self, sim, rng_registry):
        failing = constant_backend_profile(0.01, 0.03, failure_prob=1.0)
        proxy = local_proxy(sim, rng_registry, failing)
        (replica,) = backend_of(proxy).replicas
        assert drive(sim, proxy).success is False
        assert replica.failed == 1
        assert sim.now == pytest.approx(failing.failure_latency_s)

    def test_queueing_beyond_capacity(self, sim, rng_registry):
        # Deterministic service time of 1 s, capacity 1 -> serialized.
        proxy = local_proxy(sim, rng_registry,
                            constant_backend_profile(1.0, 1.0), capacity=1)
        done = [start(sim, proxy) for _ in range(3)]
        sim.run()
        assert all(record.success for (record,) in done)
        assert sim.now == pytest.approx(3.0)

    def test_inflight_counts_queued_and_executing(self, sim, rng_registry):
        proxy = local_proxy(sim, rng_registry,
                            constant_backend_profile(1.0, 1.0), capacity=1)
        (replica,) = backend_of(proxy).replicas
        for _ in range(3):
            start(sim, proxy)
        sim.run(until=0.5)
        assert replica.inflight == 3

    def test_body_runs_and_success_combines(self, sim, rng_registry,
                                            profile):
        proxy = local_proxy(sim, rng_registry, profile)
        (replica,) = backend_of(proxy).replicas
        log = []

        def body(resume):
            log.append(sim.now)
            sim.call_after(0.5, resume, False)  # downstream failure

        record = drive(sim, proxy, body_factory=lambda cluster: body)
        assert record.success is False
        # body executed after the replica's own compute time
        assert log == [pytest.approx(record.end_s - 0.5)] and log[0] > 0
        assert replica.failed == 1 and replica.completed == 0

    def test_body_holds_its_slot_until_resume(self, sim, rng_registry):
        # Capacity 1, 1 s of compute, then a 2 s body: the second
        # request cannot start executing before the first body resumes.
        proxy = local_proxy(sim, rng_registry,
                            constant_backend_profile(1.0, 1.0), capacity=1)

        def body(resume):
            sim.call_after(2.0, resume, True)

        done = [start(sim, proxy, body_factory=lambda cluster: body)
                for _ in range(2)]
        sim.run()
        (first,), (second,) = done
        assert first.success and second.success
        assert first.end_s == pytest.approx(3.0)
        assert second.end_s == pytest.approx(6.0)

    def test_body_verdict_none_counts_as_success(self, sim, rng_registry,
                                                 profile):
        proxy = local_proxy(sim, rng_registry, profile)
        (replica,) = backend_of(proxy).replicas
        record = drive(sim, proxy,
                       body_factory=lambda cluster: lambda resume: resume())
        assert record.success is True
        assert replica.completed == 1

    def test_factory_may_decline_a_body(self, sim, rng_registry, profile):
        proxy = local_proxy(sim, rng_registry, profile)
        clusters = []
        record = drive(sim, proxy, body_factory=clusters.append)
        assert record.success is True
        assert clusters == ["cluster-1"]

    def test_abandoned_flight_still_runs_its_body(self, sim, rng_registry):
        # Deadline 0.5 s, compute 1 s: the attempt times out while the
        # replica is still working; its body still runs afterwards.
        proxy = local_proxy(sim, rng_registry,
                            constant_backend_profile(1.0, 1.0), capacity=1)
        proxy.request_timeout_s = 0.5
        (replica,) = backend_of(proxy).replicas
        log = []

        def body(resume):
            log.append(sim.now)
            sim.call_after(1.0, resume, True)

        done = start(sim, proxy, body_factory=lambda cluster: body)
        sim.run(until=0.75)
        assert done[0].success is False and proxy.timeouts == 1
        assert replica.inflight == 1  # the server is still busy with it
        sim.run()
        assert log == [pytest.approx(1.0)]
        assert replica.completed == 1 and replica.inflight == 0
        telemetry = proxy.telemetry["svc/cluster-1"]
        assert len(done) == 1
        assert telemetry.failures_total.value == 1
        assert sim.now == pytest.approx(2.0)


class TestBackend:
    def test_replica_validation(self, sim, rng_registry, profile):
        with pytest.raises(ConfigError):
            make_backend(sim, rng_registry, profile, replicas=0)

    def test_round_robin_across_replicas(self, sim, rng_registry, profile):
        backend = make_backend(sim, rng_registry, profile, replicas=3)
        picks = [backend.pick_replica().name for _ in range(6)]
        assert picks[:3] == picks[3:]
        assert len(set(picks[:3])) == 3

    def test_add_remove_replica(self, sim, rng_registry, profile):
        backend = make_backend(sim, rng_registry, profile, replicas=1)
        backend.add_replica()
        assert len(backend.replicas) == 2
        backend.remove_replica()
        assert len(backend.replicas) == 1
        with pytest.raises(MeshError):
            backend.remove_replica()

    def test_replica_names_unique_across_scaling(self, sim, rng_registry,
                                                 profile):
        backend = make_backend(sim, rng_registry, profile, replicas=2)
        backend.remove_replica()
        replica = backend.add_replica()
        names = {r.name for r in backend.replicas}
        assert len(names) == len(backend.replicas)
        assert replica.name.endswith("/2")

    def test_backend_inflight_aggregates(self, sim, rng_registry):
        profile = constant_backend_profile(1.0, 1.0)
        proxy = local_proxy(sim, rng_registry, profile, replicas=2,
                            capacity=1)
        for _ in range(4):
            start(sim, proxy)
        sim.run(until=0.5)
        assert backend_of(proxy).inflight == 4


class TestServiceDeployment:
    def test_add_backend_validation(self, sim, rng_registry, profile):
        deployment = ServiceDeployment("svc")
        deployment.add_backend(make_backend(sim, rng_registry, profile))
        with pytest.raises(MeshError):
            deployment.add_backend(make_backend(sim, rng_registry, profile))

    def test_wrong_service_rejected(self, sim, rng_registry, profile):
        deployment = ServiceDeployment("other")
        with pytest.raises(MeshError):
            deployment.add_backend(make_backend(sim, rng_registry, profile))

    def test_backend_lookup(self, sim, rng_registry, profile):
        deployment = ServiceDeployment("svc")
        backend = make_backend(sim, rng_registry, profile)
        deployment.add_backend(backend)
        assert deployment.backend_in("cluster-1") is backend
        with pytest.raises(MeshError):
            deployment.backend_in("cluster-9")

    def test_backend_names_sorted_by_cluster(self, sim, rng_registry,
                                             profile):
        deployment = ServiceDeployment("svc")
        for cluster in ("cluster-2", "cluster-1"):
            deployment.add_backend(
                make_backend(sim, rng_registry, profile, cluster=cluster))
        assert deployment.backend_names() == [
            "svc/cluster-1", "svc/cluster-2"]
