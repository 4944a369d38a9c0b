"""Edge cases of the call-graph engine: failures, fan-out, lifecycle."""

import pytest

from repro.balancers.round_robin import RoundRobinBalancer
from repro.errors import ConfigError
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.workloads.callgraph import (
    CallGraphApp,
    EndpointSpec,
    ParallelCalls,
    ServiceSpec,
    deploy_callgraph_services,
)
from repro.workloads.profiles import (
    BackendProfile,
    constant_series,
)
from tests.mesh._drive import drive

CLUSTERS = ["cluster-1", "cluster-2"]


def quiet_wan():
    return WanLink(base_delay_s=0.010, jitter_p99_ratio=1.0,
                   drift_amplitude=0.0, spike_prob=0.0)


def make_app(sim, rng_registry, specs, stages, noise=None):
    mesh = ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                       wan_link=quiet_wan())
    deploy_callgraph_services(mesh, specs, cluster_noise=noise)
    app = CallGraphApp(
        mesh, specs, [EndpointSpec("only", 1.0, stages=stages)],
        root_service="root", client_cluster="cluster-1",
        balancer_factory=lambda s, names, src: RoundRobinBalancer(names),
        rng=rng_registry.stream("app"))
    return mesh, app


class TestFailurePropagation:
    def failing_specs(self):
        return {
            "root": ServiceSpec("root", 0.001, 0.001),
            "healthy": ServiceSpec("healthy", 0.001, 0.001),
            "broken": ServiceSpec("broken", 0.001, 0.001),
        }

    def deploy_with_broken(self, sim, rng_registry, stages):
        mesh = ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                           wan_link=quiet_wan())
        for name in ("root", "healthy"):
            mesh.deploy_service(name, profiles={
                c: BackendProfile(constant_series(0.001),
                                  constant_series(0.001),
                                  constant_series(0.0))
                for c in CLUSTERS})
        mesh.deploy_service("broken", profiles={
            c: BackendProfile(constant_series(0.001),
                              constant_series(0.001),
                              constant_series(1.0))
            for c in CLUSTERS})
        app = CallGraphApp(
            mesh, self.failing_specs(),
            [EndpointSpec("only", 1.0, stages=stages)],
            root_service="root", client_cluster="cluster-1",
            balancer_factory=lambda s, n, src: RoundRobinBalancer(n),
            rng=rng_registry.stream("app"))
        return app

    def test_failed_child_fails_the_request(self, sim, rng_registry):
        app = self.deploy_with_broken(sim, rng_registry, stages=(
            ParallelCalls(("broken",)),
        ))
        record = drive(sim, app)
        assert record.success is False

    def test_one_failed_parallel_branch_fails_the_request(self, sim,
                                                          rng_registry):
        app = self.deploy_with_broken(sim, rng_registry, stages=(
            ParallelCalls(("healthy", "broken")),
        ))
        record = drive(sim, app)
        assert record.success is False

    def test_healthy_branches_alone_succeed(self, sim, rng_registry):
        app = self.deploy_with_broken(sim, rng_registry, stages=(
            ParallelCalls(("healthy",)),
            ParallelCalls(("healthy",)),
        ))
        record = drive(sim, app)
        assert record.success is True


class TestFanOut:
    def test_wide_parallel_fanout(self, sim, rng_registry):
        specs = {"root": ServiceSpec("root", 0.001, 0.001)}
        children = tuple(f"child-{i}" for i in range(8))
        for child in children:
            specs[child] = ServiceSpec(child, 0.005, 0.005)
        _mesh, app = make_app(
            sim, rng_registry, specs, stages=(ParallelCalls(children),))
        record = drive(sim, app)
        assert record.success
        # All eight children in parallel: latency ~ one child + hops,
        # nowhere near 8 x 5 ms serial.
        assert record.latency_s < 0.040

    def test_deep_sequential_chain(self, sim, rng_registry):
        specs = {"root": ServiceSpec("root", 0.001, 0.001)}
        stages = tuple(
            ParallelCalls((f"step-{i}",)) for i in range(6))
        for i in range(6):
            specs[f"step-{i}"] = ServiceSpec(f"step-{i}", 0.002, 0.002)
        _mesh, app = make_app(sim, rng_registry, specs, stages=stages)
        record = drive(sim, app)
        assert record.success
        assert record.latency_s >= 6 * 0.002


class TestLifecycle:
    def test_start_stop_idempotent(self, sim, rng_registry):
        specs = {
            "root": ServiceSpec("root", 0.001, 0.001),
            "leaf": ServiceSpec("leaf", 0.001, 0.001),
        }
        _mesh, app = make_app(sim, rng_registry, specs,
                              stages=(ParallelCalls(("leaf",)),))
        app.prewire()
        app.start(sim)
        app.start(sim)  # second start must not double the loops
        app.stop()
        app.stop()

    def test_endpoint_without_stages_is_pure_root(self, sim, rng_registry):
        specs = {"root": ServiceSpec("root", 0.003, 0.003)}
        _mesh, app = make_app(sim, rng_registry, specs, stages=())
        record = drive(sim, app)
        assert record.success
        assert record.latency_s < 0.010

    def test_needs_endpoints(self, sim, rng_registry):
        mesh = ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                           wan_link=quiet_wan())
        specs = {"root": ServiceSpec("root", 0.001, 0.001)}
        deploy_callgraph_services(mesh, specs)
        with pytest.raises(ConfigError):
            CallGraphApp(
                mesh, specs, [], root_service="root",
                client_cluster="cluster-1",
                balancer_factory=lambda s, n, src: RoundRobinBalancer(n),
                rng=rng_registry.stream("app"))

    def test_unknown_root_rejected(self, sim, rng_registry):
        mesh = ServiceMesh(sim, rng_registry, clusters=CLUSTERS,
                           wan_link=quiet_wan())
        specs = {"root": ServiceSpec("root", 0.001, 0.001)}
        deploy_callgraph_services(mesh, specs)
        with pytest.raises(ConfigError):
            CallGraphApp(
                mesh, specs, [EndpointSpec("e", 1.0, stages=())],
                root_service="ghost", client_cluster="cluster-1",
                balancer_factory=lambda s, n, src: RoundRobinBalancer(n),
                rng=rng_registry.stream("app"))
