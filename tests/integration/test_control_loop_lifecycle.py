"""Every owner of a control loop follows one start/stop rule."""

import types

import pytest

from repro.autoscale import AutoscalePolicy, SimAutoscaleSet
from repro.balancers.gradient import GradientConfig, GradientDescentBalancer
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.controller import L3Controller
from repro.mesh.mesh import ServiceMesh
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.profiles import constant_backend_profile

BACKENDS = ["svc/c1", "svc/c2"]
INTERVAL_S = 5.0


class NoDataSource:
    def collect(self, backend_names, now, window_s, percentile):
        return dict.fromkeys(backend_names)


def periodic_split(sim, rng_registry):
    balancer = PeriodicSplitBalancer(sim, "svc", BACKENDS, NoDataSource(),
                                     L3Controller)
    return (balancer.start, balancer.stop,
            lambda: balancer.controller.reconcile_count)


def gradient(sim, rng_registry):
    balancer = GradientDescentBalancer(
        BACKENDS, GradientConfig(update_interval_s=INTERVAL_S))
    return balancer.start, balancer.stop, lambda: balancer.update_count


def autoscale_set(sim, rng_registry):
    mesh = ServiceMesh(sim, rng_registry, clusters=["cluster-1"])
    mesh.deploy_service("svc", profiles={
        "cluster-1": constant_backend_profile(0.02, 0.06)})
    store = TimeSeriesStore()
    scalers = SimAutoscaleSet(
        mesh.deployment("svc"),
        {"cluster-1": AutoscalePolicy(interval_s=INTERVAL_S)},
        PromMetricsSource(store), Scraper(store),
        controller=types.SimpleNamespace(last_weights={}))
    # One weight sample per scaler tick; there is one scaler.
    return (scalers.start, lambda: scalers.stop(sim.now),
            lambda: len(scalers.weight_samples))


@pytest.mark.parametrize("build", [periodic_split, gradient, autoscale_set])
def test_start_is_a_no_op_while_running_and_restart_yields_one_loop(
        sim, rng_registry, build):
    start, stop, ticks = build(sim, rng_registry)
    start(sim)
    start(sim)
    sim.run(until=3.5 * INTERVAL_S)
    assert ticks() == 3
    stop()
    start(sim)
    sim.run(until=6.0 * INTERVAL_S)
    assert ticks() == 5  # t = 22.5, 27.5 — not 20, 25, 30 as well
    stop()
    sim.run()
    assert ticks() == 5
