"""Tests for the decorator-based balancer registry."""

import pytest

from repro.balancers import (
    C3Controller,
    EwmaLatencyBalancer,
    FailoverBalancer,
    GradientDescentBalancer,
    KnapsackLbController,
    LeastOutstandingBalancer,
    P2cPeakEwmaBalancer,
    PeriodicSplitBalancer,
    RoundRobinBalancer,
    ServiceRateController,
)
from repro.balancers.factory import (
    BALANCER_NAMES,
    balancer_specs,
    controller_balancer_names,
    make_balancer,
    register_balancer,
)
from repro.bench.coordinator import ScenarioBenchConfig, run_scenario_benchmark
from repro.core.controller import L3Controller, MetricSample
from repro.errors import ConfigError

BACKENDS = ["api/cluster-1", "api/cluster-2"]

EXPECTED_CLASSES = {
    "round-robin": RoundRobinBalancer,
    "c3": PeriodicSplitBalancer,
    "l3": PeriodicSplitBalancer,
    "l3-peak": PeriodicSplitBalancer,
    "p2c": P2cPeakEwmaBalancer,
    "failover": FailoverBalancer,
    "least-outstanding": LeastOutstandingBalancer,
    "ewma": EwmaLatencyBalancer,
    "knapsack": PeriodicSplitBalancer,
    "gradient": GradientDescentBalancer,
    "service-rate": PeriodicSplitBalancer,
}

EXPECTED_CONTROLLERS = {
    "c3": C3Controller,
    "l3": L3Controller,
    "l3-peak": L3Controller,
    "knapsack": KnapsackLbController,
    "service-rate": ServiceRateController,
}


class FakeSource:
    def collect(self, backend_names, now, window_s, percentile):
        return {name: None for name in backend_names}


class OutageSource:
    """Serves a fast and a slow backend until ``down`` is set."""

    SAMPLES = {
        "api/cluster-1": MetricSample(0.05, 1.0, 100.0, 1.0,
                                      mean_latency_s=0.02),
        "api/cluster-2": MetricSample(0.50, 1.0, 100.0, 8.0,
                                      mean_latency_s=0.30),
    }

    def __init__(self):
        self.down = False

    def collect(self, backend_names, now, window_s, percentile):
        if self.down:
            raise ConnectionError("prometheus is down")
        return {name: self.SAMPLES[name] for name in backend_names}


class TestRegistry:
    def test_names_derive_from_registry(self):
        assert BALANCER_NAMES == tuple(
            spec.name for spec in balancer_specs())
        # The original six stay first, in their historical order (CLI
        # choices and docs depend on it).
        assert BALANCER_NAMES[:6] == (
            "round-robin", "c3", "l3", "l3-peak", "p2c", "failover")
        assert len(BALANCER_NAMES) >= 9

    def test_every_name_builds_its_class(self, sim):
        for name, expected in EXPECTED_CLASSES.items():
            balancer = make_balancer(
                name, sim, "api", BACKENDS, FakeSource(),
                local_cluster="cluster-1")
            assert isinstance(balancer, expected), name
            if name in EXPECTED_CONTROLLERS:
                assert type(balancer.controller) is \
                    EXPECTED_CONTROLLERS[name], name

    def test_unknown_name_lists_valid_set(self, sim):
        with pytest.raises(ConfigError, match="round-robin"):
            make_balancer("psychic", sim, "api", BACKENDS, FakeSource())

    def test_controller_flag_matches_reality(self, sim):
        controller_names = controller_balancer_names()
        for name in BALANCER_NAMES:
            balancer = make_balancer(
                name, sim, "api", BACKENDS, FakeSource(),
                local_cluster="cluster-1")
            has_controller = getattr(balancer, "controller", None) is not None
            assert has_controller == (name in controller_names), name

    def test_controller_interface_uniform(self, sim):
        """Every controller exposes the pause/introspection surface the
        fault injector and the coordinator program against."""
        for name in controller_balancer_names():
            balancer = make_balancer(
                name, sim, "api", BACKENDS, FakeSource())
            controller = balancer.controller
            assert hasattr(controller, "reconcile")
            assert hasattr(controller, "pause")
            assert hasattr(controller, "resume")
            assert controller.reconcile_count == 0
            assert controller.last_weights == {}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="registered twice"):
            register_balancer("l3", summary="imposter")(lambda ctx: None)

    def test_specs_have_summaries(self):
        for spec in balancer_specs():
            assert spec.summary, spec.name

    def test_l3_peak_flag_forced(self, sim):
        plain = make_balancer("l3", sim, "api", BACKENDS, FakeSource())
        peak = make_balancer("l3-peak", sim, "api", BACKENDS, FakeSource())
        assert plain.config.use_peak_ewma is False
        assert peak.config.use_peak_ewma is True

    def test_failover_prefers_local_cluster(self, sim):
        balancer = make_balancer(
            "failover", sim, "api", BACKENDS, FakeSource(),
            local_cluster="cluster-2")
        assert balancer._order[0] == "api/cluster-2"


@pytest.mark.parametrize("name", BALANCER_NAMES)
def test_every_registered_name_runs_a_small_scenario(name):
    """Each builder imports its own class when called; a run through the
    coordinator proves every one of those imports, and the wiring, works."""
    result = run_scenario_benchmark(
        "scenario-1", name, duration_s=5.0, seed=1,
        env=ScenarioBenchConfig(warmup_s=5.0, drain_s=2.0))
    assert result.algorithm == name
    assert result.records and result.success_rate > 0.0


@pytest.mark.parametrize("name", controller_balancer_names())
def test_failing_metrics_source_holds_the_last_weights(sim, name):
    """Every controller runs the one reconcile loop, degraded mode
    included: a metrics outage keeps the last-known-good weights."""
    source = OutageSource()
    balancer = make_balancer(name, sim, "api", BACKENDS, source,
                             propagation_delay_s=0.0)
    controller = balancer.controller
    good = controller.reconcile(5.0)
    assert controller.last_weights == good
    pushed = balancer.split.weights
    source.down = True
    assert controller.reconcile(10.0) == good
    assert controller.last_weights == good
    assert controller.degraded_reconciles == 1
    assert "ConnectionError" in controller.last_error
    assert balancer.split.weights == pushed


@pytest.mark.parametrize("name", controller_balancer_names())
def test_loop_cadence_is_the_controller_config_interval(sim, name):
    balancer = make_balancer(name, sim, "api", BACKENDS, FakeSource())
    assert isinstance(balancer, PeriodicSplitBalancer)
    interval_s = balancer.controller.config.reconcile_interval_s
    balancer.start(sim)
    sim.run(until=3 * interval_s + 0.5 * interval_s)
    balancer.stop()
    sim.run()
    assert balancer.controller.reconcile_count == 3
