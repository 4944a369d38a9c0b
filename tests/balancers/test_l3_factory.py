"""Tests for the periodic-split balancer over L3 and the balancer factory."""

import pytest

from repro.balancers.c3 import C3Controller
from repro.balancers.factory import BALANCER_NAMES, make_balancer
from repro.balancers.p2c import P2cPeakEwmaBalancer
from repro.balancers.round_robin import RoundRobinBalancer
from repro.core.config import L3Config
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.controller import L3Controller, MetricSample
from repro.core.ewma import PeakEwma
from repro.errors import ConfigError


class FakeSource:
    def __init__(self, samples=None):
        self.samples = samples or {}

    def collect(self, backend_names, now, window_s, percentile):
        return {name: self.samples.get(name) for name in backend_names}

    def server_queue(self, name, now, window_s):
        return 0.0


BACKENDS = ["svc/c1", "svc/c2"]


def l3_balancer(sim, source, **kwargs):
    return PeriodicSplitBalancer(sim, "svc", BACKENDS, source, L3Controller,
                                 **kwargs)


class TestL3Balancer:
    def test_control_loop_adjusts_split(self, sim):
        source = FakeSource({
            "svc/c1": MetricSample(0.05, 1.0, 100.0, 1.0),
            "svc/c2": MetricSample(0.50, 1.0, 100.0, 1.0),
        })
        balancer = l3_balancer(sim, source, propagation_delay_s=0.0)
        balancer.start(sim)
        sim.run(until=61.0)
        balancer.stop()
        sim.run(until=62.0)
        weights = balancer.split.weights
        assert weights["svc/c1"] > weights["svc/c2"]

    def test_start_twice_is_idempotent(self, sim):
        balancer = l3_balancer(sim, FakeSource())
        balancer.start(sim)
        loop = balancer._loop
        balancer.start(sim)
        assert balancer._loop is loop
        balancer.stop()

    def test_stop_without_start(self, sim):
        l3_balancer(sim, FakeSource()).stop()

    def test_pick_uses_split(self, sim, rng):
        balancer = l3_balancer(sim, FakeSource())
        assert balancer.pick(rng, 0.0) in BACKENDS


class TestFactory:
    def test_all_names_construct(self, sim):
        for name in BALANCER_NAMES:
            balancer = make_balancer(
                name, sim, "svc", BACKENDS, FakeSource())
            assert balancer is not None

    def test_types(self, sim):
        source = FakeSource()
        assert isinstance(
            make_balancer("round-robin", sim, "svc", BACKENDS, source),
            RoundRobinBalancer)
        assert isinstance(
            make_balancer("c3", sim, "svc", BACKENDS, source).controller,
            C3Controller)
        assert isinstance(
            make_balancer("l3", sim, "svc", BACKENDS, source).controller,
            L3Controller)
        assert isinstance(
            make_balancer("p2c", sim, "svc", BACKENDS, source),
            P2cPeakEwmaBalancer)

    def test_unknown_name_rejected(self, sim):
        with pytest.raises(ConfigError):
            make_balancer("magic", sim, "svc", BACKENDS, FakeSource())

    def test_l3_peak_forces_peak_ewma(self, sim):
        balancer = make_balancer(
            "l3-peak", sim, "svc", BACKENDS, FakeSource())
        state = next(iter(balancer.controller.backends.values()))
        assert isinstance(state.latency, PeakEwma)

    def test_plain_l3_forces_peak_off(self, sim):
        config = L3Config(use_peak_ewma=True)
        balancer = make_balancer(
            "l3", sim, "svc", BACKENDS, FakeSource(), l3_config=config)
        state = next(iter(balancer.controller.backends.values()))
        assert not isinstance(state.latency, PeakEwma)

    def test_l3_config_passthrough(self, sim):
        config = L3Config(percentile=0.98)
        balancer = make_balancer(
            "l3", sim, "svc", BACKENDS, FakeSource(), l3_config=config)
        assert balancer.config.percentile == 0.98
