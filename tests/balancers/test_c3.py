"""Tests for the C3 adaptation."""

import math

import pytest

from repro.balancers.c3 import C3Config, C3Controller, c3_score
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.controller import MetricSample
from repro.errors import ConfigError


class FakeSource:
    def __init__(self):
        self.samples = {}
        self.queues = {}

    def collect(self, backend_names, now, window_s, percentile):
        return {name: self.samples.get(name) for name in backend_names}

    def server_queue(self, name, now, window_s):
        return self.queues.get(name, 0.0)


class FakeSink:
    def __init__(self):
        self.writes = []

    def set_weights(self, weights, now):
        self.writes.append((now, dict(weights)))


class TestConfig:
    def test_defaults(self):
        config = C3Config()
        assert config.latency_signal == "mean"
        assert config.queue_signal == "server"
        assert config.reconcile_interval_s == 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            C3Config(latency_signal="p42")
        with pytest.raises(ConfigError):
            C3Config(queue_signal="psychic")
        with pytest.raises(ConfigError):
            C3Config(weight_scale=0.0)
        with pytest.raises(ConfigError):
            C3Config(percentile=0.0)


class TestScore:
    def test_zero_queue_score_is_latency(self):
        assert math.isclose(c3_score(0.1, 0.0), 0.1)

    def test_score_grows_cubically_with_queue(self):
        base = c3_score(0.1, 0.0)
        loaded = c3_score(0.1, 3.0)
        # q=3: T = R/4, psi = R - R/4 + 64 R/4 = 16.75 R
        assert math.isclose(loaded / base, 16.75)

    def test_lower_latency_lower_score(self):
        assert c3_score(0.05, 1.0) < c3_score(0.5, 1.0)

    def test_score_never_zero(self):
        assert c3_score(0.0, 0.0) > 0.0

    def test_negative_queue_clamped(self):
        assert c3_score(0.1, -5.0) == c3_score(0.1, 0.0)


class TestController:
    def test_needs_backends(self):
        with pytest.raises(ConfigError):
            C3Controller([], FakeSource(), FakeSink())

    def test_prefers_faster_backend(self):
        source = FakeSource()
        source.samples = {
            "fast": MetricSample(0.2, 1.0, 100.0, 1.0, mean_latency_s=0.05),
            "slow": MetricSample(0.9, 1.0, 100.0, 1.0, mean_latency_s=0.50),
        }
        sink = FakeSink()
        controller = C3Controller(["fast", "slow"], source, sink)
        for t in range(1, 10):
            controller.reconcile(float(t * 5))
        weights = controller.last_weights
        assert weights["fast"] > weights["slow"]

    def test_queue_buildup_penalised(self):
        source = FakeSource()
        source.samples = {
            "a": MetricSample(0.2, 1.0, 100.0, 1.0, mean_latency_s=0.1),
            "b": MetricSample(0.2, 1.0, 100.0, 1.0, mean_latency_s=0.1),
        }
        source.queues = {"a": 8.0, "b": 0.0}
        sink = FakeSink()
        controller = C3Controller(["a", "b"], source, sink)
        for t in range(1, 10):
            controller.reconcile(float(t * 5))
        weights = controller.last_weights
        assert weights["b"] > weights["a"] * 3

    def test_percentile_signal_configurable(self):
        source = FakeSource()
        source.samples = {
            "a": MetricSample(0.9, 1.0, 100.0, 1.0, mean_latency_s=0.05),
            "b": MetricSample(0.1, 1.0, 100.0, 1.0, mean_latency_s=0.50),
        }
        sink = FakeSink()
        controller = C3Controller(
            ["a", "b"], source, sink,
            C3Config(latency_signal="percentile"))
        for t in range(1, 10):
            controller.reconcile(float(t * 5))
        # With the percentile signal, "b" (P99 0.1 s) looks better.
        assert controller.last_weights["b"] > controller.last_weights["a"]

    def test_success_rate_is_ignored(self):
        # The paper's adaptation performs no success-rate optimisation.
        source = FakeSource()
        source.samples = {
            "healthy": MetricSample(0.2, 1.0, 100.0, 1.0, mean_latency_s=0.1),
            "failing": MetricSample(0.2, 0.1, 100.0, 1.0, mean_latency_s=0.1),
        }
        sink = FakeSink()
        controller = C3Controller(["healthy", "failing"], source, sink)
        for t in range(1, 6):
            controller.reconcile(float(t * 5))
        weights = controller.last_weights
        assert abs(weights["healthy"] - weights["failing"]) <= 1

    def test_missing_sample_keeps_previous_state(self):
        source = FakeSource()
        source.samples = {
            "a": MetricSample(0.2, 1.0, 100.0, 1.0, mean_latency_s=0.1),
        }
        sink = FakeSink()
        controller = C3Controller(["a", "b"], source, sink)
        controller.reconcile(5.0)
        # "b" had no sample: it stays at the 5 s default latency.
        assert controller.backends["b"].latency.value == 5.0


class TestC3Balancer:
    def test_runs_control_loop(self, sim):
        source = FakeSource()
        source.samples = {
            "svc/c1": MetricSample(0.2, 1.0, 100.0, 1.0, mean_latency_s=0.05),
            "svc/c2": MetricSample(0.9, 1.0, 100.0, 1.0, mean_latency_s=0.50),
        }
        balancer = PeriodicSplitBalancer(
            sim, "svc", ["svc/c1", "svc/c2"], source, C3Controller,
            propagation_delay_s=0.0)
        balancer.start(sim)
        sim.run(until=60.0)
        balancer.stop()
        sim.run(until=61.0)
        assert balancer.controller.reconcile_count == 12
        assert balancer.split.weights["svc/c1"] > balancer.split.weights["svc/c2"]
