"""Tests for the L3 controller reconcile loop."""

import pytest

from repro.core.config import L3Config
from repro.core.controller import L3Controller, MetricSample
from repro.errors import ConfigError


class FakeSource:
    """Scriptable metrics source."""

    def __init__(self):
        self.samples = {}
        self.calls = []

    def collect(self, backend_names, now, window_s, percentile):
        self.calls.append((tuple(backend_names), now, window_s, percentile))
        return {name: self.samples.get(name) for name in backend_names}


class FakeSink:
    def __init__(self):
        self.writes = []

    def set_weights(self, weights, now):
        self.writes.append((now, dict(weights)))


@pytest.fixture
def source():
    return FakeSource()


@pytest.fixture
def sink():
    return FakeSink()


def make_controller(source, sink, backends=("a", "b"), **config_kwargs):
    return L3Controller(
        list(backends), source, sink, L3Config(**config_kwargs))


class TestConstruction:
    def test_requires_backends(self, source, sink):
        with pytest.raises(ConfigError):
            L3Controller([], source, sink)

    def test_rejects_duplicates(self, source, sink):
        with pytest.raises(ConfigError):
            L3Controller(["a", "a"], source, sink)


class TestReconcile:
    def test_queries_configured_window_and_percentile(self, source, sink):
        controller = make_controller(source, sink, percentile=0.98)
        controller.reconcile(5.0)
        (_names, now, window, percentile) = source.calls[0]
        assert now == 5.0
        assert window == 10.0
        assert percentile == 0.98

    def test_pushes_integer_weights(self, source, sink):
        source.samples = {
            "a": MetricSample(0.05, 1.0, 100.0, 1.0),
            "b": MetricSample(0.50, 1.0, 100.0, 1.0),
        }
        controller = make_controller(source, sink)
        controller.reconcile(5.0)
        _now, weights = sink.writes[-1]
        assert all(isinstance(weight, int) for weight in weights.values())
        assert all(weight >= 1 for weight in weights.values())

    def test_faster_backend_gets_higher_weight(self, source, sink):
        source.samples = {
            "a": MetricSample(0.05, 1.0, 100.0, 1.0),
            "b": MetricSample(0.50, 1.0, 100.0, 1.0),
        }
        controller = make_controller(source, sink)
        for t in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            controller.reconcile(t)
        weights = controller.last_weights
        assert weights["a"] > weights["b"]

    def test_lower_success_rate_lowers_weight(self, source, sink):
        source.samples = {
            "a": MetricSample(0.10, 1.0, 100.0, 1.0),
            "b": MetricSample(0.10, 0.50, 100.0, 1.0),
        }
        controller = make_controller(source, sink)
        for t in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            controller.reconcile(t)
        weights = controller.last_weights
        assert weights["a"] > weights["b"]

    def test_missing_samples_trigger_decay_after_staleness(self, source, sink):
        source.samples = {
            "a": MetricSample(0.9, 1.0, 100.0, 1.0),
            "b": MetricSample(0.9, 1.0, 100.0, 1.0),
        }
        controller = make_controller(source, sink)
        controller.reconcile(5.0)
        latency_after_sample = controller.backends["a"].latency.value
        # Backend goes dark: no samples, beyond the 10 s staleness window.
        source.samples = {}
        controller.reconcile(20.0)
        latency_after_decay = controller.backends["a"].latency.value
        # Decay pulls back toward the 5 s default (i.e. upward from 0.9).
        assert latency_after_decay > latency_after_sample

    def test_rate_control_disabled_leaves_raw_weights(self, source, sink):
        source.samples = {
            "a": MetricSample(0.05, 1.0, 200.0, 1.0),
            "b": MetricSample(0.50, 1.0, 200.0, 1.0),
        }
        controller = make_controller(source, sink,
                                     rate_control_enabled=False)
        controller.reconcile(5.0)
        assert controller.last_relative_change == 0.0
        raw = controller.last_raw_weights
        pushed = controller.last_weights
        for name in raw:
            assert pushed[name] == max(int(round(raw[name])), 1)

    def test_rps_surge_flattens_weights(self, source, sink):
        low = {
            "a": MetricSample(0.05, 1.0, 50.0, 1.0),
            "b": MetricSample(0.50, 1.0, 50.0, 1.0),
        }
        surge = {
            "a": MetricSample(0.05, 1.0, 500.0, 1.0),
            "b": MetricSample(0.50, 1.0, 500.0, 1.0),
        }
        source.samples = low
        controller = make_controller(source, sink)
        for t in range(1, 30):
            controller.reconcile(float(t * 5))
        steady = dict(controller.last_weights)
        source.samples = surge
        controller.reconcile(150.0)
        surged = controller.last_weights
        assert controller.last_relative_change > 0
        steady_ratio = steady["a"] / steady["b"]
        surged_ratio = surged["a"] / surged["b"]
        assert surged_ratio < steady_ratio

    def test_reconcile_count_increments(self, source, sink):
        controller = make_controller(source, sink)
        controller.reconcile(5.0)
        controller.reconcile(10.0)
        assert controller.reconcile_count == 2


class TestRunLoop:
    def test_run_reconciles_on_interval(self, sim, source, sink):
        source.samples = {
            "a": MetricSample(0.05, 1.0, 100.0, 1.0),
            "b": MetricSample(0.10, 1.0, 100.0, 1.0),
        }
        controller = make_controller(source, sink)
        loop = sim.every(controller.config.reconcile_interval_s,
                         controller.reconcile)
        sim.run(until=26.0)
        assert controller.reconcile_count == 5  # t = 5, 10, 15, 20, 25
        loop.cancel()
        sim.run()
        assert controller.reconcile_count == 5
