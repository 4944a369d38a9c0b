"""Microbenchmarks of the control-path primitives.

These measure the per-operation cost of the pieces that run in the
production controller's hot path (the paper's Go operator uses <1.5 % of a
vCPU): EWMA updates, the weighting algorithm, rate control, histogram
observation and quantile queries, and the simulator's event throughput.
"""

from __future__ import annotations

import random

from repro.core.ewma import Ewma, PeakEwma, half_life_to_beta
from repro.core.rate_control import apply_rate_control
from repro.core.weighting import BackendSnapshot, WeightingConfig, compute_weights
from repro.sim.engine import Simulator
from repro.telemetry.histogram import LatencyHistogram


def test_ewma_observe_throughput(benchmark):
    def observe_many():
        ewma = Ewma(default=0.1, beta=half_life_to_beta(5.0))
        for i in range(1000):
            ewma.observe(0.05 + (i % 7) * 0.01, float(i))
        return ewma.value

    value = benchmark(observe_many)
    assert value > 0


def test_peak_ewma_observe_throughput(benchmark):
    def observe_many():
        ewma = PeakEwma(default=0.1, beta=half_life_to_beta(5.0))
        for i in range(1000):
            ewma.observe(0.05 + (i % 11) * 0.02, float(i))
        return ewma.value

    value = benchmark(observe_many)
    assert value > 0


def test_weighting_algorithm(benchmark):
    snapshots = [
        BackendSnapshot(f"backend-{i}", 0.01 * (i + 1), 0.99, 100.0, 2.0)
        for i in range(16)
    ]
    config = WeightingConfig()

    weights = benchmark(compute_weights, snapshots, config)
    assert len(weights) == 16


def test_rate_control_algorithm(benchmark):
    weights = {f"backend-{i}": 1000.0 + 100.0 * i for i in range(16)}

    adjusted = benchmark(apply_rate_control, weights, 200.0, 260.0)
    assert len(adjusted) == 16


def test_histogram_observe(benchmark):
    histogram = LatencyHistogram()
    rng = random.Random(7)
    samples = [rng.lognormvariate(-3.0, 0.8) for _ in range(1000)]

    def observe_many():
        for sample in samples:
            histogram.observe(sample)
        return histogram.count

    count = benchmark(observe_many)
    assert count > 0


def test_histogram_quantile(benchmark):
    histogram = LatencyHistogram()
    rng = random.Random(7)
    for _ in range(10_000):
        histogram.observe(rng.lognormvariate(-3.0, 0.8))

    p99 = benchmark(histogram.quantile, 0.99)
    assert p99 > 0


def test_full_reconcile_cycle(benchmark):
    """One complete controller reconcile over three backends.

    §4 reports the Go operator using under 1.5 % of a vCPU; the loop runs
    once per five seconds, so a reconcile in the tens of microseconds is
    far inside that envelope even in Python.
    """
    from repro.core.config import L3Config
    from repro.core.controller import L3Controller, MetricSample

    class Source:
        def collect(self, names, now, window_s, percentile):
            return {
                name: MetricSample(0.05 + i * 0.01, 0.99, 100.0, 2.0)
                for i, name in enumerate(names)
            }

    class Sink:
        def set_weights(self, weights, now):
            pass

    controller = L3Controller(
        ["svc/c1", "svc/c2", "svc/c3"], Source(), Sink(), L3Config())
    clock = {"now": 0.0}

    def reconcile_once():
        clock["now"] += 5.0
        return controller.reconcile(clock["now"])

    weights = benchmark(reconcile_once)
    assert len(weights) == 3


def test_simulator_event_throughput(benchmark):
    def run_events():
        sim = Simulator()
        counter = {"fired": 0}

        def tick():
            counter["fired"] += 1

        for i in range(10_000):
            sim.call_at(i * 0.001, tick)
        sim.run()
        return counter["fired"]

    fired = benchmark(run_events)
    assert fired == 10_000
