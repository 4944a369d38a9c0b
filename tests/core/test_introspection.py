"""Tests for controller introspection (§4 observability)."""

import pytest

from repro.core.config import L3Config
from repro.core.controller import L3Controller, MetricSample
from repro.core.introspection import ControllerIntrospection
from repro.telemetry.names import (
    LATENCY_EWMA_S,
    RECONCILE_COUNT,
    RELATIVE_CHANGE,
    WEIGHT,
)
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore


class StaticSource:
    def __init__(self, samples):
        self.samples = samples

    def collect(self, backend_names, now, window_s, percentile):
        return {name: self.samples.get(name) for name in backend_names}


class NullSink:
    def set_weights(self, weights, now):
        pass


@pytest.fixture
def wired(sim):
    samples = {
        "svc/c1": MetricSample(0.05, 1.0, 100.0, 1.0),
        "svc/c2": MetricSample(0.40, 1.0, 100.0, 1.0),
    }
    controller = L3Controller(
        list(samples), StaticSource(samples), NullSink(), L3Config())
    store = TimeSeriesStore()
    scraper = Scraper(store, interval_s=5.0)
    introspection = ControllerIntrospection(controller, prefix="l3")
    introspection.register(scraper)
    return sim, controller, store, scraper, introspection


class TestIntrospection:
    def test_weights_scraped_per_backend(self, wired):
        sim, controller, store, scraper, introspection = wired
        sim.every(controller.config.reconcile_interval_s,
                  controller.reconcile)
        sim.every(scraper.interval_s, scraper.tick)
        sim.run(until=31.0)
        history = introspection.weight_series(store, "svc/c1", 0.0, 31.0)
        assert len(history) == 6  # scrapes at 5..30 s
        final = history[-1][1]
        other = introspection.weight_series(
            store, "svc/c2", 0.0, 31.0)[-1][1]
        assert final > other  # faster backend, higher weight

    def test_ewma_values_exposed(self, wired):
        sim, controller, store, scraper, _intro = wired
        sim.every(controller.config.reconcile_interval_s,
                  controller.reconcile)
        sim.every(scraper.interval_s, scraper.tick)
        sim.run(until=31.0)
        latency = store.series("l3|svc/c1", LATENCY_EWMA_S).window(0, 31)
        values = [v for _t, v in latency]
        # Converging from the 5 s default down toward the 50 ms signal.
        assert values[0] > values[-1]
        assert values[-1] < 1.0

    def test_controller_wide_series(self, wired):
        sim, controller, store, scraper, _intro = wired
        sim.every(controller.config.reconcile_interval_s,
                  controller.reconcile)
        sim.every(scraper.interval_s, scraper.tick)
        sim.run(until=31.0)
        count = store.series("l3", RECONCILE_COUNT).window(0, 31)
        values = [v for _t, v in count]
        # One reconcile per 5 s tick; the same-tick ordering between the
        # reconcile and the scrape is an implementation detail, so accept
        # either off-by-one alignment — but the count must step by 1.
        assert len(values) == 6
        assert all(b - a == 1.0 for a, b in zip(values, values[1:]))
        change = store.series("l3", RELATIVE_CHANGE).window(0, 31)
        assert len(change) == 6

    def test_weights_before_first_reconcile_are_zero(self, wired):
        sim, _controller, store, scraper, _intro = wired
        scraper.scrape_once(0.0)
        weight = store.series("l3|svc/c1", WEIGHT).window(0, 1)[0][1]
        assert weight == 0.0
