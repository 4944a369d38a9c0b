"""Controller hardening: degraded mode, pause, rounding, stale decay."""

import math

import pytest

from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.config import L3Config
from repro.core.controller import L3Controller, MetricSample
from repro.core.introspection import ControllerIntrospection
from repro.core.state import BackendMetricState
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.names import DEGRADED_RECONCILES, PROXY_SAMPLE
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore

SAMPLES = {
    "a": MetricSample(0.05, 1.0, 100.0, 1.0),
    "b": MetricSample(0.10, 1.0, 100.0, 1.0),
}


class FlakySource:
    """Raises for the first ``failures`` collects, then serves samples."""

    def __init__(self, failures=0):
        self.failures = failures
        self.calls = 0

    def collect(self, backend_names, now, window_s, percentile):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("prometheus is down")
        return {name: SAMPLES.get(name) for name in backend_names}


class FlakySink:
    def __init__(self, failures=0):
        self.failures = failures
        self.writes = []

    def set_weights(self, weights, now):
        if len(self.writes) < self.failures:
            self.writes.append(None)
            raise RuntimeError("API server rejected the TrafficSplit")
        self.writes.append((now, dict(weights)))


def make_controller(source, sink, **config_kwargs):
    return L3Controller(["a", "b"], source, sink, L3Config(**config_kwargs))


class TestDegradedMode:
    def test_source_outage_holds_last_known_good_weights(self):
        source = FlakySource(failures=3)
        sink = FlakySink()
        controller = make_controller(source, sink)
        # One healthy reconcile establishes known-good weights.
        source.failures = 0
        good = controller.reconcile(5.0)
        assert controller.degraded_reconciles == 0
        # The source starts raising: every reconcile returns the held
        # weights, counts as degraded, and records the error.
        source.calls = 0
        source.failures = 3
        for i, t in enumerate((10.0, 15.0, 20.0), start=1):
            held = controller.reconcile(t)
            assert held == good
            assert controller.degraded_reconciles == i
            assert "ConnectionError" in controller.last_error
        assert controller.last_weights == good
        # Nothing new reached the sink during the outage.
        assert len(sink.writes) == 1
        # Recovery: the loop resumes where it left off.
        recovered = controller.reconcile(25.0)
        assert controller.last_error is None
        assert controller.reconcile_count == 2
        assert len(sink.writes) == 2
        assert recovered == controller.last_weights

    def test_sink_outage_degrades(self):
        source = FlakySource()
        sink = FlakySink(failures=1)
        controller = make_controller(source, sink)
        controller.reconcile(5.0)
        assert controller.degraded_reconciles == 1
        assert "RuntimeError" in controller.last_error
        assert controller.last_weights == {}
        controller.reconcile(10.0)
        assert controller.last_error is None
        assert controller.last_weights != {}

    def test_degraded_before_any_success_returns_empty(self):
        source = FlakySource(failures=1)
        controller = make_controller(source, FlakySink())
        assert controller.reconcile(5.0) == {}

    def test_degraded_reconciles_scraped(self):
        source = FlakySource(failures=1)
        controller = make_controller(source, FlakySink())
        store = TimeSeriesStore()
        scraper = Scraper(store)
        ControllerIntrospection(controller, prefix="l3").register(scraper)
        controller.reconcile(5.0)
        scraper.scrape_once(6.0)
        samples = store.series("l3", DEGRADED_RECONCILES).window(0.0, 10.0)
        assert samples[-1][1] == 1


class TestNonFiniteTelemetry:
    """One NaN counter sample must not stop the loop or poison the EWMAs.

    Regression: ``collect`` used to hand ``rps=nan, success_rate=nan`` to
    ``reconcile``, which died in ``BackendSnapshot`` — outside the
    degraded-mode ``try`` — with ``success rate … outside [0, 1]: nan``.
    """

    def test_nan_sample_decays_that_backend_and_the_loop_goes_on(self):
        store = TimeSeriesStore()
        scraper = Scraper(store)
        bundles = {name: BackendTelemetry(name) for name in ("a", "b")}
        for telemetry in bundles.values():
            scraper.register(telemetry)
        sink = FlakySink()
        controller = make_controller(
            PromMetricsSource(store), sink, staleness_s=10.0)

        def tick(now, poison=None):
            for telemetry in bundles.values():
                for _ in range(50):
                    telemetry.on_request_sent()
                    telemetry.on_response(0.05, success=True)
            scraper.scrape_once(now)
            if poison is not None:
                # What a live page carrying `requests_total{…} NaN` stores.
                series = store.series(poison, PROXY_SAMPLE)
                series._values[-1] = series._values[-1]._replace(
                    requests_total=math.nan)
            return controller.reconcile(now)

        tick(0.0)
        tick(5.0)
        learned = controller.backends["a"].latency.value
        assert learned < controller.config.default_latency_s
        # "a" exports NaN for 30 s: a window edge is NaN at every reconcile.
        poisoned = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        for now in poisoned:
            weights = tick(now, poison="a")
            assert weights == dict(sink.writes[-1][1])
            assert all(isinstance(w, int) and w >= 1
                       for w in weights.values())
        assert controller.degraded_reconciles == 0
        assert controller.reconcile_count == 2 + len(poisoned)
        state = controller.backends["a"]
        for ewma in (state.latency, state.success_rate, state.rps,
                     state.inflight, controller.total_rps_ewma):
            assert math.isfinite(ewma.value)
        # "a" read as no data and, once stale, drifted back toward the
        # default; "b", scraped by the same loop, kept learning.
        assert state.latency.value > learned
        assert controller.backends["b"].latency.value < learned
        # Two clean scrapes later the window holds no NaN edge any more.
        drifted = state.latency.value
        tick(45.0)
        tick(50.0)
        assert controller.metrics_source.collect(
            ["a"], 50.0, 10.0, 0.99)["a"] is None  # first edge: t=40
        tick(55.0)
        assert controller.metrics_source.collect(
            ["a"], 55.0, 10.0, 0.99)["a"].rps == 10.0
        assert state.latency.value < drifted


class TestHostileHistogram:
    """A row whose middle bucket goes backwards while ``+Inf`` grows.

    Regression: ``quantile_from_delta`` raised ``TelemetryError`` from
    inside ``collect``, so every backend held stale weights (one degraded
    reconcile, nothing pushed); in the failure buckets, with the dynamic
    penalty on, the error escaped ``reconcile`` and aborted the run.
    """

    def reconcile_with_poisoned_row(self, buckets, **config):
        store = TimeSeriesStore()
        scraper = Scraper(store)
        bundles = {name: BackendTelemetry(name) for name in ("a", "b")}
        for telemetry in bundles.values():
            scraper.register(telemetry)
        source = PromMetricsSource(store)
        controller = make_controller(source, FlakySink(), **config)
        for now in (0.0, 5.0):
            for telemetry in bundles.values():
                for latency, success in ((0.004, True), (0.3, False)):
                    telemetry.on_request_sent()
                    telemetry.on_response(latency, success)
            scraper.scrape_once(now)
        # "a"'s newest row: the finite bucket holding the observations
        # falls back to 0 (the first row had 1 there) while +Inf grows.
        series = store.series("a", PROXY_SAMPLE)
        row = series._values[-1]
        hostile = list(getattr(row, buckets))
        hostile[hostile.index(2)] = 0
        series._values[-1] = row._replace(**{buckets: tuple(hostile)})
        return source, controller, controller.reconcile(5.0)

    def test_success_buckets_decay_that_backend_only(self):
        source, controller, weights = self.reconcile_with_poisoned_row(
            "success_latency_buckets")
        assert controller.degraded_reconciles == 0
        assert set(weights) == {"a", "b"}
        assert source.collect(["a", "b"], 5.0, 10.0, 0.99)["a"] is None
        # "a" read as no data; "b", scraped alongside, was observed.
        assert controller.backends["a"].last_sample_time == 0.0
        assert controller.backends["b"].last_sample_time == 5.0

    def test_failure_buckets_hold_the_dynamic_penalty(self):
        source, controller, weights = self.reconcile_with_poisoned_row(
            "failure_latency_buckets", dynamic_penalty=True)
        assert controller.degraded_reconciles == 0
        assert set(weights) == {"a", "b"}
        assert source.failure_latency_quantile("a", 5.0, 10.0, 0.9) is None
        penalty_s = controller.config.weighting.penalty_s
        assert controller.backends["a"].failure_latency.value == penalty_s
        assert controller.backends["b"].failure_latency.value != penalty_s


class TestPauseResume:
    def test_paused_loop_skips_reconciles(self, sim):
        controller = make_controller(FlakySource(), FlakySink())
        balancer = PeriodicSplitBalancer(
            sim, "svc", ["a", "b"], lambda split: controller)
        balancer.start(sim)
        sim.run(until=11.0)
        assert controller.reconcile_count == 2  # t = 5, 10
        controller.pause()
        sim.run(until=21.0)
        assert controller.reconcile_count == 2  # stalled
        controller.resume()
        sim.run(until=26.0)
        assert controller.reconcile_count == 3  # t = 25
        balancer.stop()
        sim.run()
        assert controller.reconcile_count == 3


def raw_weights_are(monkeypatch, raw):
    """Make Algorithm 1 return ``raw[name]`` for every backend."""
    monkeypatch.setattr(BackendMetricState, "weight",
                        lambda state, config: raw[state.name])


class TestWeightRounding:
    def test_half_weights_round_up_not_to_even(self, monkeypatch):
        # Regression: int(round(2.5)) is 2 (banker's rounding); SMI
        # weights must round half *up* so equal backends stay equal.
        raw_weights_are(monkeypatch, {"a": 2.5, "b": 3.5})
        controller = make_controller(FlakySource(), FlakySink(),
                                     rate_control_enabled=False)
        weights = controller.reconcile(5.0)
        assert weights == {"a": 3, "b": 4}

    def test_sub_half_weight_floors_to_one(self, monkeypatch):
        raw_weights_are(monkeypatch, {"a": 0.2, "b": 900.0})
        controller = make_controller(FlakySource(), FlakySink(),
                                     rate_control_enabled=False)
        assert controller.reconcile(5.0) == {"a": 1, "b": 900}


class TestBackendRemoval:
    def test_remove_backend_purges_weight_snapshots(self):
        controller = make_controller(FlakySource(), FlakySink())
        controller.reconcile(5.0)
        assert "b" in controller.last_weights
        assert "b" in controller.last_raw_weights
        controller.remove_backend("b")
        assert "b" not in controller.last_weights
        assert "b" not in controller.last_raw_weights
        assert "a" in controller.last_weights


class TestStaleDecay:
    """§4 no-traffic behaviour under a multi-interval scrape outage."""

    def make_quiet_controller(self):
        """A controller that saw one real sample, then silence."""
        source = FlakySource()
        controller = make_controller(source, FlakySink())
        controller.reconcile(5.0)
        return controller

    def test_not_stale_within_staleness_window(self):
        controller = self.make_quiet_controller()
        state = controller.backends["a"]
        before = state.latency.value
        assert not state.is_stale(12.0)  # 7 s quiet < 10 s staleness
        # A reconcile without samples inside the window leaves the
        # filters untouched.
        controller.metrics_source.collect = (
            lambda names, now, window_s, percentile:
                {name: None for name in names})
        controller.reconcile(12.0)
        assert state.latency.value == before

    def test_multi_interval_outage_decays_toward_defaults(self):
        controller = self.make_quiet_controller()
        state = controller.backends["a"]
        default = controller.config.default_latency_s
        observed = state.latency.value
        assert observed < default  # 50 ms sample vs 5 s default
        controller.metrics_source.collect = (
            lambda names, now, window_s, percentile:
                {name: None for name in names})
        values = []
        for t in (20.0, 25.0, 30.0, 35.0, 40.0):
            assert state.is_stale(t)
            controller.reconcile(t)
            values.append(state.latency.value)
        # Monotone decay toward (but never past) the default.
        assert values == sorted(values)
        assert observed < values[0]
        assert values[-1] <= default
        # decay_fraction=0.1 per reconcile: five steps recover
        # 1 - 0.9^5 of the gap.
        expected = default - (default - observed) * 0.9 ** 5
        assert values[-1] == pytest.approx(expected, rel=1e-6)

    def test_success_rate_decays_up_toward_default(self):
        source = FlakySource()
        controller = make_controller(source, FlakySink())
        low = {
            "a": MetricSample(0.05, 0.2, 100.0, 1.0),
            "b": MetricSample(0.05, 0.2, 100.0, 1.0),
        }
        source.collect = (lambda names, now, window_s, percentile:
                          {name: low[name] for name in names})
        controller.reconcile(5.0)
        state = controller.backends["a"]
        after_sample = state.success_rate.value
        source.collect = (lambda names, now, window_s, percentile:
                          {name: None for name in names})
        for t in (20.0, 25.0, 30.0):
            controller.reconcile(t)
        assert state.success_rate.value > after_sample
        assert (state.success_rate.value
                <= controller.config.default_success_rate)
