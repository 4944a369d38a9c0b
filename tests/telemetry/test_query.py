"""Tests for the windowed metrics queries (the controller's data source)."""

import math

import pytest

from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.names import PROXY_SAMPLE
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore


def scraped_traffic(latencies_and_outcomes, scrape_times, name="b",
                    scrape_name=None, inflight_at_end=0):
    """Build a store by replaying completed requests then scraping."""
    store = TimeSeriesStore()
    scraper = Scraper(store)
    telemetry = BackendTelemetry(name, scrape_name=scrape_name)
    scraper.register(telemetry)
    # First scrape with no traffic, then traffic, then the closing scrape.
    scraper.scrape_once(scrape_times[0])
    for latency, success in latencies_and_outcomes:
        telemetry.on_request_sent()
        telemetry.on_response(latency, success)
    for _ in range(inflight_at_end):
        telemetry.on_request_sent()
    for when in scrape_times[1:]:
        scraper.scrape_once(when)
    return store


class TestCollect:
    def test_rps_is_delta_over_elapsed(self):
        store = scraped_traffic(
            [(0.01, True)] * 50, scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.rps, 5.0)  # 50 requests over 10 s

    def test_success_rate_from_failure_delta(self):
        store = scraped_traffic(
            [(0.01, True)] * 90 + [(0.01, False)] * 10,
            scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.success_rate, 0.9)

    def test_no_traffic_yields_none(self):
        store = scraped_traffic([], scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)
        assert source.collect(["b"], 10.0, 10.0, 0.99)["b"] is None

    def test_single_scrape_in_window_yields_none(self):
        store = scraped_traffic([(0.01, True)], scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        # Window covers only the last scrape: rate() needs two samples.
        assert source.collect(["b"], 10.0, 5.0, 0.99)["b"] is None

    def test_all_failures_gives_none_latency(self):
        store = scraped_traffic(
            [(0.01, False)] * 10, scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert sample is not None
        assert sample.latency_s is None
        assert sample.success_rate == 0.0

    def test_percentile_reflects_distribution(self):
        store = scraped_traffic(
            [(0.010, True)] * 99 + [(1.0, True)], scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        p50 = source.collect(["b"], 10.0, 10.0, 0.50)["b"].latency_s
        p999 = source.collect(["b"], 10.0, 10.0, 0.999)["b"].latency_s
        assert p50 < 0.05
        assert p999 > 0.5

    def test_mean_latency(self):
        store = scraped_traffic(
            [(0.010, True)] * 50 + [(0.030, True)] * 50,
            scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert math.isclose(sample.mean_latency_s, 0.020, rel_tol=1e-9)

    def test_inflight_from_latest_gauge(self):
        store = scraped_traffic(
            [(0.01, True)] * 10, scrape_times=(0.0, 10.0),
            inflight_at_end=4)
        source = PromMetricsSource(store)
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert sample.inflight == 4.0

    def test_unknown_backend_is_none(self):
        source = PromMetricsSource(TimeSeriesStore())
        assert source.collect(["ghost"], 10.0, 10.0, 0.99)["ghost"] is None


class TestScoping:
    def test_scoped_source_reads_prefixed_series(self):
        store = scraped_traffic(
            [(0.01, True)] * 20, scrape_times=(0.0, 10.0),
            scrape_name="cluster-1|b")
        scoped = PromMetricsSource(store, scope="cluster-1")
        unscoped = PromMetricsSource(store)
        assert scoped.collect(["b"], 10.0, 10.0, 0.99)["b"] is not None
        assert unscoped.collect(["b"], 10.0, 10.0, 0.99)["b"] is None


class TestServerQueue:
    def test_reads_latest_server_gauge(self):
        store = TimeSeriesStore()
        scraper = Scraper(store)
        scraper.register_gauge("server|b", "server_queue", lambda: 6.0)
        scraper.scrape_once(5.0)
        source = PromMetricsSource(store)
        assert source.server_queue("b", 10.0, 10.0) == 6.0

    def test_missing_series_returns_zero(self):
        source = PromMetricsSource(TimeSeriesStore())
        assert source.server_queue("b", 10.0, 10.0) == 0.0


class TestFailureLatency:
    def test_failure_latency_quantile(self):
        store = scraped_traffic(
            [(0.5, False)] * 20 + [(0.01, True)] * 20,
            scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        q = source.failure_latency_quantile("b", 10.0, 10.0, 0.5)
        assert q is not None and q > 0.3

    def test_no_failures_returns_none(self):
        store = scraped_traffic(
            [(0.01, True)] * 20, scrape_times=(0.0, 10.0))
        source = PromMetricsSource(store)
        assert source.failure_latency_quantile("b", 10.0, 10.0, 0.5) is None


class TestScopedNameMemoization:
    """Series handles are resolved once per backend, not once per query."""

    def test_scoped_names_built_once_and_reused(self):
        store = TimeSeriesStore()
        source = PromMetricsSource(store, scope="cluster-1")
        first = source._proxy_series("b")
        assert first is store.series("cluster-1|b", PROXY_SAMPLE)
        assert source._proxy_series("b") is first
        assert source._proxy_handles == {"b": first}

    def test_unscoped_source_reads_the_bare_series(self):
        store = TimeSeriesStore()
        source = PromMetricsSource(store)
        assert source._proxy_series("b") is store.series("b", PROXY_SAMPLE)

    def test_server_names_memoized(self):
        store = TimeSeriesStore()
        source = PromMetricsSource(store, scope="cluster-1")
        source.server_queue("b", 10.0, 10.0)
        handle = source._server_handles["b", "server_queue"]
        assert handle is store.series("server|b", "server_queue")
        source.server_queue("b", 20.0, 10.0)
        assert source._server_handles == {("b", "server_queue"): handle}

    def test_collect_uses_memoized_names(self):
        store = scraped_traffic(
            [(0.01, True)] * 10, scrape_times=(0.0, 10.0),
            scrape_name="cluster-1|b")
        source = PromMetricsSource(store, scope="cluster-1")
        source.collect(["b"], 10.0, 10.0, 0.99)
        cached = source._proxy_handles["b"]
        lookups = []
        store.series = lambda *key: lookups.append(key)  # must not be hit
        sample = source.collect(["b"], 10.0, 10.0, 0.99)["b"]
        assert sample is not None
        assert source._proxy_handles["b"] is cached
        assert lookups == []


class TestNoTrafficDecayPath:
    """No traffic in the window -> None -> controller decay-toward-default."""

    def test_traffic_outside_window_yields_none(self):
        store = scraped_traffic(
            [(0.01, True)] * 20, scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)
        # Plenty of traffic before t=10, none in the (40, 50] window.
        assert source.collect(["b"], 50.0, 10.0, 0.99)["b"] is None

    def test_controller_decays_toward_defaults_on_none(self):
        from repro.core.config import L3Config
        from repro.core.controller import L3Controller

        store = scraped_traffic(
            [(0.2, True)] * 200, scrape_times=(0.0, 5.0, 10.0))
        source = PromMetricsSource(store)

        class Sink:
            def set_weights(self, weights, now):
                pass

        config = L3Config(staleness_s=10.0, decay_fraction=0.5)
        controller = L3Controller(["b"], source, Sink(), config=config)
        controller.reconcile(10.0)
        state = controller.backends["b"]
        observed = state.latency.value
        # The EWMA was pulled down from the 5 s default toward ~0.2 s.
        assert observed < config.default_latency_s / 2.0

        # The backend goes quiet: every later window is empty, so collect
        # returns None and (past staleness) the filters decay back toward
        # default_latency_s in increments.
        values = [observed]
        for now in (25.0, 30.0, 35.0, 40.0):
            assert source.collect(["b"], now, 10.0, 0.99)["b"] is None
            controller.reconcile(now)
            values.append(state.latency.value)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > observed
        assert values[-1] <= config.default_latency_s


def row_store(rows, name="b", max_age_s=300.0):
    """A store whose ``name`` row series holds ``[(time, row), ...]``."""
    store = TimeSeriesStore(max_age_s)
    series = store.series(name, PROXY_SAMPLE)
    for when, row in rows:
        series.append(when, row)
    return store


def row(requests=0.0, failures=0.0, latency_s=0.02, inflight=0.0):
    """A consistent row: ``requests - failures`` successes at ``latency_s``."""
    telemetry = BackendTelemetry("b")
    for i in range(int(requests)):
        telemetry.on_request_sent()
        telemetry.on_response(latency_s, success=i >= failures)
    return telemetry.sample()._replace(inflight=inflight)


class TestCounterResetsAndGaps:
    """Rows whose counters misbehave read as no data, never as nonsense."""

    def test_requests_going_backwards_yields_none(self):
        # A replica re-bound on the same port restarts its counters.
        store = row_store([(0.0, row(requests=500)), (5.0, row(requests=3))])
        source = PromMetricsSource(store)
        assert source.collect(["b"], 5.0, 10.0, 0.99)["b"] is None

    def test_failures_going_backwards_never_exceeds_one(self):
        # 1 - (10 - 40) / 50 = 1.6: clamped, it reads as a perfect 1.0.
        before = row(requests=100, failures=40)
        after = row(requests=150, failures=10)._replace(
            success_latency_buckets=row(requests=200).success_latency_buckets)
        source = PromMetricsSource(row_store([(0.0, before), (5.0, after)]))
        assert source.collect(["b"], 5.0, 10.0, 0.99)["b"] is None

    @pytest.mark.parametrize("field", [
        "success_latency_sum", "success_latency_count",
        "success_latency_buckets"])
    def test_success_histogram_going_backwards_yields_none(self, field):
        # One monotone counter of the row restarts while requests_total
        # keeps counting: the window delta of that counter is negative.
        before = row(requests=100, failures=40)
        after = row(requests=150, failures=60)

        def collect(last):
            source = PromMetricsSource(
                row_store([(0.0, before), (5.0, last)]))
            return source.collect(["b"], 5.0, 10.0, 0.99)["b"]

        assert collect(after) is not None
        restarted = getattr(row(requests=3, failures=1), field)
        assert collect(after._replace(**{field: restarted})) is None

    def test_reset_recovers_once_the_window_moves_past_it(self):
        store = row_store([(0.0, row(requests=500)), (5.0, row(requests=3)),
                           (10.0, row(requests=13))])
        source = PromMetricsSource(store)
        assert source.collect(["b"], 10.0, 10.0, 0.99)["b"] is None
        assert source.collect(["b"], 10.0, 6.0, 0.99)["b"].rps == 2.0

    def test_gap_longer_than_the_window_yields_none(self):
        store = row_store([(0.0, row(requests=5)), (5.0, row(requests=9)),
                           (40.0, row(requests=90))])
        source = PromMetricsSource(store)
        assert source.collect(["b"], 40.0, 10.0, 0.99)["b"] is None
        # The next scrape closes the gap: two samples in the window again.
        store.series("b", PROXY_SAMPLE).append(45.0, row(requests=100))
        assert source.collect(["b"], 45.0, 10.0, 0.99)["b"].rps == 2.0

    def test_paused_scraper_starves_then_recovers(self, sim):
        store = TimeSeriesStore()
        scraper = Scraper(store, interval_s=5.0)
        telemetry = BackendTelemetry("b")
        scraper.register(telemetry)

        def traffic(now):
            telemetry.on_request_sent()
            telemetry.on_response(0.01, success=True)

        traffic(0.0)
        sim.every(0.5, traffic)
        sim.every(scraper.interval_s, scraper.tick)
        source = PromMetricsSource(store)
        sim.run(until=21.0)
        assert source.collect(["b"], 20.0, 10.0, 0.99)["b"].rps == 2.0
        scraper.pause()
        sim.run(until=41.0)
        assert scraper.skipped_scrapes == 4
        assert source.collect(["b"], 40.0, 10.0, 0.99)["b"] is None
        scraper.resume()
        sim.run(until=51.0)
        # 45 s and 50 s landed: the window holds two samples again.
        assert source.collect(["b"], 50.0, 10.0, 0.99)["b"].rps == 2.0

    def test_window_reads_survive_the_lazy_trim(self):
        # 400 scrapes at 5 s against 300 s retention: > 256 samples
        # expire, so the amortised trim runs underneath the reader.
        store = TimeSeriesStore(max_age_s=300.0)
        scraper = Scraper(store, interval_s=5.0)
        telemetry = BackendTelemetry("b")
        scraper.register(telemetry)
        source = PromMetricsSource(store)
        series = store.series("b", PROXY_SAMPLE)
        for tick in range(1, 401):
            for _ in range(10):
                telemetry.on_request_sent()
                telemetry.on_response(0.02, success=True)
            now = 5.0 * tick
            scraper.scrape_once(now)
            if tick >= 3:
                assert source.collect(["b"], now, 10.0, 0.99)["b"].rps == 2.0
        assert len(series) == 61  # the live 300 s, whatever is untrimmed
        assert len(series._times) < 400  # the trim did run
        # Samples past the horizon are gone for readers either way.
        assert series.window(0.0, 2000.0)[0][0] == 1700.0


class TestNonFiniteSamples:
    """Hostile input: the live parser accepts NaN/Inf sample values."""

    @pytest.mark.parametrize("field", [
        "requests_total", "failures_total", "success_latency_sum",
        "success_latency_count", "inflight"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_yields_none(self, field, bad):
        before, after = row(requests=10), row(requests=30, failures=2)
        edges = [[(0.0, before), (5.0, after._replace(**{field: bad}))]]
        if field != "inflight":  # a gauge is read at the window's end only
            edges.append([(0.0, before._replace(**{field: bad})),
                          (5.0, after)])
        for rows in edges:
            source = PromMetricsSource(row_store(rows))
            assert source.collect(["b"], 5.0, 10.0, 0.99)["b"] is None

    def test_non_finite_bucket_total_yields_none(self):
        before, after = row(requests=10), row(requests=30)
        buckets = after.success_latency_buckets[:-1] + (math.nan,)
        source = PromMetricsSource(row_store(
            [(0.0, before),
             (5.0, after._replace(success_latency_buckets=buckets))]))
        assert source.collect(["b"], 5.0, 10.0, 0.99)["b"] is None

    def test_nan_failure_buckets_give_no_penalty_signal(self):
        before, after = row(requests=10), row(requests=30, failures=5)
        buckets = after.failure_latency_buckets[:-1] + (math.nan,)
        source = PromMetricsSource(row_store(
            [(0.0, before),
             (5.0, after._replace(failure_latency_buckets=buckets))]))
        assert source.failure_latency_quantile("b", 5.0, 10.0, 0.5) is None
