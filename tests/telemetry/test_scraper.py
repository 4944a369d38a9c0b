"""Tests for the periodic scraper."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.names import PROXY_SAMPLE, ProxySample
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore


@pytest.fixture
def store():
    return TimeSeriesStore()


@pytest.fixture
def scraper(store):
    return Scraper(store, interval_s=5.0)


class TestRegistration:
    def test_duplicate_target_rejected(self, scraper):
        scraper.register(BackendTelemetry("b"))
        with pytest.raises(TelemetryError):
            scraper.register(BackendTelemetry("b"))

    def test_scoped_names_coexist(self, scraper):
        scraper.register(BackendTelemetry("b", scrape_name="c1|b"))
        scraper.register(BackendTelemetry("b", scrape_name="c2|b"))

    def test_invalid_interval_rejected(self, store):
        with pytest.raises(TelemetryError):
            Scraper(store, interval_s=0.0)


class TestScraping:
    def test_scrape_once_writes_all_series(self, store, scraper):
        telemetry = BackendTelemetry("b")
        telemetry.on_request_sent()
        telemetry.on_response(0.05, success=True)
        scraper.register(telemetry)
        scraper.scrape_once(5.0)
        when, row = store.series("b", PROXY_SAMPLE).latest_in_window(0, 10)
        assert when == 5.0
        assert row == telemetry.sample()
        assert row.requests_total == 1.0
        assert row.failures_total == 0.0
        assert row.success_latency_buckets[-1] == 1
        assert row.success_latency_count == 1
        assert row.success_latency_sum == 0.05
        assert row.failure_latency_buckets[-1] == 0
        assert row.inflight == 0.0
        # One row series per target: no per-metric proxy series remain.
        assert len(store.series("b", PROXY_SAMPLE)) == 1
        assert store._series.keys() == {("b", PROXY_SAMPLE)}

    def test_custom_gauge_scraped(self, store, scraper):
        values = iter([3.0, 7.0])
        scraper.register_gauge("server|b", "queue", lambda: next(values))
        scraper.scrape_once(5.0)
        scraper.scrape_once(10.0)
        window = store.series("server|b", "queue").window(0.0, 20.0)
        assert [v for _t, v in window] == [3.0, 7.0]

    def test_run_loop_scrapes_on_interval(self, sim, store, scraper):
        telemetry = BackendTelemetry("b")
        scraper.register(telemetry)
        loop = sim.every(scraper.interval_s, scraper.tick)
        sim.run(until=16.0)
        samples = store.series("b", PROXY_SAMPLE).window(0, 16)
        assert [t for t, _v in samples] == [5.0, 10.0, 15.0]
        loop.cancel()
        sim.run()
        assert len(store.series("b", PROXY_SAMPLE)) == 3

    def test_counters_scraped_are_monotone(self, sim, store, scraper):
        telemetry = BackendTelemetry("b")
        scraper.register(telemetry)

        def traffic(now):
            telemetry.on_request_sent()
            telemetry.on_response(0.01, success=True)

        traffic(0.0)
        load = sim.every(0.5, traffic)
        loop = sim.every(scraper.interval_s, scraper.tick)
        sim.run(until=20.0)
        load.cancel()
        loop.cancel()
        sim.run()
        values = [row.requests_total for _t, row in
                  store.series("b", PROXY_SAMPLE).window(0, 99)]
        assert values == sorted(values)


class TestOneRowWriter:
    """Every scrape writer stores the same row for the same inputs."""

    # Dyadic latencies: their sums are exact in any order, so the shard
    # model's numpy sum and the scalar accumulation agree to the bit.
    RESPONSES = [(0.25, True), (0.5, True), (0.125, False), (2.0, True),
                 (0.0625, False), (64.0, True)]
    IN_FLIGHT = 3
    NAME = "cluster-1|api/cluster-2"

    def bundle(self, idle=False):
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=self.NAME)
        return telemetry if idle else self.feed(telemetry)

    def feed(self, telemetry):
        for latency, success in self.RESPONSES:
            telemetry.on_request_sent()
            telemetry.on_response(latency, success)
        for _ in range(self.IN_FLIGHT):
            telemetry.on_request_sent()
        return telemetry

    def sim_rows(self):
        store = TimeSeriesStore()
        scraper = Scraper(store)
        telemetry = self.bundle(idle=True)
        scraper.register(telemetry)
        scraper.scrape_once(0.0)
        self.feed(telemetry)
        scraper.scrape_once(5.0)
        return store.series(self.NAME, PROXY_SAMPLE).window(0.0, 5.0)

    def shard_rows(self):
        np = pytest.importorskip("numpy")
        from repro.mesh.network import LOCAL_LINK
        from repro.sim.shard import _ClusterState
        from repro.telemetry.histogram import DEFAULT_BUCKET_BOUNDS_S
        from repro.workloads.profiles import constant_backend_profile

        state = _ClusterState(
            "cluster-2", constant_backend_profile(0.01, 0.02), LOCAL_LINK,
            LOCAL_LINK, 1, 4, 1, DEFAULT_BUCKET_BOUNDS_S, np)
        series = TimeSeriesStore().series(self.NAME, PROXY_SAMPLE)
        series.append(0.0, state.snapshot(0.0))
        latencies = [latency for latency, _ in self.RESPONSES]
        # Completions before the 5 s barrier, then three still pending.
        state.dispatched = len(self.RESPONSES) + self.IN_FLIGHT
        state._pend_end = [np.array([1.0] * len(latencies) + [9.0] * 3)]
        state._pend_lat = [np.array(latencies + [8.0] * 3)]
        state._pend_succ = [np.array(
            [ok for _, ok in self.RESPONSES] + [True] * 3)]
        series.append(5.0, state.snapshot(5.0))
        return series.window(0.0, 5.0)

    def http_rows(self, drop=None):
        import asyncio

        from repro.live.clock import FakeClock
        from repro.live.exposition import render_exposition
        from repro.live.scrape import HttpScraper

        pages = iter([
            render_exposition([self.bundle(idle=True)]),
            render_exposition(
                [self.bundle()],
                gauges=[("server|api/cluster-2", "server_queue",
                         lambda: 3)])])

        async def fetch(host, port):
            page = next(pages)
            if drop is not None:
                page = "\n".join(line for line in page.splitlines()
                                 if not line.startswith(drop)) + "\n"
            return page

        store = TimeSeriesStore()
        clock = FakeClock(0.0)
        scraper = HttpScraper(store, [("h", 1)], clock, fetch=fetch)
        asyncio.run(scraper.scrape_once())
        clock.advance(5.0)
        asyncio.run(scraper.scrape_once())
        return store, scraper

    def test_sim_shard_and_http_store_identical_rows(self):
        expected = [(0.0, self.bundle(idle=True).sample()),
                    (5.0, self.bundle().sample())]
        store, scraper = self.http_rows()
        assert scraper.failed_scrapes == 0
        for rows in (self.sim_rows(), self.shard_rows(),
                     store.series(self.NAME, PROXY_SAMPLE).window(0.0, 5.0)):
            assert rows == expected
            assert all(type(row) is ProxySample for _t, row in rows)
        # Non-proxy families of the page stay ordinary gauge series, and
        # no per-metric proxy series exist beside the row series.
        assert store.series(
            "server|api/cluster-2", "server_queue").window(0.0, 5.0) == [
                (5.0, 3.0)]
        assert store._series.keys() == {
            (self.NAME, PROXY_SAMPLE),
            ("server|api/cluster-2", "server_queue")}

    @pytest.mark.parametrize("family", [
        "inflight", "requests_total", "success_latency_bucket",
        "success_latency_count", "failure_latency_bucket"])
    def test_http_counts_an_incomplete_bundle_as_a_failed_scrape(self,
                                                                 family):
        store, scraper = self.http_rows(drop=family)
        assert scraper.failed_scrapes == 2
        assert scraper.scrape_count == 2
        # Nothing of a rejected page lands — not even its gauge families.
        assert all(len(series) == 0 for series in store._series.values())

    def test_idle_bundle_re_appends_its_previous_row(self):
        telemetry = self.bundle()
        row = telemetry.sample()
        assert telemetry.sample() is row  # unchanged bundle: same object
        telemetry.success_latency.observe(0.5)  # any change, any field
        changed = telemetry.sample()
        assert changed is not row and changed != row
        assert changed.success_latency_count == row.success_latency_count + 1
        assert changed.requests_total == row.requests_total
