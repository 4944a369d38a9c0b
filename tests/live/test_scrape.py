"""Tests for the HTTP scrape loop — fake fetches, fake clock, no sockets.

The class at the bottom is the exception: pooled scrape connections
against a real :class:`MetricsServer`.
"""

import asyncio
import functools

import pytest

from repro.errors import TelemetryError
from repro.live import httpwire
from repro.live.clock import FakeClock, WallClock
from repro.live.exposition import render_exposition
from repro.live.scrape import HttpScraper, fetch_metrics
from repro.live.server import MetricsServer
from repro.telemetry import names
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.timeseries import TimeSeriesStore

SERIES = "cluster-1|api/cluster-2"

PORT_BASE = 19360  # real-socket tests; below test_proxy's range


class FakePage:
    """An in-memory /metrics endpoint rendered from a telemetry bundle."""

    def __init__(self, bundles, on_fetch=None):
        self.bundles = bundles
        self.on_fetch = on_fetch
        self.fetches = 0

    async def __call__(self, host, port):
        self.fetches += 1
        if self.on_fetch is not None:
            self.on_fetch()
        return render_exposition(self.bundles)


def scrape(scraper, now=None):
    return asyncio.run(scraper.scrape_once(now))


class TestScrapeOnce:
    def test_samples_land_in_store(self):
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        telemetry.on_request_sent()
        telemetry.on_response(0.02, True)
        store = TimeSeriesStore()
        scraper = HttpScraper(store, [("h", 1)], FakeClock(4.0),
                              fetch=FakePage([telemetry]))
        assert scrape(scraper) == 1
        assert store.series(SERIES, names.PROXY_SAMPLE).latest_in_window(
            0.0, 10.0) == (4.0, telemetry.sample())

    def test_feeds_prom_metrics_source_unchanged(self):
        """Scraped-over-HTTP pages drive the same windowed queries."""
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        clock = FakeClock(0.0)
        store = TimeSeriesStore()
        scraper = HttpScraper(store, [("h", 1)], clock,
                              fetch=FakePage([telemetry]))
        scrape(scraper)  # t=0: no traffic yet
        for _ in range(50):
            telemetry.on_request_sent()
            telemetry.on_response(0.02, True)
        clock.advance(10.0)
        scrape(scraper)  # t=10: 50 requests later

        source = PromMetricsSource(store, scope="cluster-1")
        sample = source.collect(["api/cluster-2"], 10.0, 10.0, 0.99)[
            "api/cluster-2"]
        assert sample is not None
        assert sample.rps == pytest.approx(5.0)
        assert sample.success_rate == 1.0
        assert sample.latency_s is not None

    def test_one_capture_timestamp_per_round(self):
        """Fetch latency must not skew per-target sample times: all
        targets of one round share the round's start timestamp."""
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        other = BackendTelemetry("api/cluster-3",
                                 scrape_name="cluster-1|api/cluster-3")
        clock = FakeClock(2.0)
        store = TimeSeriesStore()
        # Every fetch advances the clock, simulating slow targets.
        pages = {1: FakePage([telemetry]), 2: FakePage([other])}

        async def slow_fetch(host, port):
            clock.advance(0.4)
            return await pages[port](host, port)

        scraper = HttpScraper(store, [("h", 1), ("h", 2)], clock,
                              fetch=slow_fetch)
        scrape(scraper)
        first = store.series(SERIES, names.PROXY_SAMPLE).latest_in_window(0.0, 10.0)
        second = store.series("cluster-1|api/cluster-3", names.PROXY_SAMPLE).latest_in_window(0.0, 10.0)
        assert first[0] == second[0] == 2.0

    def test_failed_target_contributes_nothing(self):
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        good = FakePage([telemetry])

        async def fetch(host, port):
            if port == 9:
                raise OSError("connection refused")
            return await good(host, port)

        store = TimeSeriesStore()
        scraper = HttpScraper(store, [("h", 9), ("h", 1)], FakeClock(1.0),
                              fetch=fetch)
        assert scrape(scraper) == 1
        assert scraper.failed_scrapes == 1
        # The healthy target was still scraped in the same round.
        assert store.series(SERIES, names.PROXY_SAMPLE).latest_in_window(
            0.0, 10.0) is not None

    def test_sustained_failure_starves_the_window_to_none(self):
        """A dead endpoint produces the no-data → None path that triggers
        the controller's decay-toward-default behaviour."""

        async def fetch(host, port):
            raise asyncio.TimeoutError()

        store = TimeSeriesStore()
        scraper = HttpScraper(store, [("h", 1)], FakeClock(), fetch=fetch)
        for _ in range(3):
            scrape(scraper)
        source = PromMetricsSource(store, scope="cluster-1")
        assert source.collect(["api/cluster-2"], 10.0, 10.0, 0.99)[
            "api/cluster-2"] is None
        assert scraper.failed_scrapes == 3

    def test_malformed_page_counts_as_failure(self):
        async def fetch(host, port):
            return "requests_total 5\n"  # no labels: parse error

        scraper = HttpScraper(TimeSeriesStore(), [("h", 1)], FakeClock(),
                              fetch=fetch)
        assert scrape(scraper) == 0
        assert scraper.failed_scrapes == 1

    def test_explicit_now_overrides_clock(self):
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        store = TimeSeriesStore()
        scraper = HttpScraper(store, [("h", 1)], FakeClock(99.0),
                              fetch=FakePage([telemetry]))
        scrape(scraper, now=5.0)
        sample = store.series(SERIES, names.PROXY_SAMPLE).latest_in_window(0.0, 10.0)
        assert sample[0] == 5.0

    def test_interval_validation(self):
        with pytest.raises(TelemetryError):
            HttpScraper(TimeSeriesStore(), [], FakeClock(), interval_s=0.0)


class TestConcurrentRounds:
    """A stalled target must not starve anyone else's telemetry."""

    def test_stalled_target_does_not_delay_healthy_samples(self):
        """The healthy target's samples land while the stalled target's
        fetch is still hanging — not after the round barrier."""
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        store = TimeSeriesStore()

        async def scenario():
            gate = asyncio.Event()

            async def fetch(host, port):
                if port == 9:
                    await gate.wait()  # blackholed replica: hangs
                    raise asyncio.TimeoutError()
                return render_exposition([telemetry])

            scraper = HttpScraper(store, [("h", 9), ("h", 1)],
                                  FakeClock(3.0), fetch=fetch)
            round_task = asyncio.ensure_future(scraper.scrape_once())
            await asyncio.sleep(0)  # let both fetches start
            await asyncio.sleep(0)
            landed = store.series(SERIES, names.PROXY_SAMPLE).latest_in_window(0.0, 10.0)
            gate.set()
            answered = await round_task
            return landed, answered

        landed, answered = asyncio.run(scenario())
        # Fresh while port 9 still hung.
        assert landed == (3.0, telemetry.sample())
        assert answered == 1

    def test_fetch_outliving_its_round_is_dropped(self):
        """A stalled fetch that finally answers after a newer round has
        landed for the target must not append back in time."""
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)
        store = TimeSeriesStore()
        clock = FakeClock(1.0)

        async def scenario():
            gate = asyncio.Event()
            slow_once = [True]

            async def fetch(host, port):
                if slow_once[0]:
                    slow_once[0] = False
                    await gate.wait()  # round 1's fetch stalls...
                return render_exposition([telemetry])

            scraper = HttpScraper(store, [("h", 1)], clock, fetch=fetch)
            stalled = asyncio.ensure_future(scraper.scrape_once())
            await asyncio.sleep(0)
            clock.advance(2.0)
            await scraper.scrape_once()  # ...round 2 lands at t=3
            gate.set()  # round 1 answers late, stamped t=1
            await stalled
            return scraper

        scraper = asyncio.run(scenario())
        assert scraper.stale_drops == 1
        assert scraper.failed_scrapes == 0
        latest = store.series(SERIES, names.PROXY_SAMPLE).latest_in_window(0.0, 10.0)
        assert latest[0] == 3.0  # only round 2's stamp; no back-in-time

    def test_run_cancels_outstanding_rounds(self):
        """Rounds fire on the cadence while earlier ones still hang, and
        cancelling the loop plus reaping the rounds leaves no task — the
        harness leak report must stay clean mid-stall."""

        async def scenario():
            fetches = []

            async def fetch(host, port):
                fetches.append(host)
                await asyncio.Event().wait()  # hangs forever

            scraper = HttpScraper(TimeSeriesStore(), [("h", 1)],
                                  FakeClock(), interval_s=0.01,
                                  fetch=fetch)
            loop = WallClock().every(scraper.interval_s, scraper.tick)
            while len(fetches) < 3:
                await asyncio.sleep(0.01)
            loop.cancel()
            await scraper.cancel_rounds()
            return [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task() and not t.done()]

        assert asyncio.run(scenario()) == []


class TestPooledScrapes:
    """Real sockets: the scraper's rounds share connections per target."""

    def test_rounds_reuse_one_connection_per_target(self):
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)

        async def scenario():
            server = MetricsServer(lambda: render_exposition([telemetry]))
            port = await server.start(PORT_BASE)
            scraper = HttpScraper(TimeSeriesStore(), [("127.0.0.1", port)],
                                  FakeClock())
            try:
                for now in (1.0, 2.0, 3.0):
                    assert await scraper.scrape_once(now) == 1
                assert scraper.client.connections_opened == 1
                assert scraper.client.requests_sent == 3
                await scraper.client.aclose()
                assert scraper.client.idle_connections == 0
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_stalled_page_times_out_and_its_connection_is_not_reused(self):
        telemetry = BackendTelemetry("api/cluster-2", scrape_name=SERIES)

        async def scenario():
            server = MetricsServer(lambda: render_exposition([telemetry]))
            port = await server.start(PORT_BASE + 10)
            client = httpwire.HttpClient()
            scraper = HttpScraper(
                TimeSeriesStore(), [("127.0.0.1", port)], FakeClock(),
                fetch=functools.partial(fetch_metrics, timeout_s=0.1,
                                        client=client))
            try:
                assert await scraper.scrape_once(1.0) == 1
                assert client.idle_connections == 1
                server.fail_metrics("stall")
                assert await scraper.scrape_once(2.0) == 0
                assert scraper.failed_scrapes == 1
                # The fetch rode the pooled connection into the stall;
                # its deadline closed that socket for good.
                assert client.connections_opened == 1
                assert client.idle_connections == 0
                server.restore_metrics()
                assert await scraper.scrape_once(3.0) == 1
                assert client.connections_opened == 2
                for _ in range(100):
                    if len(server._handlers) == 1:
                        break
                    await asyncio.sleep(0.01)
                # The stalled handler answered into the closed socket
                # and left; only the new connection's remains.
                assert len(server._handlers) == 1
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())

    def test_error_page_keeps_the_connection(self):
        # A 500 is a complete response: a failed scrape, a healthy socket.
        async def scenario():
            server = MetricsServer(lambda: "")
            port = await server.start(PORT_BASE + 20)
            client = httpwire.HttpClient()
            try:
                server.fail_metrics("error")
                with pytest.raises(TelemetryError):
                    await fetch_metrics("127.0.0.1", port, client=client)
                server.restore_metrics()
                assert await fetch_metrics("127.0.0.1", port,
                                           client=client) == ""
                assert client.connections_opened == 1
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())
