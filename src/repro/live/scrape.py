"""The live scrape loop: HTTP /metrics pages into the TimeSeriesStore.

The wall-clock twin of :class:`repro.telemetry.scraper.Scraper`, ticked
the same way (``clock.every(interval_s, scraper.tick)``): every
``interval_s`` it fetches each target's ``/metrics`` page over a real
socket, parses the Prometheus text exposition
(:mod:`repro.live.exposition`) and appends the page into the shared
:class:`~repro.telemetry.timeseries.TimeSeriesStore` at one capture
timestamp — a proxy bundle's seven families as the same
:class:`~repro.telemetry.names.ProxySample` row the simulated scraper
writes — after which :class:`~repro.telemetry.query.PromMetricsSource`
and the controller run unchanged.

A target that fails to answer, or whose page carries only part of a
proxy bundle, contributes no samples that round (counted in
:attr:`failed_scrapes`); sustained failure starves the
window queries into returning ``None``, which is the controller's
decay-toward-default path — the same behaviour a real Prometheus outage
produces.
"""

from __future__ import annotations

import asyncio
import functools

from repro.errors import MeshError, TelemetryError
from repro.live import httpwire
from repro.live.exposition import parse_exposition
from repro.telemetry.names import PROXY_METRICS, PROXY_SAMPLE, ProxySample
from repro.telemetry.timeseries import TimeSeriesStore


async def fetch_metrics(host: str, port: int, timeout_s: float = 2.0,
                        client: httpwire.HttpClient | None = None) -> str:
    """GET /metrics from one target; returns the page text.

    Sends through ``client``'s pooled connections; without one, a
    throwaway client serves this fetch alone. A fetch that outlives
    ``timeout_s`` closes its connection instead of pooling it.
    """
    own = client is None
    if own:
        client = httpwire.HttpClient()
    try:
        status, body = await asyncio.wait_for(
            client.get(host, port, "/metrics"), timeout_s)
    finally:
        if own:
            await client.aclose()
    if status != 200:
        raise TelemetryError(f"{host}:{port}/metrics answered {status}")
    return body.decode("utf-8")


def _group_proxy_rows(samples: dict) -> dict:
    """Fold each series' proxy families into its one ``ProxySample`` row."""
    for series, metrics in samples.items():
        present = metrics.keys() & PROXY_METRICS
        if len(present) == len(PROXY_METRICS):
            metrics[PROXY_SAMPLE] = ProxySample(
                *[metrics.pop(metric) for metric in PROXY_METRICS])
        elif present:
            raise TelemetryError(
                f"incomplete proxy bundle for {series!r}: {sorted(present)}")
    return samples


class HttpScraper:
    """Periodically scrapes HTTP exposition targets into a store."""

    def __init__(self, store: TimeSeriesStore, targets, clock,
                 interval_s: float = 1.0, fetch=None):
        """Args:
            store: destination time-series store.
            targets: iterable of ``(host, port)`` exposition endpoints.
            clock: zero-argument callable, seconds since the run started.
            interval_s: scrape cadence.
            fetch: async ``f(host, port) -> page text`` (defaults to
                :func:`fetch_metrics` over this scraper's own pooled
                :attr:`client`); tests inject a fake to scrape without
                sockets.
        """
        if interval_s <= 0:
            raise TelemetryError(f"scrape interval must be positive: "
                                 f"{interval_s}")
        self.store = store
        self.targets = list(targets)
        self.clock = clock
        self.interval_s = interval_s
        self.client = httpwire.HttpClient()
        self._fetch = fetch or functools.partial(fetch_metrics,
                                                 client=self.client)
        self.scrape_count = 0
        self.failed_scrapes = 0
        self.stale_drops = 0
        self._last_stamp: dict[tuple[str, int], float] = {}
        self._rounds: set[asyncio.Task] = set()

    async def _scrape_target(self, host: str, port: int,
                             now: float) -> bool:
        try:
            samples = _group_proxy_rows(
                parse_exposition(await self._fetch(host, port)))
        except (OSError, MeshError, TelemetryError, asyncio.TimeoutError,
                TimeoutError, asyncio.IncompleteReadError,
                UnicodeDecodeError):
            self.failed_scrapes += 1
            return False
        key = (host, port)
        if self._last_stamp.get(key, float("-inf")) > now:
            # This fetch outlived its round (a stalled connection that
            # finally answered) and a newer round has already landed for
            # the target; appending would go back in time. Drop it —
            # exactly what Prometheus does with samples older than the
            # series head.
            self.stale_drops += 1
            return False
        self._last_stamp[key] = now
        for series, metrics in samples.items():
            for metric, value in metrics.items():
                self.store.series(series, metric).append(now, value)
        return True

    async def scrape_once(self, now: float | None = None) -> int:
        """Scrape every target once; returns how many targets answered.

        Targets are fetched concurrently (as Prometheus does) and each
        target's samples land in the store the moment its fetch
        completes, all stamped with the round's start time — a stalled
        target (a blackholed replica holds its ``/metrics`` connection
        open along with everything else) burns only its own fetch
        timeout and cannot delay or date the round's healthy samples.
        """
        if now is None:
            now = self.clock()
        results = await asyncio.gather(
            *(self._scrape_target(host, port, now)
              for host, port in self.targets))
        self.scrape_count += 1
        return sum(results)

    def tick(self, now: float) -> None:
        """Start one round as its own tracked task, so rounds keep the
        cadence however long the last one takes: a stalled target cannot
        starve the controller of everyone else's fresh telemetry (the
        fetch timeout bounds how many rounds overlap)."""
        round_task = asyncio.ensure_future(self.scrape_once(now))
        self._rounds.add(round_task)
        round_task.add_done_callback(self._rounds.discard)

    async def cancel_rounds(self) -> None:
        """Cancel and reap every outstanding round (teardown)."""
        rounds = list(self._rounds)
        for round_task in rounds:
            round_task.cancel()
        await asyncio.gather(*rounds, return_exceptions=True)
