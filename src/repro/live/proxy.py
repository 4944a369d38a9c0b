"""The live client-side proxy: weighted routing over real sockets.

Mirrors :class:`repro.mesh.proxy.ClientProxy`'s data-plane semantics on
the asyncio substrate: every attempt is a fresh balancer decision
filtered through the (optional) outlier ejector with the same bounded
fail-open re-draw loop, per-attempt deadlines abandon the in-flight call
(the socket closes; whatever the server was doing keeps happening),
retries back off between attempts, and each attempt is individually
recorded into the same :class:`~repro.telemetry.metrics.BackendTelemetry`
bundles — scoped by source cluster — that the ``/metrics`` endpoint
exposes, so L3's success-rate and latency signals see exactly what a
sidecar would report.

The transport is injectable: the default :class:`HttpTransport` sends
each attempt over a pooled persistent connection to the chosen backend
(:class:`repro.live.httpwire.HttpClient` — an abandoned attempt's
socket is closed, never pooled); tests substitute an async callable to
cover routing, retry, timeout and telemetry paths without sockets or
sleeps.
"""

from __future__ import annotations

import asyncio
import itertools

from repro.errors import MeshError
from repro.live import httpwire
from repro.mesh.cluster import split_backend_name
from repro.mesh.ejection import OutlierEjectionConfig, OutlierEjector
from repro.mesh.request import RequestRecord
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.names import scoped_series_name


class HttpTransport:
    """One HTTP request per call; success is a 2xx response."""

    def __init__(self, path: str = "/work"):
        self.path = path
        self.client = httpwire.HttpClient()

    async def __call__(self, host: str, port: int) -> bool:
        status, _body = await self.client.get(host, port, self.path)
        return 200 <= status < 300


class LiveProxy:
    """Routes one service's outgoing traffic from one source cluster."""

    def __init__(self, source_cluster: str, service: str,
                 backends: dict[str, tuple[str, int]], picker, rng, clock,
                 max_retries: int = 0, retry_backoff_s: float = 0.0,
                 retry_backoff_multiplier: float = 1.0,
                 retry_backoff_max_s: float | None = None,
                 retry_jitter: bool = False,
                 request_timeout_s: float | None = None,
                 outlier_ejection: OutlierEjectionConfig | None = None,
                 transport=None, link=None):
        """Args:
            source_cluster: cluster this proxy lives in (telemetry scope).
            service: destination service name.
            backends: backend name → ``(host, port)`` address.
            picker: anything with ``pick(rng, now) -> backend`` — a
                :class:`~repro.live.split.LiveTrafficSplit` kept fresh by
                a controller, or a per-request balancer such as
                :class:`~repro.balancers.round_robin.RoundRobinBalancer`.
            rng: private random stream (weighted picks and backoff
                jitter; the jitter draw happens only when enabled, so
                the default configuration leaves the stream untouched).
            clock: zero-argument callable, seconds since the run started.
            max_retries / retry_backoff_s / request_timeout_s /
            outlier_ejection: the resilience knobs of the simulated
                proxy, with identical semantics.
            retry_backoff_multiplier: growth factor per retry; attempt
                ``n`` waits ``retry_backoff_s * multiplier**(n-1)``.
                The default 1.0 keeps the historical constant backoff.
            retry_backoff_max_s: cap on any single backoff sleep
                (``None`` = uncapped).
            retry_jitter: full jitter — each sleep is drawn uniformly
                from ``[0, computed delay]``, decorrelating retry storms
                when a backend dies under concurrent load.
            transport: async ``f(host, port) -> success`` (defaults to
                :class:`HttpTransport`); raising ``OSError`` or
                :class:`~repro.errors.MeshError` counts as a failed
                attempt, as does the per-attempt deadline expiring.
            link: optional :class:`~repro.live.chaos.LiveLinkShaper`
                traversed before each attempt's transport — the chaos
                harness's partition/degradation insertion point. The
                traversal shares the attempt's deadline, so a
                partitioned link turns into a client timeout.
        """
        if not backends:
            raise MeshError("LiveProxy needs at least one backend")
        if max_retries < 0:
            raise MeshError(f"max retries must be >= 0: {max_retries}")
        if retry_backoff_s < 0:
            raise MeshError(f"retry backoff must be >= 0: {retry_backoff_s}")
        if retry_backoff_multiplier < 1.0:
            raise MeshError(
                f"backoff multiplier must be >= 1: "
                f"{retry_backoff_multiplier}")
        if retry_backoff_max_s is not None and retry_backoff_max_s <= 0:
            raise MeshError(
                f"backoff cap must be positive: {retry_backoff_max_s}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise MeshError(
                f"request timeout must be positive: {request_timeout_s}")
        self.source_cluster = source_cluster
        self.service = service
        self.backends = dict(backends)
        self.picker = picker
        self.rng = rng
        self.clock = clock
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_multiplier = retry_backoff_multiplier
        self.retry_backoff_max_s = retry_backoff_max_s
        self.retry_jitter = retry_jitter
        self.request_timeout_s = request_timeout_s
        self.transport = transport or HttpTransport()
        self.link = link
        self.timeouts = 0
        self._request_ids = itertools.count()
        self.telemetry: dict[str, BackendTelemetry] = {
            name: BackendTelemetry(
                name, scrape_name=scoped_series_name(source_cluster, name))
            for name in self.backends
        }
        self.ejector: OutlierEjector | None = None
        if outlier_ejection is not None:
            self.ejector = OutlierEjector(list(self.backends),
                                          outlier_ejection)

    def telemetry_bundles(self) -> list[BackendTelemetry]:
        """The per-backend bundles, for the /metrics exposition page."""
        return list(self.telemetry.values())

    async def dispatch(self, intended_start_s: float | None = None,
                       ) -> RequestRecord:
        """Process one request end to end; returns a RequestRecord."""
        start = self.clock()
        if intended_start_s is None:
            intended_start_s = start
        request_id = next(self._request_ids)

        attempts = 0
        while True:
            attempts += 1
            success, backend_name = await self._attempt()
            if success or attempts > self.max_retries:
                break
            delay = self.backoff_delay(attempts)
            if delay > 0:
                await asyncio.sleep(delay)

        return RequestRecord(
            request_id=request_id,
            service=self.service,
            source_cluster=self.source_cluster,
            backend=backend_name,
            intended_start_s=intended_start_s,
            start_s=start,
            end_s=self.clock(),
            success=success,
            attempts=attempts,
        )

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before the retry after failed attempt number ``attempt``.

        Capped exponential backoff with optional full jitter: the base
        delay grows by ``retry_backoff_multiplier`` per attempt, is
        clamped to ``retry_backoff_max_s``, and — with jitter on — the
        actual sleep is uniform over ``[0, delay]`` so simultaneous
        retriers spread out instead of hammering in lockstep. The
        defaults (multiplier 1, no cap, no jitter) reproduce the
        original constant ``retry_backoff_s`` exactly, without touching
        the rng stream.
        """
        delay = self.retry_backoff_s
        if delay <= 0:
            return 0.0
        delay *= self.retry_backoff_multiplier ** (attempt - 1)
        if self.retry_backoff_max_s is not None:
            delay = min(delay, self.retry_backoff_max_s)
        if self.retry_jitter:
            delay = self.rng.uniform(0.0, delay)
        return delay

    async def _send(self, host: str, port: int, backend_name: str) -> bool:
        """One transport call, shaped by the chaos link when present."""
        if self.link is not None:
            _service, dst = split_backend_name(backend_name)
            await self.link.traverse(self.source_cluster, dst)
        return await self.transport(host, port)

    async def _attempt(self) -> tuple[bool, str]:
        """One attempt: pick, send, record — the per-try telemetry unit."""
        start = self.clock()
        backend_name = self._pick_backend(start)
        telemetry = self.telemetry.get(backend_name)
        if telemetry is None:
            raise MeshError(
                f"picker chose unknown backend {backend_name!r} "
                f"for service {self.service!r}")
        host, port = self.backends[backend_name]

        telemetry.on_request_sent()
        on_sent = getattr(self.picker, "on_request_sent", None)
        if on_sent is not None:
            on_sent(backend_name, start)
        success = False
        try:
            if self.request_timeout_s is None:
                success = await self._send(host, port, backend_name)
            else:
                success = await asyncio.wait_for(
                    self._send(host, port, backend_name),
                    self.request_timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            self.timeouts += 1
        except (OSError, MeshError, asyncio.IncompleteReadError):
            pass

        now = self.clock()
        telemetry.on_response(now - start, success)
        on_response = getattr(self.picker, "on_response", None)
        if on_response is not None:
            on_response(backend_name, now, now - start, success)
        if self.ejector is not None:
            self.ejector.on_response(backend_name, now, success)
        return success, backend_name

    def _pick_backend(self, now: float) -> str:
        """Picker choice filtered through the ejector, failing open.

        The same bounded re-draw loop as the simulated proxy: if every
        draw is ejected, send anyway — blackholing all traffic on a local
        breaker's say-so would be worse than probing a dead backend.
        """
        backend_name = self.picker.pick(self.rng, now)
        if self.ejector is None or self.ejector.admit(backend_name, now):
            return backend_name
        for _ in range(3 * len(self.backends)):
            candidate = self.picker.pick(self.rng, now)
            if self.ejector.admit(candidate, now):
                return candidate
        return backend_name
