"""The live client-side proxy: weighted routing over real sockets.

Shares :class:`repro.mesh.proxy.ClientProxy`'s policy
(:class:`~repro.mesh.proxy.ProxyPolicy`) and runs the attempt loop on
the asyncio substrate: every attempt is a fresh balancer decision,
per-attempt deadlines abandon the in-flight call (the socket closes;
whatever the server was doing keeps happening), retries wait
``retry_backoff_s``, and each attempt is recorded into the same
source-scoped :class:`~repro.telemetry.metrics.BackendTelemetry`
bundles the ``/metrics`` endpoint exposes, so L3's success-rate and
latency signals see exactly what a sidecar would report.

The transport is injectable: the default :class:`HttpTransport` sends
each attempt over a pooled persistent connection to the chosen backend
(:class:`repro.live.httpwire.HttpClient` — an abandoned attempt's
socket is closed, never pooled); tests substitute an async callable to
cover routing, retry, timeout and telemetry paths without sockets or
sleeps.
"""

from __future__ import annotations

import asyncio

from repro.balancers.base import Balancer
from repro.errors import MeshError
from repro.live import httpwire
from repro.mesh.cluster import split_backend_name
from repro.mesh.ejection import OutlierEjectionConfig
from repro.mesh.proxy import ProxyPolicy
from repro.mesh.request import RequestRecord


class HttpTransport:
    """One HTTP request per call; success is a 2xx response."""

    def __init__(self, path: str = "/work"):
        self.path = path
        self.client = httpwire.HttpClient()

    async def __call__(self, host: str, port: int) -> bool:
        status, _body = await self.client.get(host, port, self.path)
        return 200 <= status < 300


class LiveProxy(ProxyPolicy):
    """Routes one service's outgoing traffic from one source cluster."""

    def __init__(self, source_cluster: str, service: str,
                 backends: dict[str, tuple[str, int]], balancer: Balancer,
                 rng, clock, max_retries: int = 0,
                 retry_backoff_s: float = 0.0,
                 request_timeout_s: float | None = None,
                 outlier_ejection: OutlierEjectionConfig | None = None,
                 transport=None, link=None):
        """Args:
            backends: backend name → ``(host, port)`` address.
            balancer: the backend-selection policy (an L3/C3 split kept
                fresh by its controller, or e.g. round-robin).
            clock: zero-argument callable, seconds since the run started.
            transport: async ``f(host, port) -> success`` (defaults to
                :class:`HttpTransport`); raising ``OSError`` or
                :class:`~repro.errors.MeshError` counts as a failed
                attempt, as does the per-attempt deadline expiring.
            link: optional :class:`~repro.live.chaos.LiveLinkShaper`
                traversed before each attempt's transport — the chaos
                harness's partition/degradation insertion point. The
                traversal shares the attempt's deadline, so a
                partitioned link turns into a client timeout.

        The rest are :class:`~repro.mesh.proxy.ProxyPolicy`'s, with the
        simulated proxy's semantics.
        """
        if not backends:
            raise MeshError("LiveProxy needs at least one backend")
        super().__init__(
            source_cluster, service, backends, balancer, rng,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s,
            request_timeout_s=request_timeout_s,
            outlier_ejection=outlier_ejection)
        self.backends = dict(backends)
        self.clock = clock
        self.transport = transport or HttpTransport()
        self.link = link

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
            if self.retry_backoff_s > 0:
                await asyncio.sleep(self.retry_backoff_s)

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

    async def _send(self, host: str, port: int, backend_name: str) -> bool:
        """One transport call, shaped by the chaos link when present."""
        if self.link is not None:
            _service, dst = split_backend_name(backend_name)
            await self.link.traverse(self.source_cluster, dst)
        return await self.transport(host, port)

    async def _attempt(self) -> tuple[bool, str]:
        """One attempt: pick, send, record — the per-try telemetry unit."""
        start = self.clock()
        backend_name, _skips = self._pick_backend(start)
        telemetry = self.telemetry.get(backend_name)
        if telemetry is None:
            raise MeshError(
                f"balancer picked unknown backend {backend_name!r} "
                f"for service {self.service!r}")
        host, port = self.backends[backend_name]

        telemetry.on_request_sent()
        self.balancer.on_request_sent(backend_name, start)
        success = False
        try:
            # The deadline cancels this task in place (the socket closes
            # in HttpClient.get's finally); no task wraps the attempt.
            async with asyncio.timeout(self.request_timeout_s):
                success = await self._send(host, port, backend_name)
        except TimeoutError:
            self.timeouts += 1
        except (OSError, MeshError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Cancelled from outside (the harness drops requests still
            # pending after its drain): no response to count, but the
            # request is no longer in flight.
            telemetry.inflight.dec()
            raise

        now = self.clock()
        telemetry.on_response(now - start, success)
        self.balancer.on_response(backend_name, now, now - start, success)
        if self.ejector is not None:
            self.ejector.on_response(backend_name, now, success)
        return success, backend_name
