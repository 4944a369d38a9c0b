"""asyncio HTTP replica servers whose behaviour follows a BackendProfile.

One :class:`ReplicaServer` stands in for a whole cluster-local deployment
of the service: ``GET /work`` holds a bounded concurrency slot (the
replica-capacity semantics of :mod:`repro.mesh.replica`), sleeps the
service time sampled from the profile's current log-normal distribution,
and answers 200 or 500 per the profile's failure schedule — the failure
decision is drawn when execution starts and failed requests occupy the
server for the profile's (fast) failure latency, mirroring the simulated
replica's semantics. ``GET /metrics`` serves the server-side queue gauge
in Prometheus text format under the ``server|<backend>`` series name, the
feedback channel the C3 adaptation reads.

:class:`MetricsServer` is the proxy-side twin: a bare ``/metrics``
endpoint over a render callable.

Both servers bind with port-collision retry (:func:`start_http_server`),
keep connections alive — a handler serves requests until the peer
closes, asks for ``Connection: close`` or the listener goes down — and
shut down gracefully: the listener closes first and takes the idle
kept-alive connections with it, in-flight handlers get a bounded drain,
stragglers are cancelled.

Both are also chaos targets (:mod:`repro.live.chaos`): a
:class:`ReplicaServer` can :meth:`~ReplicaServer.crash` in the
simulator's two down modes — ``fail_fast`` closes the listener and
resets the idle connections, so the replica is refused at the OS level
and unreachable through any client's pool, ``blackhole`` keeps
accepting and reading requests but never answers — and
:meth:`~ReplicaServer.restart` re-binds the same port. Any server's
``/metrics`` page can be failed independently
(:meth:`~_HttpServerBase.fail_metrics`: 500s or accept-then-stall), the
live face of a scrape outage. Stalled handlers park on an internal gate
that teardown and restarts release, so a chaos run never strands tasks.
"""

from __future__ import annotations

import asyncio
import errno

from repro.errors import MeshError
from repro.faults.faults import SCRAPE_OUTAGE_MODES
from repro.live import httpwire
from repro.live.exposition import render_exposition
from repro.mesh.replica import DOWN_MODES
from repro.telemetry import names as metric_names

# How many consecutive ports to try before giving up on a bind.
PORT_RETRY_SPAN = 64


async def start_http_server(handler, host: str, port: int,
                            max_tries: int = PORT_RETRY_SPAN,
                            ) -> tuple[asyncio.Server, int]:
    """Bind an asyncio server, walking past ports already in use.

    Returns ``(server, bound_port)``; raises :class:`MeshError` when all
    ``max_tries`` consecutive ports are taken.
    """
    for offset in range(max_tries):
        candidate = port + offset
        try:
            server = await asyncio.start_server(handler, host, candidate)
        except OSError as exc:
            if exc.errno in (errno.EADDRINUSE, errno.EACCES):
                continue
            raise
        return server, candidate
    raise MeshError(
        f"no free port in [{port}, {port + max_tries}) on {host}")


class _HttpServerBase:
    """Common listener lifecycle: bind, track handlers, drain, close."""

    def __init__(self, host: str = "127.0.0.1"):
        self.host = host
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        # Connections parked between requests, for the listener to reset.
        self._idle: set[asyncio.StreamWriter] = set()
        # Injected /metrics failure (scrape outage): None, "error", "stall".
        self.metrics_fail_mode: str | None = None
        # Handlers told to stall (blackhole / stalled scrapes) park here;
        # restarts and teardown release them so no task is left behind.
        self._stall_gate = asyncio.Event()
        self._stopped = False

    async def start(self, port: int) -> int:
        """Bind (with collision retry) and return the actual port."""
        if self._server is not None:
            raise MeshError("server already started")
        self._server, self.port = await start_http_server(
            self._handle_connection, self.host, port)
        return self.port

    async def stop(self, drain_s: float = 2.0) -> None:
        """Stop listening, drain in-flight handlers, cancel stragglers."""
        self._stopped = True
        self.release_stalls()
        await self._close_listener()
        if self._handlers:
            done, pending = await asyncio.wait(
                set(self._handlers), timeout=drain_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._handlers.clear()

    async def _close_listener(self) -> None:
        """Stop accepting and reset every idle kept-alive connection.

        ``_server`` is cleared before anything is awaited: a handler
        finishing its response meanwhile must see the listener down, or
        it would park a connection on a server that no longer exists.
        """
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        for writer in list(self._idle):
            writer.close()
        await server.wait_closed()

    # ----------------------------------------- chaos hooks (scrapes) -- #

    def fail_metrics(self, mode: str = "error") -> None:
        """Break this server's /metrics page (live scrape outage)."""
        if mode not in SCRAPE_OUTAGE_MODES:
            raise MeshError(
                f"metrics fail mode must be one of {SCRAPE_OUTAGE_MODES}: "
                f"{mode!r}")
        self.metrics_fail_mode = mode

    def restore_metrics(self) -> None:
        """Heal the /metrics page; stalled scrape handlers finish (500)."""
        self.metrics_fail_mode = None
        self.release_stalls()

    def release_stalls(self) -> None:
        """Unpark every stalled handler (they answer an error and close).

        The clients those handlers were serving have long since timed
        out; releasing just lets the handler tasks finish instead of
        leaking into the harness's shutdown report.
        """
        gate, self._stall_gate = self._stall_gate, asyncio.Event()
        gate.set()

    async def _stalled(self) -> None:
        """Park the current handler until the next release."""
        await self._stall_gate.wait()

    async def _metrics_page(self, render) -> tuple[int, bytes]:
        """Serve /metrics through the injected failure mode, if any."""
        mode = self.metrics_fail_mode
        if mode == "stall":
            await self._stalled()
        if mode is not None:
            return 500, b"scrape outage injected\n"
        return 200, render().encode("utf-8")

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            while self._server is not None:
                self._idle.add(writer)
                try:
                    first, headers = await httpwire.read_head(reader)
                    _method, path = httpwire.parse_request_line(first)
                except (MeshError, asyncio.IncompleteReadError,
                        ConnectionError):
                    return
                finally:
                    self._idle.discard(writer)
                status, body = await self._respond(path)
                close = self._server is None or httpwire.wants_close(headers)
                writer.write(httpwire.response_bytes(status, body, close))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
                if close:
                    return
        finally:
            await httpwire.close_writer(writer)

    async def _respond(self, path: str) -> tuple[int, bytes]:
        raise NotImplementedError  # pragma: no cover - abstract


class ReplicaServer(_HttpServerBase):
    """One backend deployment: profile-driven work plus a /metrics page."""

    def __init__(self, backend_name: str, profile, rng, clock,
                 host: str = "127.0.0.1", capacity: int = 64):
        """Args:
            backend_name: mesh-style backend name (``"api/cluster-2"``).
            profile: :class:`~repro.workloads.profiles.BackendProfile`
                driving service times and failures.
            rng: private ``random.Random`` stream.
            clock: zero-argument callable, seconds since the run started
                (profiles are functions of run time, not absolute time).
            host: bind address.
            capacity: concurrent requests actually executing; the rest
                queue, which is what the server_queue gauge measures.
        """
        super().__init__(host)
        if capacity < 1:
            raise MeshError(f"capacity must be >= 1: {capacity}")
        self.backend_name = backend_name
        self.profile = profile
        self.rng = rng
        self.clock = clock
        self.capacity = capacity
        self._slots = asyncio.Semaphore(capacity)
        # Requests executing or queued — the server-side feedback gauge.
        self.inflight = 0
        self.requests_served = 0
        self.failures_served = 0
        # Injected down state (None = up); see crash()/restart().
        self.down_mode: str | None = None
        self.crash_count = 0
        self.restart_count = 0

    # ------------------------------------------- chaos hooks (crash) -- #

    async def crash(self, mode: str = "fail_fast") -> None:
        """Take the replica down (live fault injection).

        ``fail_fast`` closes the listener and resets the idle
        kept-alive connections: new connections are refused at the OS
        level (ECONNREFUSED — the platform's "pod is gone") and no
        client's pool still reaches the replica, while requests already
        being served finish and carry ``Connection: close``.
        ``blackhole`` keeps the listener and every connection: requests
        are accepted and read, new and kept-alive alike, and nothing
        ever answers — only a client-side deadline turns the silence
        into a signal.
        """
        if mode not in DOWN_MODES:
            raise MeshError(
                f"down mode must be one of {DOWN_MODES}: {mode!r}")
        self.down_mode = mode
        self.crash_count += 1
        if mode == "fail_fast":
            await self._close_listener()

    async def restart(self) -> None:
        """Bring a crashed replica back up (re-bind the same port).

        Handlers stalled on a blackhole are released — their clients
        already timed out, so they answer into closed sockets and exit.
        Re-binding walks past a stolen port like :meth:`start` does; the
        original port is free in practice because this server owned it.
        """
        self.down_mode = None
        self.restart_count += 1
        self.release_stalls()
        if not self._stopped and self._server is None \
                and self.port is not None:
            self._server, self.port = await start_http_server(
                self._handle_connection, self.host, self.port)

    async def _respond(self, path: str) -> tuple[int, bytes]:
        if self.down_mode == "blackhole":
            # Accept-then-stall: hold the connection open, answer only
            # once a restart (or teardown) releases the gate — by which
            # time the client is gone.
            await self._stalled()
            return 503, b"replica down\n"
        if path == "/metrics":
            return await self._metrics_page(self.render_metrics)
        if path != "/work":
            return 404, b"not found\n"
        return await self._work()

    async def _work(self) -> tuple[int, bytes]:
        self.inflight += 1
        await self._slots.acquire()
        try:
            now = self.clock()
            if self.profile.sample_failure(self.rng, now):
                await asyncio.sleep(self.profile.failure_latency_s)
                self.failures_served += 1
                return 500, b"injected failure\n"
            service_time = self.profile.sample_service_time(self.rng, now)
            await asyncio.sleep(service_time)
            self.requests_served += 1
            return 200, b"ok\n"
        finally:
            self._slots.release()
            self.inflight -= 1

    def render_metrics(self) -> str:
        """The server-side gauge page (series ``server|<backend>``)."""
        series = metric_names.server_series_name(self.backend_name)
        return render_exposition(
            targets=(),
            gauges=[(series, metric_names.SERVER_QUEUE,
                     lambda: self.inflight)])


class MetricsServer(_HttpServerBase):
    """A bare /metrics endpoint serving a render callable's output."""

    def __init__(self, render, host: str = "127.0.0.1"):
        """Args:
            render: zero-argument callable returning the exposition text.
            host: bind address.
        """
        super().__init__(host)
        self.render = render

    async def _respond(self, path: str) -> tuple[int, bytes]:
        if path != "/metrics":
            return 404, b"not found\n"
        return await self._metrics_page(self.render)
