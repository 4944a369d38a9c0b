"""Tests for the live client proxy.

Routing, retry, timeout and telemetry paths run on mock transports — no
sockets, no sleeps. The classes at the bottom drive the real
:class:`HttpTransport` against scripted raw-socket servers: the
reused-connection failure model and the oversized-head regression.
"""

import asyncio

import pytest

from repro.balancers.base import Balancer
from repro.balancers.static_weights import StaticWeightBalancer
from repro.errors import MeshError
from repro.live import httpwire
from repro.live.clock import FakeClock, WallClock
from repro.live.proxy import LiveProxy
from repro.live.server import start_http_server
from repro.mesh.ejection import OutlierEjectionConfig
from repro.sim.rng import RngRegistry

BACKENDS = {"api/cluster-1": ("127.0.0.1", 1001),
            "api/cluster-2": ("127.0.0.1", 1002)}

PORT_BASE = 19400  # real-socket tests; below test_server's range


class FakeTransport:
    """Scripted transport: pops one outcome per call.

    Outcomes: True/False (the attempt's success), or an exception
    instance to raise — ``asyncio.TimeoutError()`` stands in for an
    expired ``wait_for`` deadline, so the timeout path needs no timer.
    """

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    async def __call__(self, host, port):
        self.calls.append((host, port))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def uniform(backends=BACKENDS):
    return StaticWeightBalancer({name: 1 for name in backends})


def make_proxy(outcomes, clock=None, balancer=None, **kwargs):
    transport = FakeTransport(outcomes)
    proxy = LiveProxy(
        "cluster-1", "api", BACKENDS, balancer or uniform(),
        RngRegistry(1).stream("test-proxy"), clock or FakeClock(),
        transport=transport, **kwargs)
    return proxy, transport


def dispatch(proxy):
    return asyncio.run(proxy.dispatch())


class TestDispatch:
    def test_success_record_and_telemetry(self):
        clock = FakeClock(10.0)
        proxy, transport = make_proxy([True], clock=clock)
        record = dispatch(proxy)
        assert record.success
        assert record.attempts == 1
        assert record.backend in BACKENDS
        assert record.source_cluster == "cluster-1"
        assert transport.calls == [BACKENDS[record.backend]]
        telemetry = proxy.telemetry[record.backend]
        assert telemetry.requests_total.value == 1.0
        assert telemetry.failures_total.value == 0.0
        assert telemetry.inflight.value == 0.0
        assert telemetry.success_latency.count == 1

    def test_failure_counts_and_failure_histogram(self):
        proxy, _ = make_proxy([OSError("connection refused")])
        record = dispatch(proxy)
        assert not record.success
        telemetry = proxy.telemetry[record.backend]
        assert telemetry.failures_total.value == 1.0
        assert telemetry.failure_latency.count == 1
        assert telemetry.success_latency.count == 0

    def test_routing_follows_split_weights(self):
        weighted = StaticWeightBalancer(
            {"api/cluster-1": 1, "api/cluster-2": 0})
        proxy, transport = make_proxy([True] * 50, balancer=weighted)
        for _ in range(50):
            assert dispatch(proxy).backend == "api/cluster-1"
        assert set(transport.calls) == {BACKENDS["api/cluster-1"]}

    def test_telemetry_is_scoped_by_source_cluster(self):
        proxy, _ = make_proxy([True])
        names = {t.scrape_name for t in proxy.telemetry_bundles()}
        assert names == {"cluster-1|api/cluster-1",
                         "cluster-1|api/cluster-2"}

    def test_unknown_backend_from_picker_rejected(self):
        class BadPicker(Balancer):
            def pick(self, rng, now):
                return "api/cluster-9"

        proxy, _ = make_proxy([True], balancer=BadPicker())
        with pytest.raises(MeshError):
            dispatch(proxy)


class TestRetries:
    def test_retry_until_success(self):
        proxy, transport = make_proxy(
            [OSError("boom"), True], max_retries=2)
        record = dispatch(proxy)
        assert record.success
        assert record.attempts == 2
        assert len(transport.calls) == 2

    def test_retries_exhausted(self):
        proxy, _ = make_proxy([OSError("a"), OSError("b")], max_retries=1)
        record = dispatch(proxy)
        assert not record.success
        assert record.attempts == 2

    def test_no_retries_by_default(self):
        proxy, transport = make_proxy([OSError("boom"), True])
        assert not dispatch(proxy).success
        assert len(transport.calls) == 1

    def test_each_attempt_recorded_separately(self):
        proxy, _ = make_proxy([OSError("x"), True], max_retries=1)
        dispatch(proxy)
        total = sum(t.requests_total.value
                    for t in proxy.telemetry.values())
        failures = sum(t.failures_total.value
                       for t in proxy.telemetry.values())
        assert total == 2.0
        assert failures == 1.0


class TestTimeouts:
    def test_expired_deadline_is_a_failed_attempt(self):
        proxy, _ = make_proxy([asyncio.TimeoutError()],
                              request_timeout_s=5.0)
        record = dispatch(proxy)
        assert not record.success
        assert proxy.timeouts == 1
        failures = sum(t.failures_total.value
                       for t in proxy.telemetry.values())
        assert failures == 1.0

    def test_timeout_then_retry_succeeds(self):
        proxy, _ = make_proxy([asyncio.TimeoutError(), True],
                              max_retries=1, request_timeout_s=5.0)
        record = dispatch(proxy)
        assert record.success
        assert record.attempts == 2
        assert proxy.timeouts == 1

    def test_validation(self):
        with pytest.raises(MeshError):
            make_proxy([], request_timeout_s=0.0)
        with pytest.raises(MeshError):
            make_proxy([], max_retries=-1)
        with pytest.raises(MeshError):
            make_proxy([], retry_backoff_s=-1.0)
        with pytest.raises(MeshError):
            LiveProxy("c", "api", {}, None,
                      RngRegistry(1).stream("x"), FakeClock())


class TargetedTransport:
    """Succeeds or fails by destination instead of by call order."""

    def __init__(self, failing_port):
        self.failing_port = failing_port
        self.calls = []

    async def __call__(self, host, port):
        self.calls.append((host, port))
        return port != self.failing_port


class TestOutlierEjection:
    def test_consecutive_failures_divert_traffic(self):
        # Uniform split; cluster-1 always fails, so its breaker trips
        # after 2 consecutive failures (cluster-2 successes in between
        # do not reset it — breakers count per backend).
        clock = FakeClock()
        proxy, _ = make_proxy(
            [], clock=clock,
            outlier_ejection=OutlierEjectionConfig(
                consecutive_failures=2, ejection_s=1000.0, max_ejection_s=1000.0))
        proxy.transport = TargetedTransport(BACKENDS["api/cluster-1"][1])

        for _ in range(200):
            dispatch(proxy)
            clock.advance(0.01)
            if proxy.ejector.is_ejected("api/cluster-1", clock()):
                break
        assert proxy.ejector.is_ejected("api/cluster-1", clock())
        # Once ejected, the redraw loop diverts picks to cluster-2.
        diverted = 0
        for _ in range(20):
            record = dispatch(proxy)
            clock.advance(0.01)
            if record.backend == "api/cluster-2":
                assert record.success
                diverted += 1
        assert diverted >= 18

    def test_fail_open_when_everything_ejected(self):
        clock = FakeClock()
        proxy, _ = make_proxy(
            [OSError("down")] * 40, clock=clock,
            outlier_ejection=OutlierEjectionConfig(
                consecutive_failures=1, ejection_s=1000.0, max_ejection_s=1000.0))
        for _ in range(10):
            record = dispatch(proxy)
            clock.advance(0.01)
        # Both breakers are open, yet requests still go out (fail-open).
        assert all(proxy.ejector.is_ejected(name, clock())
                   for name in BACKENDS)
        record = dispatch(proxy)
        assert record.backend in BACKENDS


class TestRetryBackoff:
    """A constant ``retry_backoff_s`` between attempts, as in the simulator."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        return slept

    def test_default_is_the_historical_constant_backoff(self, sleeps):
        proxy, _ = make_proxy([OSError("down")] * 4, max_retries=3,
                              retry_backoff_s=0.2)
        assert dispatch(proxy).attempts == 4
        assert sleeps == [0.2] * 3

    def test_zero_base_never_sleeps_whatever_the_shape(self, sleeps):
        proxy, _ = make_proxy([OSError("down")] * 4, max_retries=3)
        assert dispatch(proxy).attempts == 4
        assert sleeps == []

    def test_dispatch_sleeps_the_computed_backoff(self):
        proxy, _ = make_proxy([OSError("down"), True], clock=WallClock(),
                              max_retries=1, retry_backoff_s=0.01)
        record = dispatch(proxy)
        assert record.success
        assert record.attempts == 2
        assert record.end_s - record.start_s >= 0.01


class ScriptedServer:
    """A raw-socket HTTP peer: ``script(server, reader, writer)`` per connection.

    Counts accepted connections and the ones whose client end was seen
    closing (EOF), which is how the tests observe what the pool did with
    a socket.
    """

    def __init__(self, script):
        self.script = script
        self.accepted = 0
        self.client_closed = 0
        self.port = None
        self._listener = None
        self._tasks = set()

    async def __aenter__(self):
        self._listener, self.port = await start_http_server(
            self._handle, "127.0.0.1", PORT_BASE)
        return self

    async def __aexit__(self, *exc_info):
        self._listener.close()
        await self._listener.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _handle(self, reader, writer):
        self.accepted += 1
        task = asyncio.current_task()
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        try:
            await self.script(self, reader, writer)
        finally:
            await httpwire.close_writer(writer)

    async def await_client_close(self, reader):
        """Block until the client closes its end, then count it."""
        while await reader.read(4096):
            pass
        self.client_closed += 1


OK = httpwire.response_bytes(200, b"ok\n")


async def serve_forever(server, reader, writer):
    """Answer every request on the connection, keep-alive."""
    try:
        while True:
            await httpwire.read_head(reader)
            writer.write(OK)
            await writer.drain()
    except asyncio.IncompleteReadError:
        server.client_closed += 1


def socket_proxy(port, **kwargs):
    """A LiveProxy with the real HttpTransport and one backend on ``port``."""
    backends = {"api/cluster-1": ("127.0.0.1", port)}
    return LiveProxy(
        "cluster-1", "api", backends, uniform(backends),
        RngRegistry(1).stream("test-proxy"), FakeClock(), **kwargs)


class TestPersistentConnections:
    """The reused-socket failure model, through LiveProxy.dispatch."""

    def test_sequential_requests_share_one_connection(self):
        async def scenario():
            async with ScriptedServer(serve_forever) as server:
                proxy = socket_proxy(server.port)
                records = [await proxy.dispatch() for _ in range(20)]
                client = proxy.transport.client
                assert client.idle_connections == 1
                await proxy.transport.client.aclose()
                assert client.idle_connections == 0
            assert all(r.success and r.attempts == 1 for r in records)
            assert server.accepted == 1
            assert client.connections_opened == 1
            assert client.requests_sent == 20

        asyncio.run(scenario())

    def test_abandoned_attempt_closes_its_socket(self):
        async def script(server, reader, writer):
            if server.accepted == 1:
                # Never answer the first connection: the client's
                # deadline must tear it down.
                await httpwire.read_head(reader)
                await server.await_client_close(reader)
            else:
                await serve_forever(server, reader, writer)

        async def scenario():
            async with ScriptedServer(script) as server:
                proxy = socket_proxy(server.port, request_timeout_s=0.05)
                client = proxy.transport.client
                timed_out = await proxy.dispatch()
                assert not timed_out.success
                assert proxy.timeouts == 1
                assert client.idle_connections == 0
                for _ in range(100):
                    if server.client_closed:
                        break
                    await asyncio.sleep(0.01)
                assert server.client_closed == 1
                # The next attempt cannot be riding the abandoned socket.
                assert (await proxy.dispatch()).success
                assert server.accepted == 2
                assert client.connections_opened == 2
                await proxy.transport.client.aclose()

        asyncio.run(scenario())

    @pytest.mark.parametrize("settle_s", [0.0, 0.05])
    def test_stale_pooled_connection_is_replaced_within_the_attempt(
            self, settle_s):
        # The server answers keep-alive, then closes anyway — an idle
        # timeout, a restart. With time to settle the client sees the EOF
        # when it takes the connection off the stack; without, it loses
        # the race mid-request and retries on a fresh one. Either way
        # the caller sees one successful attempt.
        async def script(server, reader, writer):
            await httpwire.read_head(reader)
            writer.write(OK)
            await writer.drain()

        async def scenario():
            async with ScriptedServer(script) as server:
                proxy = socket_proxy(server.port)
                client = proxy.transport.client
                for expected_opened in (1, 2, 3):
                    record = await proxy.dispatch()
                    assert record.success and record.attempts == 1
                    assert client.connections_opened == expected_opened
                    if settle_s:
                        await asyncio.sleep(settle_s)
                telemetry = proxy.telemetry["api/cluster-1"]
                assert telemetry.requests_total.value == 3.0
                assert telemetry.failures_total.value == 0.0
                await proxy.transport.client.aclose()

        asyncio.run(scenario())

    def test_fresh_connection_that_dies_is_a_failed_attempt(self):
        async def script(server, reader, writer):
            await httpwire.read_head(reader)  # ...and hang up unanswered

        async def scenario():
            async with ScriptedServer(script) as server:
                proxy = socket_proxy(server.port)
                record = await proxy.dispatch()
                assert not record.success and record.attempts == 1
                # No transparent second try on a connection that was new.
                assert server.accepted == 1
                await proxy.transport.client.aclose()

        asyncio.run(scenario())


class TestMalformedResponses:
    def respond_with(self, payload):
        async def script(server, reader, writer):
            await httpwire.read_head(reader)
            writer.write(payload)
            await writer.drain()
            await server.await_client_close(reader)

        async def scenario():
            async with ScriptedServer(script) as server:
                proxy = socket_proxy(server.port, request_timeout_s=2.0)
                record = await proxy.dispatch()
                pooled = proxy.transport.client.idle_connections
                await proxy.transport.client.aclose()
            return proxy, record, pooled

        return asyncio.run(scenario())

    def test_oversized_head_is_a_failed_attempt_not_a_crash(self):
        # 200 kB of header is past the 64 KiB stream limit, where
        # readuntil raises LimitOverrunError instead of returning a head
        # to measure: it must end the attempt, not escape dispatch with
        # the in-flight gauge still raised.
        head = (b"HTTP/1.1 200 OK\r\nX-Padding: " + b"x" * 200_000
                + b"\r\nContent-Length: 0\r\n\r\n")
        proxy, record, pooled = self.respond_with(head)
        assert not record.success
        assert proxy.timeouts == 0
        telemetry = proxy.telemetry[record.backend]
        assert telemetry.requests_total.value == 1.0
        assert telemetry.failures_total.value == 1.0
        assert telemetry.inflight.value == 0.0
        assert pooled == 0

    def test_head_between_the_two_limits_is_rejected_too(self):
        head = (b"HTTP/1.1 200 OK\r\nX-Padding: " + b"x" * 20_000
                + b"\r\nContent-Length: 0\r\n\r\n")
        _proxy, record, pooled = self.respond_with(head)
        assert not record.success
        assert pooled == 0

    def test_unframed_response_is_malformed_and_never_pooled(self):
        # Neither Content-Length nor Connection: close — on a persistent
        # connection the body has no end; reading to EOF would hang.
        proxy, record, pooled = self.respond_with(
            b"HTTP/1.1 200 OK\r\n\r\nok\n")
        assert not record.success
        assert proxy.timeouts == 0
        assert pooled == 0

    def test_close_delimited_response_is_read_to_eof(self):
        async def script(server, reader, writer):
            await httpwire.read_head(reader)
            writer.write(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nok\n")
            await writer.drain()

        async def scenario():
            async with ScriptedServer(script) as server:
                client = httpwire.HttpClient()
                response = await client.get("127.0.0.1", server.port, "/")
                assert client.idle_connections == 0
            return response

        assert asyncio.run(scenario()) == (200, b"ok\n")
