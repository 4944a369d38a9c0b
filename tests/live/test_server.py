"""Tests for the asyncio HTTP servers — real sockets, near-zero latencies."""

import asyncio
import random

import pytest

from repro.errors import MeshError
from repro.live.clock import FakeClock
from repro.live.exposition import parse_exposition
from repro.live.proxy import HttpTransport
from repro.live.scrape import fetch_metrics
from repro.live.server import MetricsServer, ReplicaServer, start_http_server
from repro.telemetry import names
from repro.workloads.profiles import BackendProfile, constant_series

PORT_BASE = 19480  # away from the harness tests' ranges


def fast_profile(median_s=0.0005, failure_prob=0.0):
    return BackendProfile(
        median_latency_s=constant_series(median_s),
        p99_latency_s=constant_series(median_s * 2),
        failure_prob=constant_series(failure_prob),
        failure_latency_s=0.0005)


def replica_server(port=PORT_BASE, **kwargs):
    return ReplicaServer("api/cluster-1", fast_profile(**kwargs),
                         random.Random(1), FakeClock())


async def get_once(port, path="/work"):
    """One request on a throwaway transport (its pool closed after)."""
    transport = HttpTransport(path=path)
    try:
        return await transport("127.0.0.1", port)
    finally:
        await transport.client.aclose()


class TestReplicaServer:
    def test_work_and_metrics_round_trip(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE)
            try:
                assert await get_once(port)
                page = await fetch_metrics("127.0.0.1", port)
            finally:
                await server.stop()
            assert server.requests_served == 1
            parsed = parse_exposition(page)
            series = names.server_series_name("api/cluster-1")
            assert parsed[series][names.SERVER_QUEUE] == 0.0

        asyncio.run(scenario())

    def test_failure_schedule_produces_500(self):
        async def scenario():
            server = ReplicaServer("api/cluster-1",
                                   fast_profile(failure_prob=1.0),
                                   random.Random(1), FakeClock())
            port = await server.start(PORT_BASE)
            try:
                assert not await get_once(port)
            finally:
                await server.stop()
            assert server.failures_served == 1

        asyncio.run(scenario())

    def test_unknown_path_is_404_not_a_failure(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE)
            try:
                assert not await get_once(port, path="/nope")
            finally:
                await server.stop()
            assert server.requests_served == 0
            assert server.failures_served == 0

        asyncio.run(scenario())

    def test_stop_releases_the_port_and_handlers(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE)
            await get_once(port)
            await server.stop()
            assert not server._handlers
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            # The port is genuinely free again: a new server can bind it.
            reborn = replica_server()
            assert await reborn.start(port) == port
            await reborn.stop()

        asyncio.run(scenario())

    def test_capacity_validation(self):
        with pytest.raises(MeshError):
            ReplicaServer("b", fast_profile(), random.Random(1),
                          FakeClock(), capacity=0)

    def test_double_start_rejected(self):
        async def scenario():
            server = replica_server()
            await server.start(PORT_BASE)
            try:
                with pytest.raises(MeshError):
                    await server.start(PORT_BASE)
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestKeepAlive:
    """Persistent connections across crash, blackhole, restart and stop."""

    def test_requests_share_a_connection_until_stop_drops_it(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 10)
            transport = HttpTransport()
            for _ in range(5):
                assert await transport("127.0.0.1", port)
            assert transport.client.connections_opened == 1
            assert len(server._handlers) == 1
            # The parked handler is dropped at once, not drained.
            started = asyncio.get_running_loop().time()
            await server.stop(drain_s=5.0)
            assert asyncio.get_running_loop().time() - started < 1.0
            assert not server._handlers
            await transport.client.aclose()
            assert server.requests_served == 5

        asyncio.run(scenario())

    def test_fail_fast_is_unreachable_through_a_warm_pool(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 20)
            transport = HttpTransport()
            try:
                assert await transport("127.0.0.1", port)
                assert transport.client.idle_connections == 1
                await server.crash("fail_fast")
                with pytest.raises(ConnectionRefusedError):
                    await transport("127.0.0.1", port)
                await server.restart()
                assert server.port == port
                assert await transport("127.0.0.1", port)
                assert transport.client.connections_opened == 2
            finally:
                await transport.client.aclose()
                await server.stop()
            assert server.requests_served == 2

        asyncio.run(scenario())

    def test_inflight_response_survives_fail_fast_and_ends_the_connection(
            self):
        async def scenario():
            server = ReplicaServer("api/cluster-1", fast_profile(0.1),
                                   random.Random(1), FakeClock())
            port = await server.start(PORT_BASE + 25)
            transport = HttpTransport()
            try:
                inflight = asyncio.ensure_future(transport("127.0.0.1", port))
                while not server.inflight:
                    await asyncio.sleep(0.005)
                await server.crash("fail_fast")
                assert await inflight
                # Answered with Connection: close — nothing to pool.
                assert transport.client.idle_connections == 0
            finally:
                await transport.client.aclose()
                await server.stop()

        asyncio.run(scenario())

    def test_blackhole_swallows_requests_on_a_pooled_connection(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 30)
            transport = HttpTransport()
            try:
                assert await transport("127.0.0.1", port)
                await server.crash("blackhole")
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(transport("127.0.0.1", port), 0.1)
                # The request rode the kept-alive connection (the
                # listener never saw a second one) and its handler is
                # parked, not answering.
                assert transport.client.connections_opened == 1
                assert transport.client.idle_connections == 0
                assert len(server._handlers) == 1
                await server.restart()
                for _ in range(100):
                    if not server._handlers:
                        break
                    await asyncio.sleep(0.01)
                assert not server._handlers
                assert await transport("127.0.0.1", port)
            finally:
                await transport.client.aclose()
                await server.stop()
            assert server.requests_served == 2

        asyncio.run(scenario())

    def test_connection_close_request_gets_one_response_then_eof(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 35)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"GET /work HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                data = await asyncio.wait_for(reader.read(), 2.0)
            finally:
                writer.close()
                await server.stop()
            assert data.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"\r\nConnection: close\r\n" in data
            assert data.endswith(b"\r\n\r\nok\n")
            assert data.count(b"HTTP/1.1") == 1

        asyncio.run(scenario())

    def test_keep_alive_responses_do_not_say_close(self):
        async def scenario():
            server = replica_server()
            port = await server.start(PORT_BASE + 38)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for _ in range(2):
                    writer.write(b"GET /work HTTP/1.1\r\nHost: x\r\n\r\n")
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), 2.0)
                    assert b"Connection" not in head
                    assert await reader.readexactly(3) == b"ok\n"
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())


class TestPortCollision:
    def test_second_server_walks_to_next_port(self):
        async def scenario():
            first = replica_server()
            second = replica_server()
            port1 = await first.start(PORT_BASE + 40)
            try:
                port2 = await second.start(port1)
                assert port2 > port1
                await second.stop()
            finally:
                await first.stop()

        asyncio.run(scenario())

    def test_exhausted_range_raises(self):
        async def scenario():
            listener, port = await start_http_server(
                lambda r, w: None, "127.0.0.1", PORT_BASE + 60)
            try:
                with pytest.raises(MeshError):
                    await start_http_server(
                        lambda r, w: None, "127.0.0.1", port, max_tries=1)
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())


class TestMetricsServer:
    def test_serves_render_output(self):
        async def scenario():
            server = MetricsServer(lambda: 'inflight{series="a"} 2\n')
            port = await server.start(PORT_BASE + 80)
            try:
                page = await fetch_metrics("127.0.0.1", port)
            finally:
                await server.stop()
            assert parse_exposition(page) == {
                "a": {names.INFLIGHT: 2.0}}

        asyncio.run(scenario())
