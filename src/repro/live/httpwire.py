"""Minimal HTTP/1.1 over asyncio streams — just enough for the testbed.

The live testbed deliberately speaks plain HTTP over real sockets (that
is its point: exercising the control plane against OS-level networking,
scheduling jitter and concurrency), but it must not pull in any HTTP
framework the container may not have. This module is the shared wire
layer: head parsing and response serialisation for the replica and
metrics servers, and :class:`HttpClient`, the one pooled client both
the proxy transport and the scraper send through.

Connections are persistent, as a sidecar's are to its upstreams: a
connection whose response was read to the end goes back on its target's
idle stack and carries the next request. What keeps the failure model
honest on reused sockets is that only such a connection is ever pooled.
An attempt abandoned by its deadline or cancelled closes its socket —
closing is the cancellation, exactly like a client tearing down a TCP
connection mid-request — and a pooled connection the server has since
closed is replaced by a fresh one inside the same call; a *fresh*
connection that dies is the caller's failed attempt.
"""

from __future__ import annotations

import asyncio

from repro.errors import MeshError

# A request/status line plus a handful of headers; anything bigger is not
# something this testbed ever sends.
_MAX_HEADER_BYTES = 16384

# Idle connections kept per target. Steady load parks two or three; the
# bound only stops a burst's worth of sockets outliving the burst.
_MAX_IDLE_PER_TARGET = 32

_REASONS = {200: "OK", 404: "Not Found", 500: "Internal Server Error",
            503: "Service Unavailable"}


async def read_head(reader: asyncio.StreamReader) -> tuple[str, dict[str, str]]:
    """Read one request or response head (first line + header lines).

    Returns ``(first_line, headers)`` with header names lower-cased;
    raises :class:`MeshError` on an oversized or empty head and
    :class:`asyncio.IncompleteReadError` on EOF before a complete one.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise MeshError("HTTP head too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise MeshError("HTTP head too large")
    first, *lines = head.decode("latin-1").split("\r\n")
    if not first:
        raise MeshError("empty HTTP head")
    headers = {}
    for line in lines:
        if line:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return first, headers


def parse_request_line(line: str) -> tuple[str, str]:
    """``"GET /work HTTP/1.1"`` → ``("GET", "/work")``."""
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise MeshError(f"malformed request line: {line!r}")
    return parts[0], parts[1]


def parse_status_line(line: str) -> int:
    """``"HTTP/1.1 200 OK"`` → ``200``."""
    parts = line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise MeshError(f"malformed status line: {line!r}")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise MeshError(f"malformed status code: {line!r}") from exc


def content_length(headers: dict[str, str]) -> int | None:
    """The Content-Length header value, or ``None`` when absent."""
    value = headers.get("content-length")
    if value is None:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise MeshError(f"bad Content-Length: {value!r}") from exc


def wants_close(headers: dict[str, str]) -> bool:
    """True when the peer asked to end the connection after this message."""
    return headers.get("connection", "").lower() == "close"


def response_bytes(status: int, body: bytes, close: bool = False,
                   content_type: str = "text/plain") -> bytes:
    """Serialise one HTTP response; ``close`` ends the connection after it."""
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


def request_bytes(method: str, path: str, host: str) -> bytes:
    """Serialise one HTTP request (no body) on a persistent connection."""
    return (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n\r\n").encode("latin-1")


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer, swallowing teardown races.

    A peer that already reset the connection (an abandoned, timed-out
    attempt) makes ``wait_closed`` raise; shutdown must not care.
    """
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class HttpClient:
    """``GET`` over pooled persistent connections, one idle stack per target."""

    def __init__(self):
        self._idle: dict[tuple[str, int], list] = {}
        self._requests: dict[tuple[str, int, str], bytes] = {}
        # Self-metrics: reuse ratio = 1 - connections_opened / requests_sent.
        self.connections_opened = 0
        self.requests_sent = 0

    @property
    def idle_connections(self) -> int:
        """Connections parked in the pool right now."""
        return sum(len(stack) for stack in self._idle.values())

    async def get(self, host: str, port: int, path: str) -> tuple[int, bytes]:
        """One request, one response: ``(status, body)``.

        Raises ``OSError`` (refused, reset), :class:`MeshError` (malformed
        response) or :class:`asyncio.IncompleteReadError` (peer closed
        mid-response). Cancelling the call closes its connection.
        """
        key = (host, port, path)
        request = self._requests.get(key)
        if request is None:
            request = self._requests[key] = request_bytes(
                "GET", path, f"{host}:{port}")
        idle = self._idle.setdefault((host, port), [])
        self.requests_sent += 1
        while True:
            reused = False
            while idle and not reused:
                reader, writer = idle.pop()
                # The server closed it while it was parked: EOF was fed
                # (half-close) or the transport is already going away.
                if reader.at_eof() or writer.is_closing():
                    writer.close()
                else:
                    reused = True
            if not reused:
                reader, writer = await asyncio.open_connection(host, port)
                self.connections_opened += 1
            keep = False
            try:
                try:
                    writer.write(request)
                    await writer.drain()
                    first, headers = await read_head(reader)
                except (asyncio.IncompleteReadError, ConnectionError) as exc:
                    # Lost the race with a server closing a parked
                    # connection: nothing was answered, so go again on a
                    # fresh one. A fresh connection gets no second try.
                    if reused and not getattr(exc, "partial", b""):
                        continue
                    raise
                status = parse_status_line(first)
                length = content_length(headers)
                close = wants_close(headers)
                if length is not None:
                    body = await reader.readexactly(length)
                elif close:
                    body = await reader.read()
                else:
                    raise MeshError(
                        "response without Content-Length on a "
                        "persistent connection")
                # Only a response read to its end leaves a reusable socket.
                keep = not close
                return status, body
            finally:
                if keep and len(idle) < _MAX_IDLE_PER_TARGET:
                    idle.append((reader, writer))
                else:
                    writer.close()

    async def aclose(self) -> None:
        """Close every idle connection (the client stays usable)."""
        for idle in self._idle.values():
            while idle:
                _reader, writer = idle.pop()
                await close_writer(writer)
