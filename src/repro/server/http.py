"""Every byte of HTTP/1.1 this repo speaks, server side and client side.

Stdlib-only and minimal: a message is a start line, headers and a
``Content-Length`` body; JSON both ways; keep-alive by default.
``docs/serving.md`` ("HTTP layer") has the route tables, the error
mapping and the caps.  Three pieces:

* the wire codec — :func:`read_http_request`,
  :func:`encode_http_response`; requests and responses go through one
  reader, so the size caps are enforced in one place;
* :class:`JsonHttpServer` — lifecycle, keep-alive connection loop and
  dispatch over a ``{(method, path): handler}`` table;
  :class:`~repro.server.app.StoreServer` and
  :class:`~repro.cluster.router.ClusterRouter` subclass it;
* :class:`BackendConnections` — the keep-alive connection pool the
  router keeps per backend and fans out over.  A connection goes back
  to the pool **only** after a complete, well-framed HTTP/1.1 response
  that does not say ``Connection: close`` has been read off it; every
  other ending — a cancelled hedge loser, a timeout, a reset, a garbled
  status line, an oversized or short body — *discards* it.  Hedged reads
  race two in-flight requests and cancel the loser, and the abandoned
  response bytes of a cancelled request are still coming: closing that
  socket is the one operation that is always safe mid-flight, so
  cancelling stays exactly "close the socket" and no caller can ever
  read another caller's answer.  A *reused* connection that dies before
  any response byte (the backend restarted or dropped it while idle) is
  replayed once on a fresh dial; nothing else is ever retried here.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from http import HTTPStatus
from typing import Awaitable, Callable, NamedTuple

from repro.server.protocol import MAX_BODY_BYTES, ProtocolError

#: Response bodies above this are a protocol violation, not a payload.
MAX_RESPONSE_BYTES = 64 << 20
#: Header lines accepted per message.
MAX_HEADERS = 100
#: Idle keep-alive connections a :class:`BackendConnections` pool holds;
#: one returned beyond this is closed instead.
MAX_IDLE_CONNECTIONS = 8

_log = logging.getLogger(__name__)


class BadHttpRequest(Exception):
    """Broken HTTP framing: answer 400 and close the connection.

    The byte stream can no longer be trusted to be aligned on a message
    boundary, so unlike a 400 for a bad JSON body the socket is not
    reused.
    """


class HttpExchangeError(OSError):
    """:meth:`BackendConnections.exchange` got no usable answer (refused,
    reset, timed out, garbled or non-JSON response)."""


class Reply(NamedTuple):
    """What a route handler returns: ``(status, body, headers)``.

    ``outcome``, when set, is the label the server counts the request
    under (with its arrival → response-written latency).
    """

    status: int
    body: dict
    headers: tuple[tuple[str, str], ...] = ()
    outcome: str | None = None


Handler = Callable[[dict[str, str], bytes], Awaitable[Reply]]


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One start or header line; ``b""`` on EOF."""
    try:
        return await reader.readline()
    except ValueError as exc:
        # asyncio's readline: a line longer than the stream's 64 KiB limit.
        raise BadHttpRequest(f"start line or header too long: {exc}") from None


async def _read_headers_and_body(
    reader: asyncio.StreamReader, max_body: int
) -> tuple[dict[str, str], bytes]:
    """The rest of a message whose start line has been read.

    Request or response alike; one without ``Content-Length`` has no body.
    """
    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise asyncio.IncompleteReadError(partial=raw, expected=2)
        if len(headers) > MAX_HEADERS:
            raise BadHttpRequest("too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise BadHttpRequest(f"malformed header: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    if not length_text.isdecimal():
        raise BadHttpRequest(f"bad Content-Length: {length_text!r}")
    if int(length_text) > max_body:
        raise BadHttpRequest(f"body too large ({length_text} bytes)")
    return headers, await reader.readexactly(int(length_text))


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Read one request: ``(method, path, headers, body)``.

    Returns ``None`` on clean EOF between requests; raises
    :class:`BadHttpRequest` on malformed or oversized input.
    """
    start = (await _read_line(reader)).decode("latin-1")
    if not start:
        return None
    headers, body = await _read_headers_and_body(reader, MAX_BODY_BYTES)
    try:
        method, target, _version = start.split()
    except ValueError:
        raise BadHttpRequest(f"malformed request line: {start[:80]!r}") from None
    return method.upper(), target.split("?", 1)[0], headers, body


def encode_http_response(
    code: int,
    body: dict,
    *,
    keep_alive: bool = True,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    lines = [
        f"HTTP/1.1 {code} {HTTPStatus(code).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in extra_headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def json_body(body: bytes) -> object:
    """Decode a request body; :class:`ProtocolError` (→ 400) if not JSON."""
    try:
        return json.loads(body.decode("utf-8")) if body else None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class JsonHttpServer:
    """Lifecycle + connection loop + routing for a JSON-over-HTTP service.

    Subclasses pass their route table to ``__init__`` and may override
    :meth:`record` (count one outcome), :meth:`_on_start` /
    :meth:`_on_stop` (background tasks, executors) and
    :attr:`bad_request_errors` (handler exceptions answered 400).
    """

    #: Handler exceptions that mean "the request is wrong", not "we broke".
    bad_request_errors: tuple[type[Exception], ...] = (ProtocolError,)

    def __init__(
        self, host: str, port: int, routes: dict[tuple[str, str], Handler]
    ) -> None:
        self.host = host
        self.port = port
        self._routes = routes
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    def record(self, outcome: str, latency_ms: float | None = None) -> None:
        """Count one answered (or abandoned) request; default: nothing."""

    async def _on_start(self) -> None:
        """Hook: runs on the serving loop once the socket is bound."""

    async def _on_stop(self) -> None:
        """Hook: runs after the listener closed, before connections drop."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        await self._on_start()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        await self._on_stop()
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            # Last: from Python 3.12.1 this waits for every accepted
            # connection to be gone, and an idle keep-alive peer never
            # leaves by itself.
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await read_http_request(reader)
                if request is None or not await self._dispatch(request, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            # Client hung up mid-request or mid-response; nothing to do —
            # its worker (if any) finishes and releases admission itself.
            self.record("disconnected")
        except BadHttpRequest as exc:
            self.record("bad_request")
            try:
                writer.write(
                    encode_http_response(400, {"error": str(exc)}, keep_alive=False)
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self,
        request: tuple[str, str, dict[str, str], bytes],
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one request; returns whether to keep the connection."""
        method, path, headers, body = request
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        handler = self._routes.get((method, path))
        try:
            if handler is not None:
                reply = await handler(headers, body)
            elif allowed := [m for m, p in self._routes if p == path]:
                reply = Reply(
                    405,
                    {"error": f"use {'/'.join(allowed)} {path}"},
                    outcome="bad_request",
                )
            else:
                reply = Reply(
                    404, {"error": f"no such endpoint: {path}"}, outcome="not_found"
                )
        except self.bad_request_errors as exc:
            reply = Reply(400, {"error": str(exc)}, outcome="bad_request")
        except Exception as exc:  # repro: noqa[REPRO106] -- last resort at the connection boundary: log the traceback, answer 500, keep serving this socket
            _log.exception("unhandled error in %s %s", method, path)
            reply = Reply(
                500, {"error": f"{type(exc).__name__}: {exc}"}, outcome="error"
            )
        writer.write(
            encode_http_response(
                reply.status,
                reply.body,
                keep_alive=keep_alive,
                extra_headers=reply.headers,
            )
        )
        await writer.drain()
        if reply.outcome is not None:
            self.record(reply.outcome, (loop.time() - t0) * 1000.0)
        return keep_alive


class BackgroundServer:
    """Run a :class:`JsonHttpServer` on a dedicated event-loop thread.

    Usage (tests and in-process embedding)::

        with BackgroundServer(StoreServer(engine)) as server:
            client = connect(f"http://127.0.0.1:{server.port}")
            ...
    """

    def __init__(self, server: JsonHttpServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-server", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10)
        return self

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def run_until_interrupted(server: JsonHttpServer, banner: dict) -> None:
    """The CLIs' runner: bind, print one JSON line (the bound address
    plus *banner*) on stdout, serve until Ctrl-C."""

    async def serve() -> None:
        await server.start()
        listening = f"http://{server.host}:{server.port}"
        print(json.dumps({"listening": listening, **banner}), flush=True)
        await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class _StaleConnection(Exception):
    """A reused connection died before any response byte: replay on a dial."""


class BackendConnections:
    """Keep-alive client connections to one ``host:port``.

    *stats* is where the pool counts its traffic: any object with
    integer ``connections_opened`` / ``connections_reused`` /
    ``connections_discarded`` attributes (the router passes the
    backend's :class:`~repro.cluster.metrics.BackendStats`).  Every
    exchange either dials or reuses; every connection that is closed
    instead of being returned is a discard, so ``opened - discarded``
    is the number of live connections.

    Event-loop-confined, like the router that owns it.
    """

    def __init__(self, host: str, port: int, stats) -> None:
        self.host = host
        self.port = port
        self._stats = stats
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._closed = False

    async def exchange(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: tuple[tuple[str, str], ...] = (),
        timeout_s: float = 5.0,
    ) -> tuple[int, dict[str, str], dict]:
        """One HTTP exchange: ``(status, headers, json)``.

        Raises :class:`HttpExchangeError` on any transport-level failure;
        HTTP error *statuses* are returned, not raised — a 400 or 503 is an
        answer from a live peer and the caller interprets it.  *timeout_s*
        covers the whole call, the one replay of a stale reused connection
        included.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(payload)}",
        ]
        if payload:
            lines.append("Content-Type: application/json")
        lines += [f"{name}: {value}" for name, value in headers]
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload
        try:
            status, resp_headers, raw = await asyncio.wait_for(
                self._exchange(request), timeout=timeout_s
            )
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except asyncio.TimeoutError:
            raise HttpExchangeError(f"no response within {timeout_s:g}s") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpExchangeError(
                f"non-JSON response body for {method} {path}: {exc}"
            ) from exc
        except (OSError, asyncio.IncompleteReadError, BadHttpRequest) as exc:
            raise HttpExchangeError(f"{type(exc).__name__}: {exc}") from exc
        if not isinstance(parsed, dict):
            parsed = {"body": parsed}
        return status, resp_headers, parsed

    def close(self) -> None:
        """Close every idle connection; one still in flight is closed
        when its exchange ends."""
        self._closed = True
        while self._idle:
            self._discard(self._idle.pop()[1])

    def _discard(self, writer: asyncio.StreamWriter) -> None:
        self._stats.connections_discarded += 1
        writer.close()

    async def _exchange(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        while self._idle:
            reader, writer = self._idle.pop()
            if reader.at_eof() or writer.is_closing():
                self._discard(writer)  # the peer hung up while it idled
                continue
            self._stats.connections_reused += 1
            try:
                return await self._round_trip(reader, writer, request, reused=True)
            except _StaleConnection:
                break
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._stats.connections_opened += 1
        return await self._round_trip(reader, writer, request, reused=False)

    async def _round_trip(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: bytes,
        *,
        reused: bool,
    ) -> tuple[int, dict[str, str], bytes]:
        """Send *request*, read one response; pool or discard the connection."""
        keep = False
        try:
            try:
                writer.write(request)
                await writer.drain()
                status_line = (await _read_line(reader)).decode("latin-1")
                if not status_line:
                    raise ConnectionResetError("closed before any response byte")
            except ConnectionError as exc:
                if reused:
                    raise _StaleConnection from exc
                raise
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise BadHttpRequest(f"garbled status line {status_line[:80]!r}")
            headers, body = await _read_headers_and_body(reader, MAX_RESPONSE_BYTES)
            # Whole message read and the peer will read another: anything
            # less (HTTP/1.0, a body not delimited by Content-Length) and
            # the byte stream may not be at a message boundary.
            keep = (
                parts[0] == "HTTP/1.1"
                and "content-length" in headers
                and headers.get("connection", "").lower() != "close"
            )
            return int(parts[1]), headers, body
        finally:
            # Also reached by CancelledError (hedge loser, timeout):
            # keep is still False, so the socket closes mid-flight.
            if keep and not self._closed and len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append((reader, writer))
            else:
                self._discard(writer)
