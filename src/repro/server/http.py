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
* :func:`request_json` — the one-shot async exchange the router fans
  out over.  Connection-per-request on purpose: hedged reads race two
  in-flight requests and cancel the loser, and cancelling a request on a
  *shared* keep-alive connection would poison it for the next caller
  (the abandoned response bytes are still coming).  A fresh connection
  makes cancellation exactly "close the socket" — the one operation that
  is always safe mid-flight.
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

_log = logging.getLogger(__name__)


class BadHttpRequest(Exception):
    """Broken HTTP framing: answer 400 and close the connection.

    The byte stream can no longer be trusted to be aligned on a message
    boundary, so unlike a 400 for a bad JSON body the socket is not
    reused.
    """


class HttpExchangeError(OSError):
    """:func:`request_json` got no usable answer (refused, reset, timed
    out, garbled or non-JSON response)."""


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
async def _read_message(
    reader: asyncio.StreamReader, max_body: int
) -> tuple[str, dict[str, str], bytes] | None:
    """Read one message: ``(start_line, headers, body)``; ``None`` on clean EOF.

    Request or response alike; one without ``Content-Length`` has no body.
    """
    try:
        start = await reader.readline()
        if not start:
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
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
    except ValueError as exc:
        # asyncio's readline: a line longer than the stream's 64 KiB limit.
        raise BadHttpRequest(f"start line or header too long: {exc}") from None
    length_text = headers.get("content-length", "0")
    if not length_text.isdecimal():
        raise BadHttpRequest(f"bad Content-Length: {length_text!r}")
    if int(length_text) > max_body:
        raise BadHttpRequest(f"body too large ({length_text} bytes)")
    body = await reader.readexactly(int(length_text))
    return start.decode("latin-1"), headers, body


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Read one request: ``(method, path, headers, body)``.

    Returns ``None`` on clean EOF between requests; raises
    :class:`BadHttpRequest` on malformed or oversized input.
    """
    message = await _read_message(reader, MAX_BODY_BYTES)
    if message is None:
        return None
    start, headers, body = message
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
            await self._server.wait_closed()
            self._server = None
        await self._on_stop()
        for writer in list(self._writers):
            writer.close()

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

    Usage (tests, benchmarks, the closed-loop experiments)::

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
async def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    headers: tuple[tuple[str, str], ...] = (),
    timeout_s: float = 5.0,
) -> tuple[int, dict[str, str], dict]:
    """One HTTP exchange on a fresh connection: ``(status, headers, json)``.

    Raises :class:`HttpExchangeError` on any transport-level failure;
    HTTP error *statuses* are returned, not raised — a 400 or 503 is an
    answer from a live peer and the caller interprets it.
    """
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    try:
        status, resp_headers, raw = await asyncio.wait_for(
            _exchange(host, port, method, path, payload, headers),
            timeout=timeout_s,
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


async def _exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: bytes,
    extra_headers: tuple[tuple[str, str], ...],
) -> tuple[int, dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: close",
            f"Content-Length: {len(payload)}",
        ]
        if payload:
            lines.append("Content-Type: application/json")
        lines += [f"{name}: {value}" for name, value in extra_headers]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()
        message = await _read_message(reader, MAX_RESPONSE_BYTES)
        if message is None:
            raise asyncio.IncompleteReadError(partial=b"", expected=1)
        status_line, headers, body = message
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise BadHttpRequest(f"garbled status line {status_line[:80]!r}")
        return int(parts[1]), headers, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
