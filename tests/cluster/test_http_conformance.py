"""Wire conformance of the one HTTP layer, on *both* front-ends.

:class:`StoreServer` and :class:`ClusterRouter` are handlers on the
same :class:`repro.server.http.JsonHttpServer`; every row here runs
against a live instance of each, so the framing rules, the 400/404/405
mapping, the size caps and the last-resort 500 cannot drift apart.
"""

import http.client
import json
import socket
import time
from types import SimpleNamespace

import pytest

from repro.server.protocol import MAX_BODY_BYTES

from tests.conftest import _raw_request


@pytest.fixture(params=["server", "router"])
def front_end(request, cluster_factory):
    """A live front-end: ``port``, the ``app`` object, ``stop()`` (its
    :class:`BackgroundServer`'s) and ``counts()`` — its by-outcome
    request counter as ``GET /metrics`` serves it."""
    cluster = cluster_factory(n_backends=2, replication=2)
    bg = cluster.router_bg if request.param == "router" else cluster.backend_bgs[0]
    port, app = bg.port, bg.server

    def counts() -> dict:
        snapshot = json.loads(_raw_request(port, "GET", "/metrics")[2])
        if request.param == "router":
            return snapshot["queries"]
        return snapshot["server"]["responses"]

    return SimpleNamespace(port=port, app=app, stop=bg.stop, counts=counts)


def _exchange_raw(port: int, request: bytes) -> bytes:
    """Send raw bytes, return everything the peer sends until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _split(raw: bytes) -> tuple[int, dict[str, str], dict]:
    head, _, payload = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(payload)


# ----------------------------------------------------------------------
# Routing and body errors: answered, connection kept
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method,path,body,status,outcome",
    [
        ("GET", "/nope", b"", 404, "not_found"),
        ("GET", "/query", b"", 405, "bad_request"),
        ("GET", "/ingest", b"", 405, "bad_request"),
        ("POST", "/healthz", b"", 405, "bad_request"),
        ("POST", "/query", b"not json", 400, "bad_request"),
        ("POST", "/query", b'{"query": "a"}', 400, "bad_request"),
        ("POST", "/query", b'{"v": 99, "query": "a"}', 400, "bad_request"),
        ("POST", "/ingest", b"\xff\xfe", 400, "bad_request"),
    ],
    ids=[
        "unknown-path", "get-query", "get-ingest", "post-healthz",
        "non-json", "missing-v", "wrong-v", "non-utf8-ingest",
    ],
)
def test_errors_are_answered_and_counted(
    front_end, method, path, body, status, outcome
):
    conn = http.client.HTTPConnection("127.0.0.1", front_end.port, timeout=10)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        assert resp.status == status
        assert "error" in json.loads(resp.read())
        # The connection is kept: the next request rides the same socket.
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
    finally:
        conn.close()
    assert front_end.counts() == {outcome: 1}


def test_connection_close_is_honoured(front_end):
    raw = _exchange_raw(  # returns only because the server closes
        front_end.port,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    status, headers, body = _split(raw)
    assert status == 200 and body["status"] == "ok"
    assert headers["Connection"] == "close"


# ----------------------------------------------------------------------
# Broken framing and the size caps: 400, then close
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "request_bytes",
    [
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY_BYTES + 1),
        b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"j" * 100_000 + b"\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: 1\r\n" % i for i in range(150))
        + b"\r\n",
        b"BANANA\r\n\r\n",
    ],
    ids=[
        "body-over-cap", "request-line-over-64k", "header-over-64k",
        "too-many-headers", "garbled-request-line",
    ],
)
def test_broken_framing_gets_400_and_close(front_end, request_bytes):
    status, headers, body = _split(_exchange_raw(front_end.port, request_bytes))
    assert status == 400
    assert headers["Connection"] == "close"
    assert "error" in body
    assert front_end.counts() == {"bad_request": 1}


# ----------------------------------------------------------------------
# A handler that raises: 500 JSON, connection kept, counted
# ----------------------------------------------------------------------
def test_handler_exception_is_a_500_and_the_socket_survives(
    front_end, monkeypatch
):
    async def broken(headers, body):
        raise RuntimeError("handler bug")

    real = front_end.app._routes["GET", "/healthz"]
    monkeypatch.setitem(front_end.app._routes, ("GET", "/healthz"), broken)
    conn = http.client.HTTPConnection("127.0.0.1", front_end.port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert resp.status == 500
        assert json.loads(resp.read()) == {"error": "RuntimeError: handler bug"}
        monkeypatch.setitem(front_end.app._routes, ("GET", "/healthz"), real)
        conn.request("GET", "/healthz")  # same socket
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
    finally:
        conn.close()
    assert front_end.counts() == {"error": 1}


# ----------------------------------------------------------------------
# Shutdown with a keep-alive peer attached
# ----------------------------------------------------------------------
def test_stop_hangs_up_on_an_idle_keepalive_peer(front_end):
    """``stop()`` must close the connections it accepted *before* it
    waits for the listener: from Python 3.12.1 ``Server.wait_closed()``
    returns only once they are gone, and an idle peer never leaves."""
    with socket.create_connection(("127.0.0.1", front_end.port), timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        answer = b""
        while not answer.endswith(b"}"):
            answer += sock.recv(65536)
        assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: keep-alive" in answer
        t0 = time.monotonic()
        front_end.stop()
        assert time.monotonic() - t0 < 2.0
        assert sock.recv(65536) == b""  # EOF, not a timeout
