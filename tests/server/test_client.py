"""Client retry policy against a scripted flaky stub server.

The stub speaks just enough HTTP to exercise every branch of the
client's retry logic: 503 (with and without ``Retry-After``), 400, 500,
dropped connections, and stalls past the client timeout.  Both the
sleep function and the jitter RNG are injected: sleeps are recorded
instead of waited out, and a ceiling-valued RNG (:class:`_MaxRng`)
makes the full-jitter schedule deterministic at its upper bound so the
exponential/cap/hint arithmetic can still be asserted exactly.
"""

import json
import random
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.server import (
    QueryRejectedError,
    ServerUnavailableError,
    StoreClient,
)
from repro.store import Term

_OK_BODY = {
    "status": "ok",
    "values": [1, 2],
    "n_results": 2,
    "latency_ms": 0.5,
}


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # keep test output clean
        pass

    def do_POST(self):
        self._serve()

    def do_GET(self):
        self._serve()

    def _serve(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length) if length else b""
        self.server.requests.append((self.path, body))
        step = self.server.plan.pop(0) if self.server.plan else ("200", _OK_BODY)
        kind = step[0]
        if kind == "drop":
            self.connection.close()
            return
        if kind == "stall":
            time.sleep(step[1])
            self._respond(200, _OK_BODY)
            return
        if kind == "503":
            payload = json.dumps({"error": "shed"}).encode()
            self.send_response(503)
            if step[1] is not None:
                self.send_header("Retry-After", str(step[1]))
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        self._respond(int(kind), step[1])

    def _respond(self, code, body):
        payload = json.dumps(body).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def stub():
    """A stub server whose next responses follow ``stub.plan``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.plan = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class _MaxRng:
    """Deterministic jitter: always draw the top of the range.

    Pins full-jitter backoff to its ceiling, which equals the old
    deterministic capped-exponential schedule — so the tests assert the
    ceiling arithmetic exactly while production draws uniformly.
    """

    def uniform(self, low, high):
        return high


class _MinRng:
    """Deterministic jitter: always draw the bottom of the range."""

    def uniform(self, low, high):
        return low


def _client(stub, **kwargs):
    kwargs.setdefault("timeout_s", 5.0)
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("rng", _MaxRng())
    return StoreClient("127.0.0.1", stub.server_address[1], **kwargs)


# ----------------------------------------------------------------------
# Retryable failures
# ----------------------------------------------------------------------
def test_retries_503_and_honours_retry_after(stub):
    stub.plan = [("503", 0.25), ("503", None), ("200", _OK_BODY)]
    sleeps = []
    client = _client(
        stub,
        max_retries=3,
        backoff_base_s=0.05,
        backoff_cap_s=2.0,
        sleep=sleeps.append,
    )
    response = client.query(Term("a"))
    assert response.status == "ok"
    assert len(stub.requests) == 3
    # First backoff takes the server's Retry-After (0.25 > 0.05); the
    # second falls back to exponential 0.05 * 2**1.
    assert sleeps == [0.25, 0.1]


def test_gives_up_after_max_retries(stub):
    stub.plan = [("503", None)] * 10
    sleeps = []
    client = _client(stub, max_retries=2, sleep=sleeps.append)
    with pytest.raises(ServerUnavailableError) as exc_info:
        client.query(Term("a"))
    assert exc_info.value.attempts == 3
    assert len(sleeps) == 2  # no sleep after the final attempt
    assert len(stub.requests) == 3


def test_dropped_connection_is_retried(stub):
    stub.plan = [("drop",), ("200", _OK_BODY)]
    sleeps = []
    client = _client(stub, max_retries=2, sleep=sleeps.append)
    assert client.query(Term("a")).status == "ok"
    assert len(sleeps) == 1


def test_timeout_is_retried(stub):
    stub.plan = [("stall", 1.0), ("200", _OK_BODY)]
    client = _client(stub, timeout_s=0.2, max_retries=2)
    assert client.query(Term("a")).status == "ok"


# ----------------------------------------------------------------------
# Non-retryable outcomes
# ----------------------------------------------------------------------
def test_400_raises_immediately_without_retry(stub):
    stub.plan = [("400", {"error": "bad query"})]
    sleeps = []
    client = _client(stub, max_retries=5, sleep=sleeps.append)
    with pytest.raises(QueryRejectedError, match="bad query"):
        client.query(Term("a"))
    assert sleeps == []
    assert len(stub.requests) == 1


def test_500_is_returned_as_failed_response_not_raised(stub):
    stub.plan = [
        (
            "500",
            {
                "status": "failed",
                "values": None,
                "n_results": None,
                "latency_ms": 0.1,
                "error": "ValueError: boom",
            },
        )
    ]
    client = _client(stub, max_retries=5)
    response = client.query(Term("a"))
    assert response.status == "failed"
    assert response.error == "ValueError: boom"
    assert len(stub.requests) == 1  # failed != retryable


# ----------------------------------------------------------------------
# Backoff arithmetic & request shape
# ----------------------------------------------------------------------
def test_backoff_ceiling_is_capped_exponential():
    client = StoreClient(
        "h",
        1,
        backoff_base_s=0.05,
        backoff_cap_s=0.4,
        sleep=lambda s: None,
        rng=_MaxRng(),
    )
    assert [client.backoff_s(n) for n in range(5)] == [
        0.05,
        0.1,
        0.2,
        0.4,
        0.4,
    ]
    assert client.backoff_s(0, retry_after_s=0.3) == 0.3
    assert client.backoff_s(0, retry_after_s=9.0) == 0.4  # hint capped too


def test_backoff_is_full_jitter_within_the_ceiling():
    client = StoreClient(
        "h",
        1,
        backoff_base_s=0.05,
        backoff_cap_s=0.4,
        sleep=lambda s: None,
        rng=random.Random(1234),
    )
    for attempt, ceiling in enumerate([0.05, 0.1, 0.2, 0.4, 0.4]):
        draws = {client.backoff_s(attempt) for _ in range(32)}
        assert all(0.0 <= d <= ceiling for d in draws)
        assert len(draws) > 1  # actually jittered, not a constant


def test_retry_after_hint_is_a_floor_under_jitter():
    # Even when the jitter draws zero, the server's hint holds.
    client = StoreClient(
        "h",
        1,
        backoff_base_s=0.05,
        backoff_cap_s=0.4,
        sleep=lambda s: None,
        rng=_MinRng(),
    )
    assert client.backoff_s(0) == 0.0
    assert client.backoff_s(3, retry_after_s=0.25) == 0.25


def test_direct_construction_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        StoreClient("h", 1)


def test_query_serialises_ast_and_deadline_header(stub):
    stub.plan = [("200", _OK_BODY)]
    client = _client(stub)
    client.query(Term("a"), query_id="q1", deadline_ms=150)
    path, body = stub.requests[0]
    assert path == "/query"
    parsed = json.loads(body)
    assert parsed["query"] == {"op": "term", "name": "a"}
    assert parsed["query_id"] == "q1"


def test_legacy_tuple_query_rejected_before_sending(stub):
    stub.plan = [("200", _OK_BODY)]
    client = _client(stub)
    with pytest.raises(TypeError, match="nested-tuple"):
        client.query(("and", "a", "b"))
    assert stub.requests == []  # rejected client-side, nothing hit the wire


def test_connection_is_reused_across_requests(stub):
    stub.plan = [("200", _OK_BODY), ("200", _OK_BODY)]
    client = _client(stub)
    client.query(Term("a"))
    first = client._conn
    client.query(Term("b"))
    assert client._conn is first


# ----------------------------------------------------------------------
# Retry-After robustness + retry wall-clock budget
# ----------------------------------------------------------------------
def test_malformed_retry_after_falls_back_to_computed_backoff(stub):
    # A proxy mangling the header must never crash the client — the
    # exponential schedule applies as if the hint were absent.
    stub.plan = [("503", "soon"), ("200", _OK_BODY)]
    sleeps = []
    client = _client(
        stub, max_retries=2, backoff_base_s=0.05, sleep=sleeps.append
    )
    assert client.query(Term("a")).status == "ok"
    assert sleeps == [0.05]


@pytest.mark.parametrize(
    "raw,expected",
    [
        (None, None),
        ("", None),
        ("soon", None),
        ("nan", None),
        ("inf", None),
        ("-inf", None),
        ("-3", None),
        ("0", 0.0),
        ("2.5", 2.5),
    ],
)
def test_parse_retry_after_rejects_unusable_values(raw, expected):
    headers = {} if raw is None else {"retry-after": raw}
    assert StoreClient._parse_retry_after(headers) == expected


def test_retry_sleeps_are_clamped_to_the_timeout_budget(stub):
    stub.plan = [("503", 0.3), ("503", 0.3), ("200", _OK_BODY)]
    sleeps = []
    client = _client(
        stub,
        timeout_s=0.5,
        max_retries=3,
        backoff_cap_s=120.0,
        sleep=sleeps.append,
    )
    assert client.query(Term("a")).status == "ok"
    # The first sleep honours the hint; the second is clamped to the
    # remaining 0.5 − 0.3 budget, not the hinted 0.3.
    assert sleeps == [0.3, pytest.approx(0.2)]
    assert sum(sleeps) <= 0.5


def test_giant_retry_after_hint_cannot_exceed_the_budget(stub):
    stub.plan = [("503", 60), ("200", _OK_BODY)]
    sleeps = []
    client = _client(
        stub,
        timeout_s=0.5,
        max_retries=3,
        backoff_cap_s=120.0,
        sleep=sleeps.append,
    )
    assert client.query(Term("a")).status == "ok"
    assert sleeps == [0.5]  # 60s hint clamped to the whole budget


def test_exhausted_retry_budget_stops_before_max_retries(stub):
    stub.plan = [("503", None)] * 20
    client = StoreClient(
        "127.0.0.1",
        stub.server_address[1],
        timeout_s=0.2,
        max_retries=15,
        backoff_base_s=0.15,
        backoff_cap_s=2.0,
        rng=_MaxRng(),
    )  # real sleep: the wall clock is the thing under test
    t0 = time.monotonic()
    with pytest.raises(ServerUnavailableError) as exc_info:
        client.query(Term("a"))
    elapsed = time.monotonic() - t0
    assert "retry budget exhausted" in str(exc_info.value)
    assert exc_info.value.attempts < 16
    assert elapsed < 2.0  # nowhere near 15 * 0.15s of backoff
