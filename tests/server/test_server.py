"""End-to-end server behaviour, including every injected fault the
serving layer must survive: slow shards vs deadlines, corrupt lists
under lenient load, client disconnects mid-exchange, and queue-full
shedding — all against a real server on a real socket.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import connect
from repro.server import (
    DEADLINE_HEADER,
    ServerUnavailableError,
)
from repro.store import And, Or, PostingStore, QueryEngine, Term

from tests.conftest import corrupt_term_payload, _raw_request
from tests.server.conftest import make_store


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------
def test_healthz(engine, live_server):
    server = live_server(engine)
    status, _headers, payload = _raw_request(server.port, "GET", "/healthz")
    assert status == 200
    body = json.loads(payload)
    assert body["status"] == "ok"
    assert body["shards"] == 2


def test_query_matches_in_process_result(engine, live_server):
    server = live_server(engine)
    expected = engine.execute(And(Or("a", "b"), "c"))
    with connect(f"http://127.0.0.1:{server.port}") as client:
        response = client.query(And(Or("a", "b"), "c"), query_id="q1")
    assert response.status == "ok"
    assert response.query_id == "q1"
    assert response.values == [int(v) for v in expected.values]


def test_query_shard_subset(engine, live_server):
    server = live_server(engine)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        full = client.query(Term("a"))
        half = client.query(Term("a"), shards=["s0"])
    assert half.shards_queried == 1
    assert half.n_results < full.n_results


def test_unknown_routes(engine, live_server):
    server = live_server(engine)
    assert _raw_request(server.port, "GET", "/nope")[0] == 404
    assert _raw_request(server.port, "GET", "/query")[0] == 405


def test_malformed_bodies_get_400(engine, live_server):
    server = live_server(engine)
    for body in (b"not json", b"[]", b'{"no": "query"}'):
        status, _headers, payload = _raw_request(
            server.port, "POST", "/query", body=body
        )
        assert status == 400
        assert "error" in json.loads(payload)


def test_bad_deadline_header_gets_400(engine, live_server):
    server = live_server(engine)
    body = json.dumps({"v": 2, "query": "a"}).encode()
    for value in ("abc", "-5", "0"):
        status, _headers, _payload = _raw_request(
            server.port,
            "POST",
            "/query",
            body=body,
            headers=((DEADLINE_HEADER, value),),
        )
        assert status == 400


# ----------------------------------------------------------------------
# Fault: slow shard vs per-request deadline
# ----------------------------------------------------------------------
def test_slow_shard_degrades_to_partial_within_grace(live_server):
    """The cooperative path: the slow shard finishes, later shards are
    skipped at the deadline check, and the client gets the completed
    shards flagged partial + timed_out — not a stalled connection."""
    engine = QueryEngine(make_store(), shard_delays={"s0": 0.15})
    server = live_server(engine, grace_factor=40.0)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        response = client.query(Term("a"), deadline_ms=50)
    assert response.status == "timed_out"
    assert response.partial and response.timed_out
    assert response.shards_queried == 1  # s0 completed, s1 skipped
    assert response.values  # partial results still delivered


def test_slow_shard_abandoned_past_grace(live_server):
    """The abandonment path: the worker overruns deadline × grace, the
    responder answers without it, and the server stays healthy."""
    engine = QueryEngine(make_store(), shard_delays={"s0": 0.6})
    server = live_server(engine, grace_factor=1.5)
    t0 = time.perf_counter()
    with connect(f"http://127.0.0.1:{server.port}") as client:
        response = client.query(Term("a"), deadline_ms=50)
        elapsed = time.perf_counter() - t0
        assert response.status == "timed_out"
        assert response.values is None
        assert "abandoned" in response.error
        assert elapsed < 0.5  # answered well before the 0.6s worker
        # The abandoned worker still counts as in-flight until done.
        assert client.healthz()["in_flight"] == 1
        time.sleep(0.7)
        assert client.healthz()["in_flight"] == 0


def test_strict_request_escalates_degradation_to_500(live_server):
    engine = QueryEngine(make_store(), shard_delays={"s0": 0.15})
    server = live_server(engine, grace_factor=40.0)
    body = json.dumps({"v": 2, "query": "a", "strict": True}).encode()
    status, _headers, payload = _raw_request(
        server.port, "POST", "/query", body=body, headers=((DEADLINE_HEADER, "50"),)
    )
    assert status == 500
    parsed = json.loads(payload)
    assert parsed["status"] == "failed"
    assert parsed["detail"]["strict_violation"] == "timed_out"


# ----------------------------------------------------------------------
# Fault: corrupt list under lenient load
# ----------------------------------------------------------------------
def test_lenient_store_serves_degraded_over_http(tmp_path, live_server):
    store = PostingStore()
    shard = store.create_shard("s0", codec="WAH", universe=4_000)
    shard.add("good", np.arange(0, 3_000, 3))
    shard.add("doomed", np.arange(0, 3_000, 7))
    directory = tmp_path / "index"
    store.save(directory)
    corrupt_term_payload(directory, "s0", "doomed")

    lenient = PostingStore.load(directory, strict=False)
    server = live_server(QueryEngine(lenient))
    with connect(f"http://127.0.0.1:{server.port}") as client:
        healthy = client.query(Term("good"))
        hurt = client.query(Or("good", "doomed"))
    assert healthy.status == "ok" and healthy.n_results == 1_000
    assert hurt.status == "partial"
    assert hurt.degraded_terms == ("doomed",)
    assert hurt.n_results == 1_000  # surviving leaf still answers


# ----------------------------------------------------------------------
# Fault: client disconnect mid-exchange
# ----------------------------------------------------------------------
def test_client_disconnect_mid_response_leaves_server_healthy(
    engine, live_server
):
    server = live_server(engine)
    body = json.dumps({"v": 2, "query": {"op": "term", "name": "a"}}).encode()
    request = (
        b"POST /query HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )
    for _ in range(3):
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(request)
        sock.close()  # walk away without reading the response
    sock = socket.create_connection(("127.0.0.1", server.port))
    sock.sendall(request[:20])
    sock.close()  # walk away mid-request too
    time.sleep(0.3)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        assert client.query(Term("a")).status == "ok"
        counters = client.metrics()["server"]["admission"]
    assert counters["in_flight"] == 0
    assert counters["accepted"] + counters["shed"] == counters["offered"]


# ----------------------------------------------------------------------
# Fault: queue-full shedding
# ----------------------------------------------------------------------
def test_queue_full_sheds_with_retry_after(live_server):
    engine = QueryEngine(make_store(), shard_delays={"s0": 0.4})
    server = live_server(
        engine, max_pending=2, workers=1, retry_after_s=2.5
    )
    body = json.dumps({"v": 2, "query": "a"}).encode()

    def occupy():
        _raw_request(server.port, "POST", "/query", body=body)

    occupants = [threading.Thread(target=occupy) for _ in range(2)]
    for t in occupants:
        t.start()
    time.sleep(0.1)  # let both get admitted
    status, headers, payload = _raw_request(
        server.port, "POST", "/query", body=body
    )
    assert status == 503
    assert headers["Retry-After"] == "2.5"
    assert "retry" in json.loads(payload)["error"]
    for t in occupants:
        t.join()

    with connect(f"http://127.0.0.1:{server.port}", max_retries=0) as client:
        counters = client.metrics()["server"]["admission"]
    assert counters["shed"] == 1
    assert counters["accepted"] == 2
    assert counters["accepted"] + counters["shed"] == counters["offered"]


def test_client_surfaces_exhausted_retries_as_unavailable(live_server):
    engine = QueryEngine(make_store(), shard_delays={"s0": 0.4})
    server = live_server(engine, max_pending=1, workers=1)
    occupant = threading.Thread(
        target=_raw_request,
        args=(server.port, "POST", "/query", json.dumps({"v": 2, "query": "a"}).encode()),
    )
    occupant.start()
    time.sleep(0.1)
    sleeps = []
    with connect(
        f"http://127.0.0.1:{server.port}", max_retries=1, sleep=sleeps.append
    ) as client:
        with pytest.raises(ServerUnavailableError):
            client.query(Term("a"))
    assert len(sleeps) == 1
    occupant.join()


# ----------------------------------------------------------------------
# Metrics accounting
# ----------------------------------------------------------------------
def test_metrics_snapshot_accounts_for_everything(engine, live_server):
    server = live_server(engine)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        for _ in range(4):
            client.query(Term("a"))
        _raw_request(server.port, "POST", "/query", body=b"broken")
        snapshot = client.metrics()
    server_section = snapshot["server"]
    admission = server_section["admission"]
    # The broken body was *admitted* (shedding happens before parsing),
    # then answered 400 — it must appear in both accountings.
    assert admission["offered"] == 5
    assert admission["accepted"] + admission["shed"] == admission["offered"]
    assert admission["in_flight"] == 0
    assert server_section["responses"]["ok"] == 4
    assert server_section["responses"]["bad_request"] == 1
    assert server_section["request_latency"]["count"] == 5
    # The engine's own metrics rode along in the same snapshot.
    assert snapshot["queries"]["total"] >= 4
