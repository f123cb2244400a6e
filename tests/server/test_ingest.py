"""POST /ingest over a real socket: durable acks, envelope versioning,
read-only rejection, admission, and metrics accounting."""

import json

import pytest

from repro.api import connect
from repro.server.client import QueryRejectedError
from repro.server.protocol import WIRE_VERSION
from repro.store import QueryEngine
from repro.store.plan import Term
from repro.store.segments import WritablePostingStore
from repro.store.wal import replay_wal

from tests.conftest import _raw_request
from tests.server.conftest import make_store


@pytest.fixture
def writable_engine(tmp_path):
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=2**14)
    engine = QueryEngine(store)
    yield engine
    store.close()


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------
def test_ingest_acks_only_after_wal_sync(writable_engine, live_server):
    server = live_server(writable_engine)
    store = writable_engine.store
    with connect(f"http://127.0.0.1:{server.port}") as client:
        resp = client.ingest(
            [("add", "s0", "news", [3, 1, 40]), ("del", "s0", "news", [3])],
            batch_id="b-7",
        )
    assert resp.ok and resp.status == "ok"
    assert resp.acked_ops == 2
    assert resp.batch_id == "b-7"
    assert resp.pending_ops >= 2
    # The ack's durability claim: the records are on disk right now.
    replay = replay_wal(store._wal.path)
    data_ops = [op for op in replay.ops if op["op"] != "shard"]
    assert len(data_ops) == 2
    # And the write is immediately queryable through the delta overlay.
    with connect(f"http://127.0.0.1:{server.port}") as client:
        result = client.query(Term("news"))
    assert result.values == [1, 40]


def test_ingest_then_background_compaction_preserves_results(
    writable_engine, live_server
):
    server = live_server(writable_engine)
    store = writable_engine.store
    with connect(f"http://127.0.0.1:{server.port}") as client:
        client.ingest([("add", "s0", "t", list(range(0, 500, 5)))])
        before = client.query(Term("t")).values
        store.compact()
        after = client.query(Term("t")).values
    assert before == after == list(range(0, 500, 5))


# ----------------------------------------------------------------------
# Rejections
# ----------------------------------------------------------------------
def test_ingest_on_readonly_store_is_400(engine, live_server):
    server = live_server(engine)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        with pytest.raises(QueryRejectedError, match="read-only"):
            client.ingest([("add", "s0", "t", [1])])


def test_ingest_get_method_is_405(writable_engine, live_server):
    server = live_server(writable_engine)
    status, _h, _p = _raw_request(server.port, "GET", "/ingest")
    assert status == 405


def _op(kind="add", shard="s0", term="t", values=(1,)):
    return {"op": kind, "shard": shard, "term": term, "values": list(values)}


@pytest.mark.parametrize(
    "body",
    [
        {},  # no ops
        {"ops": []},  # empty ops
        {"ops": [["add", "s0", "t", [1]]]},  # array, not an op object
        {"ops": [_op(kind="xor")]},  # unknown op kind
        {"ops": [_op(values=[1, -2])]},  # negative id
        {"ops": [_op(values=[True])]},  # bool is not an id
        {"ops": [_op(values="15")]},  # values not a list
    ],
)
def test_malformed_ingest_bodies_get_400(writable_engine, live_server, body):
    server = live_server(writable_engine)
    body = {"v": WIRE_VERSION, **body}  # versioned, so the op shape is what fails
    status, _h, payload = _raw_request(
        server.port, "POST", "/ingest", json.dumps(body).encode()
    )
    assert status == 400, payload
    assert "error" in json.loads(payload)


def test_unknown_shard_is_a_failed_500_response(writable_engine, live_server):
    server = live_server(writable_engine)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        resp = client.ingest([("add", "nope", "t", [1])])
    assert not resp.ok and resp.status == "failed"
    assert "UnknownShardError" in resp.error
    assert resp.acked_ops == 0


# ----------------------------------------------------------------------
# Wire-envelope versioning (both endpoints)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path,body", [
    ("/query", {"query": "a"}),
    ("/ingest", {"ops": [{"op": "add", "shard": "s0", "term": "t", "values": [1]}]}),
])
def test_wrong_major_version_is_400(writable_engine, live_server, path, body):
    server = live_server(writable_engine)
    body = {"v": WIRE_VERSION + 1, **body}
    status, _h, payload = _raw_request(
        server.port, "POST", path, json.dumps(body).encode()
    )
    assert status == 400
    assert "wire version" in json.loads(payload)["error"]


def test_unversioned_bodies_rejected(writable_engine, live_server):
    # "v" is mandatory.
    server = live_server(writable_engine)
    status, _h, payload = _raw_request(
        server.port,
        "POST",
        "/ingest",
        json.dumps({"ops": [_op(values=[1])]}).encode(),
    )
    assert status == 400
    assert "wire version" in json.loads(payload)["error"]


def test_previous_major_version_is_rejected(writable_engine, live_server):
    # v1 is an unknown major like any other: 400, nothing ingested.
    server = live_server(writable_engine)
    for path, body in (
        ("/query", {"query": "a"}),
        ("/ingest", {"ops": [_op(values=[1])]}),
    ):
        status, _h, payload = _raw_request(
            server.port, "POST", path, json.dumps({"v": 1, **body}).encode()
        )
        assert status == 400, path
        assert "unsupported wire version 1" in json.loads(payload)["error"]
    assert writable_engine.store.pending_ops() == 0


def test_client_sends_versioned_envelopes(writable_engine, live_server):
    from repro.server.protocol import IngestRequest, QueryRequest

    assert QueryRequest(query=Term("a")).to_body()["v"] == WIRE_VERSION
    assert (
        IngestRequest(ops=(("add", "s0", "t", [1]),)).to_body()["v"]
        == WIRE_VERSION
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_ingest_metrics_and_write_path_in_snapshot(
    writable_engine, live_server
):
    server = live_server(writable_engine)
    with connect(f"http://127.0.0.1:{server.port}") as client:
        client.ingest([("add", "s0", "t", [1, 2]), ("add", "s0", "u", [3])])
        client.ingest([("add", "nope", "t", [4])])  # failed batch
        snap = client.metrics()
    ingest = snap["server"]["ingest"]
    assert ingest["batches"] == 2
    assert ingest["acked_ops"] == 2
    assert ingest["failed_batches"] == 1
    assert snap["server"]["ingest_latency"]["count"] == 2
    responses = snap["server"]["responses"]
    assert responses.get("ingest_ok") == 1
    assert responses.get("ingest_failed") == 1
    write_path = snap["write_path"]
    assert write_path["pending_ops"] == 2
    assert write_path["wal_records"] >= 3
