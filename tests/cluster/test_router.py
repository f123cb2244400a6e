"""ClusterRouter integration: scatter-gather, failover, hedging, merge."""

import asyncio
import http.client
import http.server
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.api.errors import QueryRejectedError
from repro.cluster import Backend, ClusterRouter, ShardMap
from repro.cluster.router import _GroupAnswer
from repro.server import BackgroundServer
from repro.server.protocol import QueryResponse
from repro.store import QueryEngine
from repro.store.plan import Query, Term

from tests.cluster.conftest import wait_until
from tests.server.conftest import make_store


def _query(port, query="a", **kwargs):
    with connect(f"http://127.0.0.1:{port}", max_retries=0) as target:
        return target.query(query, **kwargs)


# ----------------------------------------------------------------------
# Scatter-gather happy path
# ----------------------------------------------------------------------
def test_scatter_gather_matches_single_backend(cluster_factory):
    cluster = cluster_factory(n_backends=3, replication=2)
    single = QueryEngine(make_store(4))
    merged = _query(cluster.port)
    local = single.execute("a")
    assert merged.status == "ok"
    assert merged.values == sorted(int(v) for v in local.values)
    detail = merged.detail
    assert detail["replicas"]["answered"] == detail["replicas"]["of"]
    assert detail["shardmap_version"] == 1
    assert detail["max_staleness_ms"] == 0.0


def test_shard_subset_routes_only_those_groups(cluster_factory):
    cluster = cluster_factory(n_backends=3, replication=2)
    shard = cluster.shardmap.shards[0]
    response = _query(cluster.port, shards=[shard])
    assert response.status == "ok"
    single = QueryEngine(make_store(4)).execute(
        Query(expression=Term("a"), shards=(shard,))
    )
    assert response.values == sorted(int(v) for v in single.values)
    assert response.shards_queried == 1


def test_unknown_shard_is_rejected_with_400(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=1)
    with pytest.raises(QueryRejectedError, match="not in shard map"):
        _query(cluster.port, shards=["nope"])


def test_healthz_and_metrics_report_the_router_role(cluster_factory):
    cluster = cluster_factory(n_backends=3, replication=2)
    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        assert target.query("a").status == "ok"
        health = target.healthz()
        metrics = target.metrics()
    assert health["role"] == "router"
    assert health["backends"] == 3
    assert health["replication"] == 2
    assert sorted(health["shard_names"]) == sorted(cluster.shardmap.shards)
    assert metrics["role"] == "router"
    assert set(metrics["backends"]) == {"b0", "b1", "b2"}
    assert metrics["queries"]["ok"] >= 1


# ----------------------------------------------------------------------
# Failover and degradation
# ----------------------------------------------------------------------
def test_replicated_cluster_survives_a_dead_backend(cluster_factory):
    cluster = cluster_factory(n_backends=3, replication=2)
    baseline = QueryEngine(make_store(4)).execute("a")
    # No traffic yet, so every group ranks its placement primary first:
    # b1 (primary of s0/s1) is tried, refuses, and its replica answers.
    dead = cluster.router.metrics.backend("b1")
    before = (dead.requests, dead.failures)
    cluster.backend_bgs[1].stop()
    survived = _query(cluster.port)
    assert survived.status == "ok"
    assert survived.values == sorted(int(v) for v in baseline.values)
    assert survived.failed_shards == ()
    # The refused exchange is counted; every request since the stop failed.
    failures = dead.failures - before[1]
    assert failures >= 1
    assert dead.requests - before[0] == failures


def test_unreplicated_cluster_degrades_to_partial_with_attribution(
    cluster_factory,
):
    cluster = cluster_factory(n_backends=2, replication=1)
    dead_id = "b0"
    dead_shards = [
        s for s in cluster.shardmap.shards
        if cluster.shardmap.replicas(s)[0] == dead_id
    ]
    assert dead_shards, "placement should give b0 at least one primary"
    cluster.backend_bgs[0].stop()
    response = _query(cluster.port)
    assert response.status == "partial"
    assert response.partial and not response.timed_out
    assert response.values is not None  # surviving shards still answer
    assert sorted(response.failed_shards) == sorted(dead_shards)
    assert sorted(response.detail["failed_backends"][dead_id]) == sorted(
        dead_shards
    )
    answered = response.detail["replicas"]
    assert answered["answered"] < answered["of"]


def test_every_backend_dead_is_the_only_failed_status(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2)
    for bg in cluster.backend_bgs:
        bg.stop()
    response = _query(cluster.port)
    assert response.status == "failed"
    assert response.values is None
    assert response.detail["replicas"]["answered"] == 0


def test_strict_escalates_degradation_to_failed(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=1)
    cluster.backend_bgs[0].stop()
    response = _query(cluster.port, strict=True)
    assert response.status == "failed"
    assert response.detail["strict_violation"] == "partial"


@pytest.fixture
def hostile_peer():
    """A live HTTP peer answering every POST with 200 + JSON that is not
    a query response (no ``status`` key)."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            payload = json.dumps({"hello": "world"}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    peer = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=peer.serve_forever, daemon=True)
    thread.start()
    yield peer.server_address[1]
    peer.shutdown()
    peer.server_close()
    thread.join(timeout=5)


def _refused_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]  # closed again: connections are refused


@pytest.mark.parametrize("hedge", [True, False], ids=["hedge", "no-hedge"])
def test_unparseable_backend_body_fails_over_like_a_dead_backend(
    hostile_peer, hedge
):
    """First replica refuses, the failover replica answers 200 with a
    body that is not a query response: both are non-answers, the client
    gets a ``failed`` response attributing both — not a dropped socket."""
    placement = ShardMap(
        (Backend("b0", "127.0.0.1", 1), Backend("b1", "127.0.0.1", 2)),
        ("s0",), replication=2,
    )
    first, second = placement.replicas("s0")
    ports = {first: _refused_port(), second: hostile_peer}
    shardmap = ShardMap(
        tuple(Backend(bid, "127.0.0.1", ports[bid]) for bid in ("b0", "b1")),
        ("s0",), replication=2,
    )
    router = ClusterRouter(shardmap, hedge=hedge)
    with BackgroundServer(router) as bg:
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=10)
        try:
            conn.request("POST", "/query", json.dumps({"v": 2, "query": "a"}))
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 500
            assert body["status"] == "failed"
            assert body["failed_shards"] == ["s0"]
            assert body["detail"]["failed_backends"] == {"b0": ["s0"], "b1": ["s0"]}
            assert "unusable" in body["error"]
            # Same socket, next request: the connection survived.
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            # The peer speaks HTTP/1.0: its answer was read in full, and
            # its connection closed instead of pooled.
            assert all(not pool._idle for pool in router._pools.values())
            stats = router.metrics.backend(second)
            assert stats.connections_opened == stats.connections_discarded == 1
        finally:
            conn.close()
    assert router.metrics.backend(second).failures == 1
    assert router.metrics.queries == {"failed": 1}


# ----------------------------------------------------------------------
# Hedged reads
# ----------------------------------------------------------------------
def test_hedge_beats_a_slow_primary(cluster_factory):
    shards = tuple(sorted(make_store(4).shard_names()))
    probe = ShardMap(
        (
            Backend(backend_id="b0", host="127.0.0.1", port=1),
            Backend(backend_id="b1", host="127.0.0.1", port=1),
        ),
        shards,
        replication=2,
    )
    slow_shard = shards[0]
    slow_idx = int(probe.replicas(slow_shard)[0][1:])  # "b0" -> 0
    engines = [QueryEngine(make_store(4)), QueryEngine(make_store(4))]
    engines[slow_idx] = QueryEngine(
        make_store(4), shard_delays={slow_shard: 0.5}
    )
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=engines, hedge_cold_ms=25.0
    )
    response = _query(cluster.port, shards=[slow_shard])
    assert response.status == "ok"
    assert response.latency_ms < 450.0  # the hedge won; 500ms leg lost
    assert response.detail.get("hedged_groups") == 1
    assert cluster.router.metrics.hedged == 1
    assert cluster.router.metrics.hedge_wins == 1
    # The abandoned 500 ms job finishes before teardown stops its loop.
    slow = cluster.backend_bgs[slow_idx].server
    assert wait_until(lambda: slow.admission.pending == 0)


def test_hedging_can_be_disabled(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2, hedge=False)
    cluster.backend_bgs[0].stop()
    response = _query(cluster.port)
    assert response.status == "ok"  # sequential failover still covers
    assert cluster.router.metrics.hedged == 0
    assert cluster.router.metrics.failovers >= 1


# ----------------------------------------------------------------------
# Admission-aware ranking and merge taxonomy (event-loop units)
# ----------------------------------------------------------------------
def _bare_router(replication=2, n_backends=2):
    backends = tuple(
        Backend(backend_id=f"b{i}", host="127.0.0.1", port=7000 + i)
        for i in range(n_backends)
    )
    shardmap = ShardMap(backends, ("s0", "s1"), replication=replication)
    return ClusterRouter(shardmap)


def test_shed_backend_ranks_behind_its_replica():
    router = _bare_router()

    async def main():
        now = asyncio.get_running_loop().time()
        router.metrics.backend("b0").record_shed(now + 60.0)
        return router._ranked(("b0", "b1"))

    assert asyncio.run(main()) == ["b1", "b0"]


def test_cooldown_expires_and_fast_p95_wins():
    router = _bare_router()

    async def main():
        now = asyncio.get_running_loop().time()
        router.metrics.backend("b0").record_shed(now - 1.0)  # already over
        for _ in range(20):
            router.metrics.backend("b0").record_success(1.0)
            router.metrics.backend("b1").record_success(200.0)
        return router._ranked(("b1", "b0"))

    assert asyncio.run(main()) == ["b0", "b1"]


def _response(status, values=(), **kwargs):
    return QueryResponse(
        status=status,
        values=list(values) if values is not None else None,
        n_results=len(values) if values is not None else None,
        latency_ms=1.0,
        partial=status != "ok",
        timed_out=status == "timed_out",
        shards_queried=1,
        **kwargs,
    )


def test_merge_unions_values_and_keeps_ok():
    router = _bare_router()
    answers = [
        _GroupAnswer(("s0",), backend_id="b0", response=_response("ok", [1, 3])),
        _GroupAnswer(("s1",), backend_id="b1", response=_response("ok", [2, 3])),
    ]
    merged = asyncio.run(_run_merge(router, answers))
    assert merged.status == "ok"
    assert merged.values == [1, 2, 3]
    assert merged.detail["replicas"] == {"answered": 2, "of": 2}


_int_lists = st.lists(st.integers(min_value=0, max_value=60), max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    groups=st.lists(
        st.one_of(
            st.none(),  # a usable answer that carries no values
            _int_lists,  # arbitrary: unsorted, duplicated
            _int_lists.map(lambda xs: sorted(set(xs))),  # what a backend sends
        ),
        max_size=4,
    ),
    status=st.sampled_from(["ok", "partial", "timed_out"]),
)
def test_merge_values_are_the_sorted_union_of_the_groups(groups, status):
    router = _bare_router()
    answers = [
        _GroupAnswer(
            (f"s{i}",), backend_id=f"b{i % 2}",
            response=QueryResponse(
                status=status if i == 0 else "ok", values=values,
                n_results=None if values is None else len(values),
                latency_ms=1.0, shards_queried=1,
                failed_shards=(f"x{i}",), degraded_terms=(f"t{i}",),
            ),
        )
        for i, values in enumerate(groups)
    ]
    merged = asyncio.run(_run_merge(router, answers))
    if not groups:
        assert merged.status == "failed" and merged.values is None
        assert merged.n_results is None
        return
    want = sorted(set().union(*(g for g in groups if g is not None)))
    assert merged.values == want
    assert [type(v) for v in merged.values] == [int] * len(want)
    assert merged.n_results == len(want)
    assert merged.status == status
    assert merged.failed_shards == tuple(f"x{i}" for i in range(len(groups)))
    assert merged.degraded_terms == tuple(f"t{i}" for i in range(len(groups)))
    assert merged.detail["replicas"] == {"answered": len(groups), "of": len(groups)}
    assert "failed_backends" not in merged.detail


def test_merge_treats_answered_failed_as_degraded_not_timed_out():
    router = _bare_router()
    answers = [
        _GroupAnswer(("s0",), backend_id="b0", response=_response("ok", [1])),
        _GroupAnswer(
            ("s1",), backend_id="b1",
            response=_response("failed", None, error="shard exploded"),
        ),
    ]
    merged = asyncio.run(_run_merge(router, answers))
    assert merged.status == "partial"
    assert not merged.timed_out
    assert merged.values == [1]
    assert merged.failed_shards == ("s1",)
    assert merged.detail["failed_backends"] == {"b1": ["s1"]}
    assert "shard exploded" in merged.error


def test_merge_escalates_to_timed_out_but_never_past_it():
    router = _bare_router()
    answers = [
        _GroupAnswer(
            ("s0",), backend_id="b0", response=_response("timed_out", [1]),
        ),
        _GroupAnswer(("s1",), backend_id="b1", response=_response("ok", [2])),
    ]
    merged = asyncio.run(_run_merge(router, answers))
    assert merged.status == "timed_out"
    assert merged.partial and merged.timed_out
    assert merged.values == [1, 2]


def test_merge_attributes_transport_errors_to_backends():
    router = _bare_router()
    answers = [
        _GroupAnswer(("s0",), backend_id="b0", response=_response("ok", [1])),
        _GroupAnswer(
            ("s1",), error="b1: backend 'b1' unavailable: connection refused",
        ),
    ]
    merged = asyncio.run(_run_merge(router, answers))
    assert merged.status == "partial"
    assert merged.detail["failed_backends"] == {"b1": ["s1"]}


async def _run_merge(router, answers):
    from repro.server.protocol import QueryRequest

    return router._merge(QueryRequest(query=Term("a")), answers, 1.0)
