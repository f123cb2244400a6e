"""The router's keep-alive backend pool: when a connection may be reused.

The rule under test (``repro.server.http.BackendConnections``): a
connection returns to the pool only after a complete, well-framed
HTTP/1.1 response that does not say ``Connection: close``; every other
ending closes it, so a cancelled or failed exchange can never leave
response bytes behind for the next caller.  First against scripted raw
TCP peers (each framing case, the stale-connection replay), then
through a live router (hedge losers, concurrency, restart, shutdown).
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.api import connect
from repro.cluster import Backend, ShardMap
from repro.cluster.metrics import BackendStats
from repro.server import BackgroundServer, StoreServer
from repro.server.http import (
    MAX_IDLE_CONNECTIONS,
    MAX_RESPONSE_BYTES,
    BackendConnections,
    HttpExchangeError,
    read_http_request,
)
from repro.store import Query, QueryEngine, Term

from tests.cluster.conftest import wait_until
from tests.server.conftest import make_store

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
CLOSE = object()  # script step: hang up now
HANG = object()  # script step: never answer


class ScriptedPeer:
    """A raw TCP peer: request *k* on accepted connection *c* is answered
    by the steps ``script(c, k)`` returns — bytes are written, ``CLOSE``
    hangs up, ``HANG`` stalls.  ``requests[c]`` counts what arrived."""

    def __init__(self, script):
        self.script = script
        self.requests: list[int] = []
        self._writers = []
        self._handlers = []

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self._closing = asyncio.Event()
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        self._closing.set()
        for writer in self._writers:
            writer.close()
        await asyncio.gather(*self._handlers)
        await self._server.wait_closed()

    async def _serve(self, reader, writer):
        conn = len(self.requests)
        self.requests.append(0)
        self._writers.append(writer)
        self._handlers.append(asyncio.current_task())
        try:
            while await read_http_request(reader) is not None:
                steps = self.script(conn, self.requests[conn])
                self.requests[conn] += 1
                for step in steps:
                    if step is CLOSE:
                        return
                    if step is HANG:
                        await self._closing.wait()
                        return
                    writer.write(step)
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def _run_against(script, scenario):
    """Run ``scenario(pool, stats, peer)`` against a scripted peer."""

    async def main():
        async with ScriptedPeer(script) as peer:
            stats = BackendStats("b0")
            pool = BackendConnections("127.0.0.1", peer.port, stats)
            try:
                return await scenario(pool, stats, peer)
            finally:
                pool.close()

    return asyncio.run(main())


def _counts(stats):
    return (
        stats.connections_opened,
        stats.connections_reused,
        stats.connections_discarded,
    )


# ----------------------------------------------------------------------
# Which responses leave a reusable connection
# ----------------------------------------------------------------------
def test_complete_keepalive_responses_share_one_connection():
    async def scenario(pool, stats, peer):
        for _ in range(5):
            assert await pool.exchange("GET", "/x") == (
                200, {"content-length": "2"}, {},
            )
        return _counts(stats), peer.requests

    assert _run_against(lambda c, k: [OK], scenario) == ((1, 4, 0), [5])


@pytest.mark.parametrize(
    "response",
    [
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nconnection: Close\r\n\r\n{}",
        b"HTTP/1.1 204 No Content\r\n\r\n",
    ],
    ids=["http-1.0", "connection-close", "connection-close-any-case",
         "no-content-length"],
)
def test_answers_that_do_not_promise_another_are_not_pooled(response):
    async def scenario(pool, stats, peer):
        for _ in range(3):
            status, _headers, body = await pool.exchange("GET", "/x")
            assert status in (200, 204) and body == {}
            assert pool._idle == []
        return _counts(stats), peer.requests

    # Answered every time, and every time on a connection of its own.
    assert _run_against(lambda c, k: [response], scenario) == (
        (3, 0, 3), [1, 1, 1],
    )


@pytest.mark.parametrize(
    "steps,error",
    [
        ([b"BANANA\r\n\r\n"], "garbled status line"),
        ([b"HTTP/1.1 two-hundred OK\r\nContent-Length: 2\r\n\r\n{}"],
         "garbled status line"),
        ([b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}", CLOSE],
         "IncompleteReadError"),
        ([b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
          % (MAX_RESPONSE_BYTES + 1)], "body too large"),
        ([b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{]"], "non-JSON"),
        ([b"HTTP/1.1 200 OK\r\n", CLOSE], "IncompleteReadError"),
        ([CLOSE], "closed before any response byte"),
        ([HANG], "no response within"),
        ([b"HTTP/1.1 200 OK\r\nContent-Le", HANG], "no response within"),
    ],
    ids=["no-status", "non-numeric-status", "short-body", "oversized-body",
         "non-json-body", "eof-in-headers", "eof-before-status", "timeout",
         "timeout-mid-headers"],
)
def test_a_failed_exchange_never_returns_its_connection(steps, error):
    """First request on a fresh connection fails in each way a response
    can; the connection is gone and the next exchange gets its own
    answer on a new one — whatever the first left in flight."""

    def script(conn, k):
        return steps if (conn, k) == (0, 0) else [OK]

    async def scenario(pool, stats, peer):
        with pytest.raises(HttpExchangeError, match=error):
            await pool.exchange("GET", "/x", timeout_s=0.3)
        # The well-framed non-JSON answer is the one failure that leaves
        # the stream on a message boundary.
        pooled = 1 if error == "non-JSON" else 0
        assert len(pool._idle) == pooled
        assert await pool.exchange("GET", "/x") == (200, {"content-length": "2"}, {})
        return _counts(stats), len(peer.requests)

    counts, connections = _run_against(script, scenario)
    if error == "non-JSON":
        assert (counts, connections) == ((1, 1, 0), 1)
    else:
        assert (counts, connections) == ((2, 0, 1), 2)


def test_a_cancelled_exchange_closes_its_socket_mid_flight():
    """What a hedge loser is: the task is cancelled while the response is
    still coming.  Its connection must not be the next caller's."""

    def script(conn, k):
        if conn == 0 and k == 1:
            return [b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n", HANG]
        return [b'HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{"c": %d}\n' % conn]

    async def scenario(pool, stats, peer):
        assert (await pool.exchange("GET", "/x"))[2] == {"c": 0}
        loser = asyncio.create_task(pool.exchange("GET", "/x"))
        while peer.requests[0] < 2:  # in flight, on the reused connection
            await asyncio.sleep(0.005)
        loser.cancel()
        with pytest.raises(asyncio.CancelledError):
            await loser
        assert pool._idle == []
        assert (await pool.exchange("GET", "/x"))[2] == {"c": 1}
        return _counts(stats)

    assert _run_against(script, scenario) == (2, 1, 1)


# ----------------------------------------------------------------------
# Idle connections the peer dropped
# ----------------------------------------------------------------------
def test_an_idle_connection_at_eof_is_dropped_without_being_written_to():
    def script(conn, k):
        return [OK, CLOSE] if conn == 0 else [OK]

    async def scenario(pool, stats, peer):
        await pool.exchange("GET", "/x")
        (reader, _writer), = pool._idle
        while not reader.at_eof():  # the peer's FIN reaches this loop
            await asyncio.sleep(0.005)
        await pool.exchange("GET", "/x")
        return _counts(stats), peer.requests

    # Connection 0 saw one request only: the second was never sent on it.
    assert _run_against(script, scenario) == ((2, 0, 1), [1, 1])


def test_a_locally_closing_idle_connection_is_dropped():
    async def scenario(pool, stats, peer):
        await pool.exchange("GET", "/x")
        pool._idle[0][1].close()
        await pool.exchange("GET", "/x")
        return _counts(stats), peer.requests

    assert _run_against(lambda c, k: [OK], scenario) == ((2, 0, 1), [1, 1])


def test_a_reused_connection_that_dies_unanswered_is_replayed_once():
    """The peer takes the second request on the kept connection and hangs
    up without a byte (a restart the FIN of which has not arrived yet):
    one fresh dial, inside the same call."""

    def script(conn, k):
        return [CLOSE] if (conn, k) == (0, 1) else [OK]

    async def scenario(pool, stats, peer):
        await pool.exchange("GET", "/x")
        assert await pool.exchange("GET", "/x") == (200, {"content-length": "2"}, {})
        return _counts(stats), peer.requests

    assert _run_against(script, scenario) == ((2, 1, 1), [2, 1])


def test_the_replay_is_for_reused_connections_only():
    """A *fresh* connection closed without a byte is the backend saying
    no; dialling again would be a retry policy, which lives upstream."""

    async def scenario(pool, stats, peer):
        with pytest.raises(HttpExchangeError, match="closed before any response"):
            await pool.exchange("GET", "/x")
        return _counts(stats), peer.requests

    assert _run_against(lambda c, k: [CLOSE], scenario) == ((1, 0, 1), [1])


def test_no_replay_once_response_bytes_have_arrived():
    def script(conn, k):
        if (conn, k) == (0, 1):
            return [b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n", CLOSE]
        return [OK]

    async def scenario(pool, stats, peer):
        await pool.exchange("GET", "/x")
        with pytest.raises(HttpExchangeError, match="IncompleteReadError"):
            await pool.exchange("GET", "/x")
        return _counts(stats), peer.requests

    assert _run_against(script, scenario) == ((1, 1, 1), [2])


def test_the_replay_shares_the_callers_timeout():
    """Stale reused connection, then a peer that accepts and stalls: the
    whole call still ends at ``timeout_s``, not at twice that."""

    def script(conn, k):
        if conn == 0:
            return [OK] if k == 0 else [CLOSE]
        return [HANG]

    async def scenario(pool, stats, peer):
        await pool.exchange("GET", "/x")
        t0 = time.monotonic()
        with pytest.raises(HttpExchangeError, match="no response within 0.3s"):
            await pool.exchange("GET", "/x", timeout_s=0.3)
        return time.monotonic() - t0, _counts(stats)

    elapsed, counts = _run_against(script, scenario)
    assert elapsed < 0.6
    assert counts == (2, 1, 2)


def test_idle_connections_are_capped_and_closed_with_the_pool():
    async def scenario(pool, stats, peer):
        burst = MAX_IDLE_CONNECTIONS + 4
        await asyncio.gather(*(pool.exchange("GET", "/x") for _ in range(burst)))
        assert len(pool._idle) == MAX_IDLE_CONNECTIONS
        assert _counts(stats) == (burst, 0, 4)
        pool.close()
        assert pool._idle == []
        assert stats.connections_opened == stats.connections_discarded
        # A straggler finishing after close() is not kept either.
        await pool.exchange("GET", "/x")
        assert pool._idle == []
        return True

    assert _run_against(lambda c, k: [OK], scenario)


# ----------------------------------------------------------------------
# Through a live router
# ----------------------------------------------------------------------
def _query(port, query="a", **kwargs):
    with connect(f"http://127.0.0.1:{port}", max_retries=0) as target:
        return target.query(query, **kwargs)


def test_sequential_queries_ride_the_same_connections(cluster_factory):
    """The exact-count form of "the router stops dialling"."""
    cluster = cluster_factory(n_backends=2, replication=2, hedge=False)
    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        for _ in range(200):
            assert target.query("a").status == "ok"
        backends = target.metrics()["backends"]
    assert sum(b["requests"] for b in backends.values()) >= 200
    for stats in backends.values():
        # Two replica groups may pick the same backend at once: two legs.
        assert stats["connections_opened"] <= 2
        assert stats["connections_discarded"] == 0
        assert (
            stats["connections_opened"] + stats["connections_reused"]
            == stats["requests"]
        )


def _fifty_term_store():
    store = make_store(4)
    for i in range(50):  # shard s0 covers documents [0, 10_000)
        store.shard("s0").add(f"t{i}", np.arange(i, 10_000, 50 + i))
    return store


def test_cancelled_hedge_losers_never_shift_an_answer(cluster_factory):
    """A slow primary loses every race and is cancelled mid-flight, fifty
    different queries back to back.  Were a loser's connection reused,
    its late response would be read as the *next* query's answer."""
    probe = ShardMap(
        (Backend("b0", "127.0.0.1", 1), Backend("b1", "127.0.0.1", 1)),
        ("s0", "s1", "s2", "s3"), replication=2,
    )
    slow_id = probe.replicas("s0")[0]
    engines = [QueryEngine(_fifty_term_store()) for _ in range(2)]
    engines[int(slow_id[1:])] = QueryEngine(
        _fifty_term_store(), shard_delays={"s0": 0.05}
    )
    # A cold p95 below any real latency keeps the never-answering slow
    # replica ranked first; hedge_min_ms (5 ms) is then the hedge delay.
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=engines, hedge_cold_ms=0.001
    )
    oracle = QueryEngine(_fifty_term_store())
    with connect(f"http://127.0.0.1:{cluster.port}", max_retries=0) as target:
        for i in range(50):
            got = target.query(f"t{i}", shards=["s0"])
            want = oracle.execute(Query(expression=Term(f"t{i}"), shards=("s0",)))
            assert got.status == "ok"
            assert got.values == want.values.tolist()
    metrics = cluster.router.metrics
    assert metrics.failovers == 0
    assert metrics.hedge_wins >= 40  # the 50 ms leg lost, bar a CI stall
    assert metrics.backend(slow_id).connections_discarded >= metrics.hedge_wins
    # The abandoned 50 ms jobs finish before teardown stops their loop.
    slow = cluster.backend_bgs[int(slow_id[1:])].server
    assert wait_until(lambda: slow.admission.pending == 0)


def test_concurrent_queries_dial_at_most_one_connection_each(cluster_factory):
    n = MAX_IDLE_CONNECTIONS + 4
    engines = [
        QueryEngine(make_store(4), shard_delays={"s0": 0.15}) for _ in range(2)
    ]
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=engines, hedge=False
    )
    primary = cluster.shardmap.replicas("s0")[0]
    statuses = []

    def one_query():
        statuses.append(_query(cluster.port, shards=["s0"]).status)

    threads = [threading.Thread(target=one_query) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert statuses == ["ok"] * n
    stats = cluster.router.metrics.backend(primary)
    pool = cluster.router._pools[cluster.shardmap.backend(primary)]
    # All n were in flight together (8 workers, 150 ms each): n dials,
    # the idle cap kept, the rest closed on return.
    assert stats.connections_opened == n
    assert len(pool._idle) == MAX_IDLE_CONNECTIONS
    assert stats.connections_discarded == n - MAX_IDLE_CONNECTIONS


def test_a_restarted_backend_costs_a_dial_not_a_failover(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2, hedge=False)
    baseline = _query(cluster.port)
    for i, bg in enumerate(cluster.backend_bgs):
        port = bg.port
        bg.stop()
        cluster.backend_bgs[i] = BackgroundServer(
            StoreServer(cluster.engines[i], port=port)
        ).start()
    try:
        again = _query(cluster.port)
    finally:
        for bg in cluster.backend_bgs:
            bg.stop()
    assert again.status == "ok" and again.values == baseline.values
    metrics = cluster.router.metrics
    assert metrics.failovers == 0
    assert all(stats.failures == 0 for stats in metrics.backends.values())
    # Whichever replicas the second query picked had a dead idle
    # connection from the first: dropped (or replayed) and redialled.
    assert sum(s.connections_discarded for s in metrics.backends.values()) >= 1


def test_router_stop_closes_every_pooled_socket(cluster_factory):
    cluster = cluster_factory(n_backends=3, replication=2)
    for _ in range(5):
        assert _query(cluster.port).status == "ok"
    backends = [bg.server for bg in cluster.backend_bgs]
    assert wait_until(lambda: sum(len(b._writers) for b in backends) >= 3)
    cluster.router_bg.stop()
    assert wait_until(lambda: all(not b._writers for b in backends))
    stats = cluster.router.metrics.backends.values()
    assert all(s.connections_opened == s.connections_discarded for s in stats)
