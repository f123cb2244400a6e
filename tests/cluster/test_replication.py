"""Router-mediated replication: primary-durable acks, follower shipping,
and the bounded-staleness contract."""

import asyncio
import time

import pytest

from repro.api import connect
from repro.store import QueryEngine
from repro.store.segments import WritablePostingStore

from tests.cluster.conftest import wait_until as _wait_until


@pytest.fixture
def writable_engines(tmp_path):
    engines = []
    for i in range(2):
        store = WritablePostingStore.open(tmp_path / f"b{i}", fsync=False)
        store.create_shard("s0", codec="Roaring", universe=2**14)
        engines.append(QueryEngine(store))
    yield engines
    for engine in engines:
        engine.store.close()


def test_ingest_acks_on_primary_then_ships_to_follower(
    cluster_factory, writable_engines
):
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=writable_engines
    )
    primary_id = cluster.shardmap.replicas("s0")[0]
    follower_id = cluster.shardmap.followers("s0")[0]
    follower = writable_engines[int(follower_id[1:])]

    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        ack = target.ingest(
            [("add", "s0", "news", [3, 1, 40])], batch_id="rep-1"
        )
    assert ack.ok and ack.acked_ops == 1
    assert ack.batch_id == "rep-1"
    # The ack is primary-durable; the follower converges asynchronously.
    primary = writable_engines[int(primary_id[1:])]
    assert sorted(int(v) for v in primary.execute("news").values) == [1, 3, 40]
    assert _wait_until(
        lambda: sorted(
            int(v) for v in follower.execute("news").values
        ) == [1, 3, 40]
    ), "follower never converged"
    # The counter lands just *after* the follower applies the batch
    # (the ship loop still has to read the HTTP response), so poll.
    assert _wait_until(lambda: cluster.router.metrics.shipped_batches == 1)
    assert cluster.router.metrics.ship_failures == 0


def test_staleness_bound_returns_to_zero_after_shipping(
    cluster_factory, writable_engines
):
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=writable_engines
    )
    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        target.ingest([("add", "s0", "a", [7])], batch_id="rep-2")
        assert _wait_until(
            lambda: cluster.router.metrics.shipped_batches == 1
        )
        response = target.query("a")
    assert response.status == "ok"
    assert response.detail["max_staleness_ms"] == 0.0


def test_dead_follower_bounds_ship_attempts_and_counts_failure(
    cluster_factory, writable_engines
):
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=writable_engines,
        ship_retries=2,
    )
    follower_id = cluster.shardmap.followers("s0")[0]
    cluster.backend_bgs[int(follower_id[1:])].stop()
    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        ack = target.ingest([("add", "s0", "b", [9])], batch_id="rep-3")
        assert ack.ok  # the primary is durable; shipping is async
        assert _wait_until(
            lambda: cluster.router.metrics.ship_failures == 1
        ), "bounded retries never gave up"
        # While the batch is undeliverable-and-dropped, staleness has
        # been surfaced; after the drop the bound resets.
        response = target.query("b")
    assert response.status == "ok"
    assert cluster.router.metrics.shipped_batches == 0


def test_staleness_is_the_next_batch_age_after_the_head_is_dropped(
    cluster_factory, writable_engines, monkeypatch
):
    """Two batches queued to a dead follower; once the first is dropped
    the bound is the second batch's age — never 0, never the first's."""
    from repro.api.errors import BackendUnavailableError

    cluster = cluster_factory(
        n_backends=2, replication=2, engines=writable_engines,
        ship_retries=1,
    )
    follower_id = cluster.shardmap.followers("s0")[0]
    cluster.backend_bgs[int(follower_id[1:])].stop()

    real_request = cluster.router._backend_json
    ship_attempts = []

    async def dead_follower(backend_id, *args, **kwargs):
        if backend_id != follower_id:
            return await real_request(backend_id, *args, **kwargs)
        ship_attempts.append(time.monotonic())
        # Batch 1 fails slowly enough for batch 2 to queue up behind it;
        # batch 2 then stays undelivered at the head until teardown.
        await asyncio.sleep(0.4 if len(ship_attempts) == 1 else 60.0)
        raise BackendUnavailableError(backend_id, "connection refused")

    monkeypatch.setattr(cluster.router, "_backend_json", dead_follower)
    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        assert target.ingest([("add", "s0", "c", [1])], batch_id="first").ok
        time.sleep(0.15)
        second_sent = time.monotonic()
        assert target.ingest([("add", "s0", "c", [2])], batch_id="second").ok
        assert _wait_until(lambda: cluster.router.metrics.ship_failures == 1)
        assert _wait_until(lambda: len(ship_attempts) == 2)
        first_sent = ship_attempts[0]
        staleness_ms = target.query("c").detail["max_staleness_ms"]
        now = time.monotonic()
    assert 0.0 < staleness_ms <= (now - second_sent) * 1000.0
    assert staleness_ms < (now - first_sent) * 1000.0 - 100.0  # not batch 1's age
    assert cluster.router.metrics.ship_failures == 1  # batch 2 still pending


def test_ingest_to_unknown_shard_is_rejected_before_any_write(
    cluster_factory, writable_engines
):
    cluster = cluster_factory(
        n_backends=2, replication=2, engines=writable_engines
    )
    from repro.api.errors import QueryRejectedError

    with connect(f"http://127.0.0.1:{cluster.port}") as target:
        with pytest.raises(QueryRejectedError, match="not in shard map"):
            target.ingest([("add", "nope", "t", [1])])
        follower_or_primary = target.query("t")
    assert follower_or_primary.values == []
