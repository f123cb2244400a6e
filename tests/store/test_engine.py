"""QueryEngine: scatter-gather, batches, deadlines, degradation."""

import numpy as np
import pytest

from repro.store import And, DecodeCache, Or, PostingStore, Query, QueryEngine

DOMAIN = 3_000


def _sharded_store(codec: str = "Roaring") -> PostingStore:
    """Three shards partitioning [0, 3000): each holds its own slice."""
    store = PostingStore()
    for s, lo in enumerate(range(0, DOMAIN, 1_000)):
        shard = store.create_shard(f"s{s}", codec=codec, universe=DOMAIN)
        shard.add("even", np.arange(lo, lo + 1_000, 2))
        shard.add("third", np.arange(lo, lo + 1_000, 3))
    # "rare" lives only in shard s1.
    store.shard("s1").add("rare", np.arange(1_000, 2_000, 7))
    return store


EVEN = np.arange(0, DOMAIN, 2)
THIRD = np.concatenate(
    [np.arange(lo, lo + 1_000, 3) for lo in range(0, DOMAIN, 1_000)]
)
RARE = np.arange(1_000, 2_000, 7)


def test_single_term_gathers_across_shards():
    engine = QueryEngine(_sharded_store())
    result = engine.execute("even")
    assert result.ok and result.shards_queried == 3
    assert np.array_equal(result.values, EVEN)


def test_term_present_in_one_shard_only():
    engine = QueryEngine(_sharded_store())
    result = engine.execute("rare")
    assert result.ok  # absent-from-shard is the IR norm, not degradation
    assert np.array_equal(result.values, RARE)


def test_expression_gathers_correctly():
    engine = QueryEngine(_sharded_store())
    result = engine.execute(And("even", "third"))
    assert result.ok
    assert np.array_equal(result.values, np.intersect1d(EVEN, THIRD))
    result = engine.execute(Or("rare", And("even", "third")))
    want = np.union1d(RARE, np.intersect1d(EVEN, THIRD))
    assert np.array_equal(result.values, want)


def test_query_restricted_to_shard_subset():
    engine = QueryEngine(_sharded_store())
    result = engine.execute(Query(expression="even", shards=("s0", "s2")))
    assert result.shards_queried == 2
    want = np.concatenate([np.arange(0, 1_000, 2), np.arange(2_000, 3_000, 2)])
    assert np.array_equal(result.values, want)


def test_unknown_term_everywhere_is_empty_ok():
    engine = QueryEngine(_sharded_store())
    result = engine.execute("ghost")
    assert result.ok and result.values.size == 0


def test_zero_target_shards_is_empty_ok():
    engine = QueryEngine(PostingStore())
    result = engine.execute("anything")
    assert result.ok and result.values.size == 0 and result.shards_queried == 0


def test_unknown_shard_name_degrades_not_raises():
    engine = QueryEngine(_sharded_store())
    result = engine.execute(Query(expression="even", shards=("s0", "nope")))
    assert result.partial and result.failed_shards == ("nope",)
    assert "UnknownShardError" in result.error
    assert np.array_equal(result.values, np.arange(0, 1_000, 2))


def test_invalid_grammar_fails_query_without_crashing():
    engine = QueryEngine(_sharded_store())
    result = engine.execute({"op": "xor", "children": ["even", "third"]})
    assert result.values is None and not result.ok
    assert "not a query expression" in result.error


def test_batch_serves_around_a_malformed_entry():
    """A malformed entry fails in its own slot — same result as
    ``execute`` gives it — instead of raising out of the whole batch."""
    engine = QueryEngine(_sharded_store())
    bad = Query(expression=("and", "even", "third"), query_id="bad")
    results = engine.execute_batch(["even", bad, bad, Query("rare", query_id="q3")])
    assert [r.status for r in results] == ["ok", "failed", "failed", "ok"]
    assert [r.query_id for r in results] == ["", "bad", "bad", "q3"]
    assert np.array_equal(results[0].values, EVEN)
    assert np.array_equal(results[3].values, RARE)
    assert results[1] is not results[2]  # malformed entries never coalesce
    assert results[1].values is None and "nested-tuple" in results[1].error
    snap = engine.metrics.snapshot()["queries"]
    assert (snap["total"], snap["ok"], snap["failed"]) == (4, 2, 2)


def test_batch_preserves_order_and_results():
    engine = QueryEngine(_sharded_store(), max_workers=3)
    queries = [
        Query(expression="even", query_id="q0"),
        Query(expression=And("even", "third"), query_id="q1"),
        Query(expression="rare", query_id="q2"),
    ] * 4
    results = engine.execute_batch(queries)
    assert [r.query_id for r in results] == [q.query_id for q in queries]
    for r in results:
        assert r.ok, r.error
    assert np.array_equal(results[0].values, EVEN)
    assert np.array_equal(results[2].values, RARE)


def test_batch_shares_cache_across_workers():
    cache = DecodeCache()
    engine = QueryEngine(_sharded_store(), cache=cache, max_workers=4)
    results = engine.execute_batch(["even"] * 12)
    stats = cache.stats()
    # Batch dedupe coalesces the 12 identical queries into ONE execution:
    # each of the 3 shards' single leaf decodes exactly once, and no
    # duplicate ever reaches the cache to produce a redundant hit.
    assert stats.insertions == 3
    assert stats.misses == 3
    assert len(results) == 12 and all(r.ok for r in results)
    assert all(np.array_equal(r.values, EVEN) for r in results)
    snap = engine.metrics.snapshot()
    # Observed load still matches offered load: every duplicate gets its
    # own metrics row even though only one execution ran.
    assert snap["queries"]["total"] == 12 and snap["queries"]["ok"] == 12


def test_cooperative_deadline_flags_timeout():
    engine = QueryEngine(_sharded_store(), timeout_s=0.0)
    result = engine.execute("even")
    assert result.timed_out and result.partial and not result.ok
    assert result.shards_queried == 0


def test_batch_timeout_returns_abandoned_result():
    engine = QueryEngine(_sharded_store(), timeout_s=0.0, max_workers=2)
    results = engine.execute_batch([Query(expression="even", query_id="q0")])
    assert len(results) == 1
    assert results[0].timed_out and results[0].partial


def test_metrics_recorded_per_outcome():
    engine = QueryEngine(_sharded_store())
    engine.execute("even")
    engine.execute({"op": "xor", "children": ["a"]})  # failed: not a query
    store = engine.store
    store.shard("s0").failed_terms["lost"] = "gone"
    engine.execute(Or("even", "lost"))  # partial via degraded term
    snap = engine.metrics.snapshot()
    assert snap["queries"]["total"] == 3
    assert snap["queries"]["ok"] == 1
    assert snap["queries"]["failed"] == 1
    assert snap["queries"]["partial"] == 1
    assert snap["latency"]["count"] == 3


def test_degraded_terms_deduped_across_shards():
    store = _sharded_store()
    for name in ("s0", "s1", "s2"):
        store.shard(name).failed_terms["lost"] = "gone"
    engine = QueryEngine(store)
    result = engine.execute(Or("even", "lost"))
    assert result.degraded_terms == ("lost",)
    assert result.partial and np.array_equal(result.values, EVEN)


def test_explain_compiles_without_executing():
    engine = QueryEngine(_sharded_store())
    plans = engine.explain(And("even", "third"))
    assert [p["shard"] for p in plans] == ["s0", "s1", "s2"]
    assert all(p["plan"]["strategy"] == "svs" for p in plans)
    assert engine.metrics.snapshot()["queries"]["total"] == 0


def test_result_as_dict_is_jsonable():
    import json

    engine = QueryEngine(_sharded_store())
    payload = json.dumps(engine.execute("even").as_dict())
    assert '"n_results": 1500' in payload


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        QueryEngine(PostingStore(), max_workers=0)


def test_mixed_codec_shards_gather():
    """Shards may disagree on codec; gather is codec-blind."""
    store = PostingStore()
    for name, codec, lo in (("w", "WAH", 0), ("r", "Roaring", 1_000)):
        shard = store.create_shard(name, codec=codec, universe=2_000)
        shard.add("t", np.arange(lo, lo + 1_000, 4))
    result = QueryEngine(store).execute("t")
    assert result.ok
    assert np.array_equal(result.values, np.arange(0, 2_000, 4))


# ----------------------------------------------------------------------
# Compressed-execution operator counters
# ----------------------------------------------------------------------
def test_exec_op_counters_by_mode():
    store = _sharded_store()  # Roaring: full compressed-domain And
    on = QueryEngine(store)
    result = on.execute(And("even", "third"))
    assert result.ok
    assert result.compressed_ops > 0 and result.decoded_ops == 0
    assert "compressed_ops" in result.as_dict()
    snap = on.metrics.snapshot()
    assert snap["exec_ops"] == {
        "compressed": result.compressed_ops,
        "decoded": 0,
    }
    # SIMDBP128* declares no compressed AND: the driver leaf is decoded.
    probe = QueryEngine(_sharded_store("SIMDBP128*"))
    result = probe.execute(And("even", "third"))
    assert result.ok
    assert np.array_equal(result.values, np.intersect1d(EVEN, THIRD))
    assert result.decoded_ops > 0
    assert probe.metrics.snapshot()["exec_ops"]["decoded"] == result.decoded_ops


def test_plan_cache_hit_reports_zero_exec_ops():
    engine = QueryEngine(_sharded_store(), cache=DecodeCache())
    first = engine.execute(And("even", "third"))
    assert first.compressed_ops > 0
    again = engine.execute(And("even", "third"))
    assert np.array_equal(again.values, first.values)
    assert again.compressed_ops == 0 and again.decoded_ops == 0
    # Metrics only accumulate executions that actually ran.
    snap = engine.metrics.snapshot()
    assert snap["exec_ops"]["compressed"] == first.compressed_ops
