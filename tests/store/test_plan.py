"""Query grammar, plan compilation, constant folding, describe()."""

import numpy as np
import pytest

from repro.ops import And as ExprAnd
from repro.ops import Leaf
from repro.ops import Or as ExprOr
from repro.store import (
    And,
    DecodeCache,
    Or,
    PostingStore,
    Query,
    compile_shard_plan,
    query_terms,
)

A = np.arange(0, 600, 2)
B = np.arange(0, 600, 3)
C = np.arange(0, 600, 5)


def _store(codec: str = "Roaring") -> PostingStore:
    store = PostingStore()
    shard = store.create_shard("s0", codec=codec, universe=600)
    for term, values in (("a", A), ("b", B), ("c", C)):
        shard.add(term, values)
    return store


def test_query_terms_order_and_dedup():
    assert query_terms("x") == ["x"]
    assert query_terms(And(Or("b", "a"), "b", "c")) == ["b", "a", "c"]


def test_query_terms_rejects_tuples():
    with pytest.raises(TypeError, match="nested-tuple"):
        query_terms(("not", "a"))
    with pytest.raises(TypeError, match="nested-tuple"):
        query_terms(("and",))


def test_query_defaults():
    q = Query(expression="a")
    assert q.shards is None and q.query_id == ""


def test_compile_single_term():
    plan = compile_shard_plan(_store(), "s0", "a")
    assert isinstance(plan.expr, Leaf)
    assert plan.terms == ["a"] and not plan.missing_terms
    assert plan.expr.key == ("s0", "a", "Roaring")
    assert np.array_equal(plan.execute(), A)


def test_compile_nested_expression_executes_correctly():
    plan = compile_shard_plan(_store(), "s0", And(Or("a", "b"), "c"))
    assert isinstance(plan.expr, ExprAnd)
    want = np.intersect1d(np.union1d(A, B), C)
    assert np.array_equal(plan.execute(), want)


def test_missing_term_folds_and_to_empty():
    plan = compile_shard_plan(_store(), "s0", And("a", "ghost"))
    assert plan.expr is None
    assert plan.missing_terms == ["ghost"]
    assert plan.execute().size == 0


def test_missing_term_dropped_from_or():
    plan = compile_shard_plan(_store(), "s0", Or("a", "ghost"))
    assert isinstance(plan.expr, Leaf)  # single survivor collapses
    assert np.array_equal(plan.execute(), A)


def test_all_or_children_missing_folds_to_empty():
    plan = compile_shard_plan(_store(), "s0", Or("ghost1", "ghost2"))
    assert plan.expr is None and plan.execute().size == 0


def test_degraded_term_recorded_separately():
    store = _store()
    store.shard("s0").failed_terms["lost"] = "truncated"
    plan = compile_shard_plan(store, "s0", Or("a", "lost", "ghost"))
    assert plan.degraded_terms == ["lost"]
    assert plan.missing_terms == ["ghost"]


def test_adaptive_leaves_unwrap_to_inner_codec():
    plan = compile_shard_plan(_store("Adaptive"), "s0", And("a", "b"))
    inner_names = {leaf.key[2] for leaf in plan.expr.children}
    assert "Adaptive" not in inner_names  # unwrapped to registered codecs
    want = np.intersect1d(A, B)
    assert np.array_equal(plan.execute(), want)


def test_cold_or_stays_compressed_warm_or_uses_arrays():
    store = _store()
    cache = DecodeCache()
    or_plan = compile_shard_plan(store, "s0", Or("a", "b"))
    cold = or_plan.execute(cache=cache)
    # Cold OR goes through the codec's compressed union; no leaf is
    # materialised, so nothing lands in the cache.
    assert cache.stats().insertions == 0
    # Warm the leaves via single-term plans (full materialisations).
    for term in ("a", "b"):
        compile_shard_plan(store, "s0", term).execute(cache=cache)
    assert cache.stats().insertions == 2
    warm = or_plan.execute(cache=cache)
    assert np.array_equal(cold, warm)
    assert cache.stats().hits >= 2


def test_cache_probes_decodes_and_probe_leaves():
    store = _store()
    cache = DecodeCache()
    plan = compile_shard_plan(store, "s0", And("a", "b"))
    plan.execute(cache=cache, cache_probes=False)
    # Both leaves share a compressed-intersect-capable codec, so the
    # default compressed mode materialises nothing at all.
    assert len(cache) == 0
    plan.execute(cache=cache, cache_probes=False, compressed=False)
    assert len(cache) == 1  # decode baseline: only the driver leaf
    cache.clear()
    plan.execute(cache=cache, cache_probes=True)
    assert len(cache) == 2  # probe leaf decoded through the cache too


@pytest.mark.parametrize("codec", ["SIMDBP128*", "Roaring", "WAH"])
def test_cold_leaf_costs_one_cache_lookup(codec):
    """The evaluator's strategy peek and the decode that follows share
    one lookup, so a cold leaf is one miss — not two — in ``hit_rate``."""
    plan = compile_shard_plan(_store(codec), "s0", And("a", "b"))
    for cache_probes, insertions in ((False, 1), (True, 2)):
        cache = DecodeCache()
        # compressed=False: the same decode/probe regime for all three
        # codecs (the default would fold the bitmaps without decoding).
        plan.execute(cache=cache, cache_probes=cache_probes, compressed=False)
        stats = cache.stats()
        assert (stats.misses, stats.insertions) == (2, insertions)
        assert (stats.hits, stats.flights) == (0, insertions)


@pytest.mark.parametrize("compressed", [True, False])
@pytest.mark.parametrize("cache_probes", [True, False])
@pytest.mark.parametrize("warm", [(), ("a",), ("b", "c")])
def test_misses_never_exceed_leaves(compressed, cache_probes, warm):
    """Whatever the regime — deferred leaves materialised later, partly
    warm ORs — one evaluation looks each leaf up at most once."""
    store = _store()
    cache = DecodeCache()
    for term in warm:
        compile_shard_plan(store, "s0", term).execute(cache=cache)
    before = cache.stats()
    plan = compile_shard_plan(store, "s0", And("a", Or("b", "c")))
    got = plan.execute(cache=cache, cache_probes=cache_probes, compressed=compressed)
    assert np.array_equal(got, np.intersect1d(A, np.union1d(B, C)))
    after = cache.stats()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    assert lookups <= 3 and after.misses - before.misses <= 3 - len(warm)


def test_describe_reports_strategies():
    plan = compile_shard_plan(_store(), "s0", And(Or("a", "b"), "c"))
    desc = plan.describe()
    assert desc["shard"] == "s0"
    assert desc["plan"]["op"] == "and" and desc["plan"]["strategy"] == "svs"
    ops = [node["op"] for node in desc["plan"]["order"]]
    assert "or" in ops and "leaf" in ops
    or_node = next(n for n in desc["plan"]["order"] if n["op"] == "or")
    assert or_node["strategy"] == "compressed-or"
    assert or_node["groups"][0]["terms"] == ["a", "b"]


def test_describe_and_order_is_smallest_first():
    plan = compile_shard_plan(_store(), "s0", And("a", "c", "b"))
    desc = plan.describe()
    sizes = [node["n"] for node in desc["plan"]["order"]]
    assert sizes == sorted(sizes)


def test_describe_empty_plan():
    plan = compile_shard_plan(_store(), "s0", And("ghost", "a"))
    assert plan.describe()["plan"] == {"op": "empty"}


def test_or_over_and_subtree():
    plan = compile_shard_plan(_store(), "s0", Or(And("a", "b"), "c"))
    assert isinstance(plan.expr, ExprOr)
    want = np.union1d(np.intersect1d(A, B), C)
    assert np.array_equal(plan.execute(), want)
