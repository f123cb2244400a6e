"""Boolean expression evaluation over compressed sets."""

import numpy as np
import pytest

from repro import all_codec_names, bitmap_codec_names, get_codec
from repro.core.base import Capability
from repro.ops import And, Leaf, Or, evaluate
from repro.store import DecodeCache

from tests.conftest import QUERY_TREES, sorted_unique


@pytest.fixture
def lists(rng):
    return [sorted_unique(rng, n, 20_000) for n in (100, 3_000, 5_000, 8_000, 9_000)]


def compressed(name, lists, universe=20_000):
    codec = get_codec(name)
    return [codec.compress(v, universe=universe) for v in lists]


def test_leaf_evaluates_to_list(lists):
    sets = compressed("Roaring", lists)
    assert np.array_equal(evaluate(Leaf(sets[0])), lists[0])


def test_flat_and(lists):
    sets = compressed("WAH", lists)
    got = evaluate(And(Leaf(sets[1]), Leaf(sets[3])))
    assert np.array_equal(got, np.intersect1d(lists[1], lists[3]))


def test_flat_or(lists):
    sets = compressed("VB", lists)
    got = evaluate(Or(Leaf(sets[0]), Leaf(sets[2])))
    assert np.array_equal(got, np.union1d(lists[0], lists[2]))


def test_ssb_q34_shape(lists):
    """(L1 ∪ L2) ∩ (L3 ∪ L4) ∩ L5 — the paper's SSB Q3.4."""
    for name in ("Roaring", "SIMDBP128*", "PEF", "Bitset"):
        sets = compressed(name, lists)
        expr = And(
            Or(Leaf(sets[0]), Leaf(sets[1])),
            Or(Leaf(sets[2]), Leaf(sets[3])),
            Leaf(sets[4]),
        )
        expected = np.intersect1d(
            np.intersect1d(
                np.union1d(lists[0], lists[1]), np.union1d(lists[2], lists[3])
            ),
            lists[4],
        )
        assert np.array_equal(evaluate(expr), expected), name


def test_ssb_q41_shape(lists):
    """L1 ∩ L2 ∩ (L3 ∪ L4) — the paper's SSB Q4.1."""
    sets = compressed("CONCISE", lists)
    expr = And(Leaf(sets[0]), Leaf(sets[1]), Or(Leaf(sets[2]), Leaf(sets[3])))
    expected = np.intersect1d(
        np.intersect1d(lists[0], lists[1]), np.union1d(lists[2], lists[3])
    )
    assert np.array_equal(evaluate(expr), expected)


def test_nested_or_of_and(lists):
    sets = compressed("PforDelta*", lists)
    expr = Or(And(Leaf(sets[0]), Leaf(sets[1])), Leaf(sets[2]))
    expected = np.union1d(np.intersect1d(lists[0], lists[1]), lists[2])
    assert np.array_equal(evaluate(expr), expected)


def test_and_short_circuits_on_empty(lists):
    codec = get_codec("VB")
    empty = codec.compress([], universe=20_000)
    sets = compressed("VB", lists)
    expr = And(Leaf(empty), Leaf(sets[4]))
    assert evaluate(expr).size == 0


def test_estimated_sizes():
    codec = get_codec("List")
    a = Leaf(codec.compress([1, 2, 3]))
    b = Leaf(codec.compress([1, 2, 3, 4, 5]))
    assert And(a, b).estimated_size() == 3
    assert Or(a, b).estimated_size() == 8


def test_evaluate_rejects_non_expression():
    with pytest.raises(TypeError):
        evaluate("not an expression")


def test_and_order_breaks_cardinality_ties_by_physical_size():
    """Adversarial skew: equal-cardinality operands whose compressed
    sizes differ by an order of magnitude.  The physically smaller
    operand must be probed first — while the candidate set is at its
    largest — regardless of argument order."""
    from repro.ops import and_order

    codec = get_codec("WAH")
    n = 4_096
    dense = codec.compress(np.arange(n), universe=1 << 20)  # one fill run
    sparse = codec.compress(np.arange(0, n * 193, 193), universe=1 << 20)
    assert dense.n == sparse.n == n
    assert sparse.size_bytes > 10 * dense.size_bytes
    cheap, bulky = Leaf(dense), Leaf(sparse)
    assert and_order((bulky, cheap)) == [cheap, bulky]
    assert and_order((cheap, bulky)) == [cheap, bulky]


@pytest.mark.parametrize("name", bitmap_codec_names())
def test_no_encoder_runs_on_the_read_path(name, lists, monkeypatch):
    """A query may parse wire bytes but never produce them: once the
    operands are compressed, every encoder of the codec is made to raise
    and all five trees must still evaluate, uncached and through a decode
    cache that goes from cold to warm across them."""
    codec = get_codec(name)
    arrays = lists[1:4]
    sets = compressed(name, arrays)

    def encoder_called(*args, **kwargs):
        raise AssertionError(f"{name} serialised a result while answering a query")

    monkeypatch.setattr(type(codec), "compress", encoder_called)
    if hasattr(codec, "_encode"):
        monkeypatch.setattr(type(codec), "_encode", encoder_called)
    monkeypatch.setattr("repro.bitmaps.valwah._encode_units", encoder_called)

    leaves = [Leaf(cs, ("s0", term, name)) for term, cs in zip("abc", sets)]
    for cache in (None, DecodeCache()):
        for label, (build, oracle) in QUERY_TREES.items():
            got = evaluate(build(*leaves), cache=cache)
            assert np.array_equal(got, oracle(*arrays)), (label, cache)


def test_compressed_fold_is_declared_only_where_it_is_free():
    """Re-declaring a fold is a deliberate edit of this line, with the
    numbers showing it beats the codec's ``union`` / probe path."""
    declaring = {
        name
        for name in all_codec_names()
        if Capability.INTERSECT_COMPRESSED in get_codec(name).capabilities()
    }
    assert declaring == {"Bitset", "Roaring", "List"}
