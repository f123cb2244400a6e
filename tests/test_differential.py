"""Cross-codec differential suite.

Every registered codec must answer every workload *identically* to the
uncompressed reference (plain numpy set algebra on the input arrays).
The conftest parametrises ``codec``/``codec_name`` over the full
24-codec registry, so a new codec is enrolled automatically; the
explicit roster test pins that the registry still covers the paper's
9 + 15 roster.

Workloads are seeded and randomized: the three Section-5 distributions
(uniform, zipf, markov) for pairwise / k-ary / expression shapes, plus
the degenerate lists one-shot benchmarks never exercise (empty,
singleton, full-universe).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import all_codec_names, bitmap_codec_names, get_codec
from repro.core.base import Capability
from repro.datagen import markov_list, uniform_list, zipf_list
from repro.ops import And, ExecStats, Leaf, Or, evaluate
from repro.store import DecodeCache

from tests.conftest import QUERY_TREES

DOMAIN = 1 << 16
SEED = 20170514

_GEN = {"uniform": uniform_list, "zipf": zipf_list, "markov": markov_list}


def _seeded(dist: str, extra: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + extra + hash(dist) % 1000)


def _ref_and(*arrays):
    out = arrays[0]
    for arr in arrays[1:]:
        out = np.intersect1d(out, arr)
    return out.astype(np.int64)


def _ref_or(*arrays):
    out = np.concatenate(arrays) if arrays else np.empty(0)
    return np.unique(out).astype(np.int64)


def test_registry_covers_paper_roster():
    assert len(all_codec_names()) == 24


@pytest.mark.parametrize("dist", sorted(_GEN))
def test_pairwise_matches_reference(codec, dist):
    rng = _seeded(dist)
    gen = _GEN[dist]
    a = gen(1_500, DOMAIN, rng=rng)
    b = gen(5_000, DOMAIN, rng=rng)
    ca = codec.compress(a, universe=DOMAIN)
    cb = codec.compress(b, universe=DOMAIN)
    assert np.array_equal(codec.intersect(ca, cb), _ref_and(a, b))
    assert np.array_equal(codec.union(ca, cb), _ref_or(a, b))
    assert np.array_equal(codec.decompress(ca), a)


@pytest.mark.parametrize("dist", sorted(_GEN))
def test_kary_matches_reference(codec, dist):
    rng = _seeded(dist, 1)
    gen = _GEN[dist]
    # Overlapping sizes so SvS ordering is non-trivial.
    arrays = [gen(n, DOMAIN, rng=rng) for n in (600, 2_400, 4_000, 1_200)]
    sets = [codec.compress(arr, universe=DOMAIN) for arr in arrays]
    assert np.array_equal(codec.intersect_many(sets), _ref_and(*arrays))
    assert np.array_equal(codec.union_many(sets), _ref_or(*arrays))


def _assert_every_regime(build, leaves, arrays, want):
    """``evaluate`` against the numpy reference in every regime of the
    one evaluator: compressed-domain on/off × cache_probes on/off × no
    cache, a cold cache (and a second pass over whatever the first left
    in it — the partly-warm paths), and a fully warm one.

    A loop rather than ``parametrize`` so the per-codec × distribution
    test ids stay what they were.
    """
    keyed = [Leaf(leaf.cs, ("diff", i, leaf.cs.codec_name)) for i, leaf in enumerate(leaves)]
    for compressed in (True, False):
        for cache_probes in (False, True):
            regime = {"compressed": compressed, "cache_probes": cache_probes}
            assert np.array_equal(evaluate(build(leaves), **regime), want), regime
            cold, warm = DecodeCache(), DecodeCache()
            for leaf, arr in zip(keyed, arrays):
                warm.put(leaf.key, arr.copy())
            for cache in (cold, cold, warm):
                before = cache.stats().misses
                got = evaluate(build(keyed), cache=cache, **regime)
                assert np.array_equal(got, want), (regime, cache.stats())
                assert cache.stats().misses - before <= len(keyed)
            assert warm.stats().misses == 0


def _q12(leaves):  # (L1 ∪ L2) ∩ L3
    return And(Or(leaves[0], leaves[1]), leaves[2])


def _q34(leaves):  # (L1 ∪ L2) ∩ (L3 ∪ L4) ∩ L5
    return And(Or(leaves[0], leaves[1]), Or(leaves[2], leaves[3]), leaves[4])


@pytest.mark.parametrize("dist", sorted(_GEN))
def test_expression_plans_match_reference(codec, dist):
    """The paper's composite shapes: TPCH Q12 and SSB Q3.4 skeletons."""
    rng = _seeded(dist, 2)
    gen = _GEN[dist]
    arrays = [gen(n, DOMAIN, rng=rng) for n in (900, 1_800, 3_600, 700, 2_200)]
    leaves = [Leaf(codec.compress(arr, universe=DOMAIN)) for arr in arrays]
    want = _ref_and(_ref_or(arrays[0], arrays[1]), arrays[2])
    _assert_every_regime(_q12, leaves, arrays, want)
    want = _ref_and(
        _ref_or(arrays[0], arrays[1]), _ref_or(arrays[2], arrays[3]), arrays[4]
    )
    _assert_every_regime(_q34, leaves, arrays, want)


@pytest.mark.parametrize("dist", sorted(_GEN))
def test_mixed_codec_expressions_match_reference(dist):
    """Roaring and SIMDPforDelta* leaves in one tree — what an Adaptive
    shard compiles to, and what ``or_partition`` groups by codec for."""
    rng = _seeded(dist, 6)
    gen = _GEN[dist]
    arrays = [gen(n, DOMAIN, rng=rng) for n in (900, 1_800, 3_600, 700, 2_200)]
    names = ("Roaring", "SIMDPforDelta*", "Roaring", "SIMDPforDelta*", "Roaring")
    leaves = [
        Leaf(get_codec(name).compress(arr, universe=DOMAIN))
        for name, arr in zip(names, arrays)
    ]
    _assert_every_regime(lambda ls: And(*ls), leaves, arrays, _ref_and(*arrays))
    _assert_every_regime(lambda ls: Or(*ls), leaves, arrays, _ref_or(*arrays))
    want = _ref_and(
        _ref_or(arrays[0], arrays[1]), _ref_or(arrays[2], arrays[3]), arrays[4]
    )
    _assert_every_regime(_q34, leaves, arrays, want)


#: (name, builder) pairs — built lazily so each test gets fresh arrays.
_EDGE_LISTS = {
    "empty": lambda rng: np.empty(0, dtype=np.int64),
    "singleton-low": lambda rng: np.array([0], dtype=np.int64),
    "singleton-high": lambda rng: np.array([DOMAIN - 1], dtype=np.int64),
    "full-universe": lambda rng: np.arange(DOMAIN, dtype=np.int64),
    "random": lambda rng: uniform_list(2_000, DOMAIN, rng=rng),
}


@pytest.mark.parametrize("left", sorted(_EDGE_LISTS))
@pytest.mark.parametrize("right", sorted(_EDGE_LISTS))
def test_edge_list_pairs(codec_name, left, right):
    from repro import get_codec

    codec = get_codec(codec_name)
    rng = np.random.default_rng(SEED)
    a = _EDGE_LISTS[left](rng)
    b = _EDGE_LISTS[right](rng)
    ca = codec.compress(a, universe=DOMAIN)
    cb = codec.compress(b, universe=DOMAIN)
    assert np.array_equal(codec.intersect(ca, cb), _ref_and(a, b))
    assert np.array_equal(codec.union(ca, cb), _ref_or(a, b))


@pytest.mark.parametrize("backing", ["in-heap", "mapped"])
def test_served_engine_matches_reference(codec_name, backing, tmp_path):
    """The full store path — compile, cache, scatter-gather — per codec,
    serving both from the in-heap posting table and, round-tripped
    through ``save()``, off a memory-mapped segment."""
    from repro import get_codec
    from repro.store import And, DecodeCache, Or, PostingStore, QueryEngine

    rng = np.random.default_rng(SEED + 3)
    terms = {
        "a": uniform_list(800, DOMAIN, rng=rng),
        "b": zipf_list(2_500, DOMAIN, rng=rng),
        "c": markov_list(1_600, DOMAIN, rng=rng),
    }
    store = PostingStore()
    shard = store.create_shard("s0", codec=get_codec(codec_name), universe=DOMAIN)
    for term, values in terms.items():
        shard.add(term, values)
    if backing == "mapped":
        store.save(tmp_path / "v3")
        store = PostingStore.load(tmp_path / "v3")
    engine = QueryEngine(store, cache=DecodeCache())
    cases = {
        "a": terms["a"],
        And("a", "b"): _ref_and(terms["a"], terms["b"]),
        Or("b", "c"): _ref_or(terms["b"], terms["c"]),
        And(Or("a", "b"), "c"): _ref_and(
            _ref_or(terms["a"], terms["b"]), terms["c"]
        ),
    }
    for _ in range(2):  # second pass runs fully warm from the cache
        for expr, want in cases.items():
            result = engine.execute(expr)
            assert result.ok, result.error
            assert np.array_equal(result.values, want), expr


# ----------------------------------------------------------------------
# Compressed-domain execution (capability protocol)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backing", ["in-heap", "mapped"])
def test_compressed_and_decoded_execution_agree(codec_name, backing, tmp_path):
    """The full registry matrix: engine results (compressed-domain
    execution is the default plan) are bit-exact with the
    decode-then-merge baseline (``ShardPlan.execute(compressed=False,
    cache_probes=True)``) and the numpy reference, from both the in-heap
    table and a mapped v3 segment."""
    from repro.store import (
        And,
        DecodeCache,
        Or,
        PostingStore,
        QueryEngine,
        compile_shard_plan,
    )

    rng = np.random.default_rng(SEED + 4)
    terms = {
        "a": uniform_list(900, DOMAIN, rng=rng),
        "b": zipf_list(3_000, DOMAIN, rng=rng),
        "c": markov_list(1_400, DOMAIN, rng=rng),
        "d": uniform_list(250, DOMAIN, rng=rng),
    }
    store = PostingStore()
    shard = store.create_shard("s0", codec=get_codec(codec_name), universe=DOMAIN)
    for term, values in terms.items():
        shard.add(term, values)
    if backing == "mapped":
        store.save(tmp_path / "v3")
        store = PostingStore.load(tmp_path / "v3")
    engine = QueryEngine(store)
    cases = {
        And("a", "b"): _ref_and(terms["a"], terms["b"]),
        And("d", "b", "c"): _ref_and(terms["d"], terms["b"], terms["c"]),
        Or("a", "b", "c"): _ref_or(terms["a"], terms["b"], terms["c"]),
        And(Or("a", "d"), "b"): _ref_and(
            _ref_or(terms["a"], terms["d"]), terms["b"]
        ),
        And(Or("a", "b"), Or("c", "d")): _ref_and(
            _ref_or(terms["a"], terms["b"]), _ref_or(terms["c"], terms["d"])
        ),
    }
    for expr, want in cases.items():
        on = engine.execute(expr)
        assert on.ok, on.error
        off = compile_shard_plan(store, "s0", expr).execute(
            cache=DecodeCache(), cache_probes=True, compressed=False
        )
        assert np.array_equal(on.values, want), expr
        assert np.array_equal(off, want), expr


def test_counter_signatures_split_by_capability(codec_name, tmp_path):
    """Capable codecs run a selective AND entirely in the compressed
    domain; probe-only codecs decode the driver leaf and probe the rest —
    from the in-heap table and from a mapped v3 segment alike.

    A loop over the backing rather than ``parametrize`` so the per-codec
    test ids stay what they were."""
    from repro.api import codec_capabilities
    from repro.store import And, PostingStore, QueryEngine

    rng = np.random.default_rng(SEED + 5)
    store = PostingStore()
    shard = store.create_shard("s0", codec=get_codec(codec_name), universe=DOMAIN)
    shard.add("x", uniform_list(700, DOMAIN, rng=rng))
    shard.add("y", uniform_list(2_000, DOMAIN, rng=rng))
    store.save(tmp_path / "v3")
    for backing, served in (
        ("in-heap", store),
        ("mapped", PostingStore.load(tmp_path / "v3")),
    ):
        result = QueryEngine(served).execute(And("x", "y"))
        assert result.ok, (backing, result.error)
        assert result.compressed_ops > 0, backing
        if Capability.INTERSECT_COMPRESSED in codec_capabilities(codec_name):
            assert result.decoded_ops == 0, backing
        else:
            assert result.decoded_ops > 0, backing


#: Codecs whose compressed-domain kernels the planner can select.
_KERNEL_CODECS = [
    name
    for name in all_codec_names()
    if Capability.INTERSECT_COMPRESSED in get_codec(name).capabilities()
]

#: The run-length bitmaps.  Their operators emit positions (Section 4.3)
#: and they declare no ``*_COMPRESSED`` capability, so ``compressed=True``
#: and ``compressed=False`` must be the same plan for them: equal arrays
#: *and* equal operator counters.
_RLE_CODECS = [n for n in bitmap_codec_names() if n not in _KERNEL_CODECS]


def _assert_trees_match_reference(codec_name, arrays):
    """The five ``QUERY_TREES`` over *arrays*, compressed-domain execution
    on and off, against the numpy oracle."""
    codec = get_codec(codec_name)
    leaves = [Leaf(codec.compress(arr, universe=DOMAIN)) for arr in arrays]
    for label, (build, oracle) in QUERY_TREES.items():
        want = oracle(*arrays)
        counters = {}
        for compressed in (True, False):
            counters[compressed] = ExecStats()
            got = evaluate(
                build(*leaves), compressed=compressed, stats=counters[compressed]
            )
            assert np.array_equal(got, want), (label, compressed)
        if codec_name in _RLE_CODECS:
            assert counters[True] == counters[False], label


def _longest_run(arr: np.ndarray) -> int:
    edges = np.flatnonzero(np.concatenate(([True], np.diff(arr) != 1, [True])))
    return int(np.diff(edges).max())


@pytest.mark.parametrize("rle_codec", _RLE_CODECS)
def test_rle_trees_on_clustered_lists(rle_codec):
    """The ``runs`` corpus shape (markov, mean run 8) plus one list whose
    runs are long enough to be 1-fills at every group size up to 32 bits:
    the run-stream OR and probe these codecs answer with, on fills as
    well as literals."""
    rng = np.random.default_rng(SEED + 7)
    arrays = [
        markov_list(6_000, DOMAIN, clustering=8.0, rng=rng),
        markov_list(12_000, DOMAIN, clustering=96.0, rng=rng),
        markov_list(3_000, DOMAIN, clustering=8.0, rng=rng),
    ]
    assert _longest_run(arrays[1]) >= 64  # spans a whole aligned group
    _assert_trees_match_reference(rle_codec, arrays)
    _assert_trees_match_reference(rle_codec, arrays[::-1])


#: Degenerate operand shapes one-shot benchmarks never generate: empty,
#: singleton, a dense single-container run, and half-domain lists (pairs
#: drawn from opposite halves are fully disjoint).
_operand = st.one_of(
    st.just(()),
    st.integers(0, DOMAIN - 1).map(lambda v: (v,)),
    st.tuples(st.integers(0, DOMAIN - 200), st.integers(1, 150)).map(
        lambda t: tuple(range(t[0], t[0] + t[1]))
    ),
    st.lists(st.integers(0, DOMAIN // 2 - 1), max_size=50, unique=True).map(
        lambda xs: tuple(sorted(xs))
    ),
    st.lists(st.integers(DOMAIN // 2, DOMAIN - 1), max_size=50, unique=True).map(
        lambda xs: tuple(sorted(xs))
    ),
)


@pytest.mark.parametrize("kernel_codec", sorted(set(_KERNEL_CODECS + _RLE_CODECS)))
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(left=_operand, right=_operand, third=_operand)
def test_compressed_kernels_survive_degenerate_operands(
    kernel_codec, left, right, third
):
    """Whatever ``compressed=True`` runs for the codec — a declared
    compressed fold, or the RLE family's run-stream OR and probe — on
    operands no benchmark generates."""
    codec = get_codec(kernel_codec)
    a = np.array(left, dtype=np.int64)
    b = np.array(right, dtype=np.int64)
    c = np.array(third, dtype=np.int64)
    _assert_trees_match_reference(kernel_codec, [a, b, c])
    if kernel_codec not in _KERNEL_CODECS:
        return
    ca = codec.compress(a, universe=DOMAIN)
    cb = codec.compress(b, universe=DOMAIN)
    got_and = codec.intersect_compressed(ca, cb)
    got_or = codec.union_compressed(ca, cb)
    assert np.array_equal(codec.decompress(got_and), _ref_and(a, b))
    assert np.array_equal(codec.decompress(got_or), _ref_or(a, b))
    assert got_and.n == _ref_and(a, b).size
    assert got_or.n == _ref_or(a, b).size
