"""The oracle is the correctness gate, so it gets its own checks."""

import numpy as np

import corpus as C
from oracle import Oracle, _intersect, _union, fingerprint


def test_set_algebra_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = np.unique(rng.integers(0, 500, rng.integers(0, 200)))
        b = np.unique(rng.integers(0, 500, rng.integers(0, 200)))
        assert np.array_equal(_union(a, b), np.union1d(a, b))
        assert np.array_equal(_intersect(a, b), np.intersect1d(a, b))


def test_fingerprint_sees_length_order_and_content():
    assert fingerprint([1, 2, 3]) == fingerprint(np.array([1, 2, 3]))
    assert fingerprint([1, 2, 3]) != fingerprint([1, 2, 4])
    assert fingerprint([1, 2, 3]) != fingerprint([1, 2])
    assert fingerprint([]) == (0, hash(()))


def _tiny():
    lists = {(f"s{s}", f"t{t:03d}"): np.array([10 * s + t, 100 + t], dtype=np.int64)
             for s in range(C.N_SHARDS) for t in range(3)}
    return Oracle(C.Corpus(C.RUNS, 0, lists))


def test_answer_unions_shards():
    oracle = _tiny()
    assert oracle.answer(("term", "t001")).tolist() == [1, 11, 21, 31, 101]
    assert oracle.answer(("and", ("term", "t001"), ("term", "t002"))).tolist() == []
    assert oracle.answer(("or", ("term", "t000"), ("term", "t001"))).tolist() == [
        0, 1, 10, 11, 20, 21, 30, 31, 100, 101]


def test_window_accepts_exactly_the_reachable_states():
    oracle = _tiny()
    query = ("term", "t001")
    before = fingerprint(oracle.answer(query))
    oracle.apply(C.IngestBatch((("add", "s2", "t001", (700,)), ("add", "s0", "t001", (500,)))))
    after = fingerprint(oracle.answer(query))
    assert oracle.position == 2 and before != after
    # Acked through 0, sent through 2: both ends and the op prefix between.
    assert oracle.matches_window(query, before, 0, 2)
    assert oracle.matches_window(query, after, 0, 2)
    assert oracle.matches_window(query, fingerprint([1, 11, 21, 31, 101, 700]), 0, 2)
    # Shards are read in order s0..s3, so s0 cannot be ahead of s2:
    # seeing op 2 (s0) without op 1 (s2) is not a reachable state.
    assert not oracle.matches_window(query, fingerprint([1, 11, 21, 31, 101, 500]), 0, 2)
    # Once everything is acked, the old state is a lost write.
    assert not oracle.matches_window(query, before, 2, 2)
    assert oracle.matches_window(query, after, 2, 2)
    # A delete is applied and visible in the current list.
    oracle.apply(C.IngestBatch((("del", "s0", "t001", (1,)),)))
    assert oracle.current("s0", "t001").tolist() == [101, 500]
    assert oracle.touched() == [("s0", "t001"), ("s2", "t001")]
    assert oracle.live_postings() == 24 + 2 - 1
