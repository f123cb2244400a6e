"""Same seed ⇒ byte-identical inputs; another seed ⇒ different inputs."""

import corpus as C


def _digests(seed):
    runs = C.build_corpus(C.RUNS, seed)
    logs = [C.skewed_and_log(seed), C.rle_or_log(seed), C.wide_or_log(seed), C.zipf_mix_log(seed)]
    batches = C.churn_batches(seed, C.build_corpus(C.WEB, seed), 20)
    return [runs.digest(), *map(C.log_digest, logs), C.log_digest([b.ops for b in batches])]


def test_same_seed_same_inputs():
    assert _digests(11) == _digests(11)


def test_other_seed_other_inputs():
    assert all(a != b for a, b in zip(_digests(11), _digests(12)))


def test_streams_are_independent():
    # Drawing the corpus must not shift the query log (named streams).
    first = C.zipf_mix_log(5)
    C.build_corpus(C.RUNS, 5)
    assert C.zipf_mix_log(5) == first


def test_corpus_shape():
    runs = C.build_corpus(C.RUNS, 3)
    assert len(runs.lists) == C.N_SHARDS * C.RUNS.terms_per_shard
    for values in runs.lists.values():
        assert values.size >= 16 and values[-1] < C.UNIVERSE
        assert (values[1:] > values[:-1]).all()  # strictly increasing
    web_head = C.build_corpus(C.WEB, 3).lists[("s0", "t000")]
    assert web_head.size == C.WEB.df(0) == int(0.2 * C.UNIVERSE)
    # The markov lists really are clustered: mean run length near 8.
    head = runs.lists[("s0", "t000")]
    n_runs = 1 + int((head[1:] != head[:-1] + 1).sum())
    assert 6.0 < head.size / n_runs < 10.0


def test_log_shapes():
    assert len({q for q in C.wide_or_log(1)}) == 32
    zipf = C.zipf_mix_log(1)
    assert [q[0] for q in zipf[:4]] == ["term", "and", "or", "and"]
    assert len(zipf) == 2000 and len(C.skewed_and_log(1)) == 2000
