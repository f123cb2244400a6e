"""Seeded corpora and query logs for the end-to-end benchmark.

Everything here is numpy + stdlib on purpose: the program under test
(``src/repro``) must never be able to change its own inputs, so the
generators do not import ``repro.datagen``.  One ``--seed`` drives both
the posting lists and the query logs; each named stream derives its own
generator from ``(seed, stream name)`` so adding a stream never shifts
another one.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20170514
UNIVERSE = 1 << 20
N_SHARDS = 4

#: A query is a nested tuple: ``("term", name)`` or ``("and"|"or", child, ...)``.
QuerySpec = tuple


def stream(seed: int, name: str) -> np.random.Generator:
    """An independent generator for one named input stream."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def shard_name(i: int) -> str:
    return f"s{i}"


def term_name(rank: int) -> str:
    return f"t{rank:03d}"


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    terms_per_shard: int
    density: float  #: df(rank 0) as a share of the shard universe
    run_length: float  #: mean run of consecutive ids (1 = uniform positions)

    def df(self, rank: int) -> int:
        """Zipf document frequency, as in the paper's Web simulation."""
        return max(16, int(self.density * UNIVERSE / (rank + 1)))


#: ≈5.1 M postings, uniform positions: the paper's Web shape.
WEB = CorpusSpec("web", terms_per_shard=256, density=0.2, run_length=1.0)
#: ≈1 M postings in runs of mean length 8: the paper's markov distribution.
RUNS = CorpusSpec("runs", terms_per_shard=64, density=0.05, run_length=8.0)


def _uniform_list(rng: np.random.Generator, df: int) -> np.ndarray:
    return np.sort(rng.choice(UNIVERSE, df, replace=False)).astype(np.int64)


def _markov_list(rng: np.random.Generator, df: int, run_length: float) -> np.ndarray:
    """Two-state Markov positions: geometric runs separated by geometric gaps."""
    n_runs = max(1, int(np.ceil(df / run_length * 1.25)))
    mean_gap = run_length * (UNIVERSE - df) / df
    runs = rng.geometric(1.0 / run_length, n_runs)
    gaps = rng.geometric(1.0 / mean_gap, n_runs)
    starts = np.cumsum(gaps + np.concatenate(([0], runs[:-1])))
    offsets = np.arange(int(runs.sum())) - np.repeat(np.cumsum(runs) - runs, runs)
    values = np.repeat(starts, runs) + offsets
    values = values[values < UNIVERSE][:df]
    return values.astype(np.int64)


@dataclass
class Corpus:
    spec: CorpusSpec
    seed: int
    #: (shard, term) → sorted int64 posting list.
    lists: dict[tuple[str, str], np.ndarray]

    @property
    def shards(self) -> list[str]:
        return [shard_name(i) for i in range(N_SHARDS)]

    @property
    def terms(self) -> list[str]:
        return [term_name(r) for r in range(self.spec.terms_per_shard)]

    @property
    def postings(self) -> int:
        return sum(int(v.size) for v in self.lists.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.lists):
            h.update(repr(key).encode())
            h.update(self.lists[key].tobytes())
        return h.hexdigest()


def build_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    rng = stream(seed, f"corpus/{spec.name}")
    lists: dict[tuple[str, str], np.ndarray] = {}
    for s in range(N_SHARDS):
        for rank in range(spec.terms_per_shard):
            df = spec.df(rank)
            if spec.run_length > 1.0:
                values = _markov_list(rng, df, spec.run_length)
            else:
                values = _uniform_list(rng, df)
            lists[(shard_name(s), term_name(rank))] = values
    return Corpus(spec, seed, lists)


# ----------------------------------------------------------------------
# Query logs
# ----------------------------------------------------------------------
def T(rank: int) -> QuerySpec:
    return ("term", term_name(int(rank)))


def log_digest(log: list[QuerySpec]) -> str:
    return hashlib.sha256(json.dumps(log).encode()).hexdigest()


def _balanced_ranks(rng: np.random.Generator, lo: int, hi: int, n: int) -> np.ndarray:
    """*n* ranks from ``[lo, hi)``, every rank equally often, in seeded order.

    Independent draws make a log's cost mix depend on which ranks the
    seed happened to pick, and a median that sits between two cost
    classes then flips from seed to seed.  With a balanced pool the seed
    only decides order and pairing, so medians agree across seeds.
    """
    pool = np.tile(np.arange(lo, hi), -(-n // (hi - lo)))
    return rng.permutation(pool)[:n]


def _balanced_pairs(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """*n* pairs of distinct balanced ranks from ``[lo, hi)``."""
    first, second = _balanced_ranks(rng, lo, hi, n), _balanced_ranks(rng, lo, hi, n)
    return [(a, b if b != a else lo + (b - lo + 1) % (hi - lo)) for a, b in zip(first, second)]


def skewed_and_log(seed: int, n: int = 2000) -> list[QuerySpec]:
    """``And(head rank 0–7, 1–2 tail terms rank 32–255)``: the short∩long shape."""
    rng = stream(seed, "log/skewed-and")
    heads = _balanced_ranks(rng, 0, 8, n)
    n_tails = _balanced_ranks(rng, 1, 3, n)
    tails = _balanced_pairs(rng, 32, 256, n)
    return [
        ("and", T(head), *[T(t) for t in pair[:k]])
        for head, k, pair in zip(heads, n_tails, tails)
    ]


def rle_or_log(seed: int, n: int = 500) -> list[QuerySpec]:
    """``Term(a)``, ``Or(a, b)``, ``Or(a, b)`` in rotation over ranks 28–63 of ``runs``.

    One Term to two Ors, not one to one: with two equal-sized cost
    populations the median sits in the gap between them and flips from
    run to run.
    """
    rng = stream(seed, "log/rle-or")
    return [
        T(a) if i % 3 == 0 else ("or", T(a), T(b))
        for i, (a, b) in enumerate(_balanced_pairs(rng, 28, 64, n))
    ]


def wide_or_log(seed: int, n: int = 32) -> list[QuerySpec]:
    """32 distinct ``Or(a, b)``: a on the ladder 24, 26, … 86, b over 96–127.

    ≈25k results on average, 16k–42k across the ladder.  The spread is
    deliberate: the top rungs are slower than a typical query plus a
    scheduler hiccup, so p99 measures the largest responses and not
    how many hiccups a run happened to catch.
    """
    rng = stream(seed, "log/wide-or")
    second = rng.permutation(np.arange(96, 96 + n))
    return [("or", T(24 + 2 * i), T(b)) for i, b in enumerate(second)]


def zipf_mix_log(seed: int, n: int = 2000) -> list[QuerySpec]:
    """Four query shapes in rotation, terms Zipf(s=1.2) over ranks 64–255."""
    rng = stream(seed, "log/zipf-mix")
    ranks = np.arange(128, 256)
    weights = 1.0 / (ranks - 127) ** 1.2
    weights /= weights.sum()

    def draw(k: int) -> list[QuerySpec]:
        return [T(r) for r in rng.choice(ranks, size=k, replace=False, p=weights)]

    log = []
    for i in range(n):
        shape = i % 4
        if shape == 0:
            log.append(draw(1)[0])
        elif shape == 1:
            log.append(("and", *draw(2)))
        elif shape == 2:
            log.append(("or", *draw(2)))
        else:
            a, b, c = draw(3)
            log.append(("and", ("or", a, b), c))
    return log


@dataclass(frozen=True)
class IngestBatch:
    #: (op, shard, term, values) rows, the shape ``target.ingest`` takes.
    ops: tuple[tuple[str, str, str, tuple[int, ...]], ...]


def churn_batches(
    seed: int, corpus: Corpus, n: int, ops_per_batch: int = 8, values_per_op: int = 16
) -> list[IngestBatch]:
    """80 % ``add`` / 20 % ``del`` on tail terms (ranks 32–255).

    Deletes draw from the term's *original* list, so the schedule is a
    pure function of the seed whatever order acks arrive in.
    """
    rng = stream(seed, "log/churn")
    batches = []
    for _ in range(n):
        ops = []
        for _ in range(ops_per_batch):
            shard = shard_name(int(rng.integers(0, N_SHARDS)))
            term = term_name(int(rng.integers(32, 256)))
            if rng.random() < 0.8:
                values = rng.integers(0, UNIVERSE, values_per_op)
                kind = "add"
            else:
                base = corpus.lists[(shard, term)]
                values = rng.choice(base, size=min(values_per_op, base.size), replace=False)
                kind = "del"
            ops.append((kind, shard, term, tuple(int(v) for v in values)))
        batches.append(IngestBatch(tuple(ops)))
    return batches
