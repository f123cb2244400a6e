"""Sorted-set oracle: numpy set algebra over the raw posting lists.

Answers are evaluated per shard and then unioned, exactly as the
engine's scatter-gather defines them.  Responses are compared by length
and a 64-bit digest so the check stays cheap next to the query itself.

For the churn workload the oracle keeps, per touched ``(shard, term)``,
the history of its list by global op position.  A read that raced the
writer may legitimately see any op prefix between "everything acked
when it was sent" and "everything sent when it returned", and — because
the engine snapshots shards one after another — a later shard may be
further along than an earlier one.  ``matches_window`` accepts exactly
those states and nothing else.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement

import numpy as np

from corpus import Corpus, IngestBatch, QuerySpec

_EMPTY = np.empty(0, dtype=np.int64)

Fingerprint = tuple[int, int]


def fingerprint(values) -> Fingerprint:
    """(length, 64-bit digest) of a sorted id list or array.

    The digest is CPython's tuple-of-ints hash: deterministic, and on a
    response's ``values`` list an order of magnitude cheaper than
    building an array to feed a byte hash.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return len(values), hash(tuple(values))


def query_terms(query: QuerySpec) -> set[str]:
    if query[0] == "term":
        return {query[1]}
    return set().union(*(query_terms(child) for child in query[1:]))


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-unique intersection by binary search of the shorter side."""
    if a.size > b.size:
        a, b = b, a
    if not a.size:
        return a
    idx = np.minimum(np.searchsorted(b, a), b.size - 1)
    return a[b[idx] == a]


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-unique union: merge the two runs, drop repeats."""
    if not a.size or not b.size:
        return a if a.size else b
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")  # two sorted runs: a linear merge
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


class Oracle:
    def __init__(self, corpus: Corpus) -> None:
        self.shards = corpus.shards
        self._base = corpus.lists
        #: (shard, term) → ([op position after which the list holds], [list]).
        self._history: dict[tuple[str, str], tuple[list[int], list[np.ndarray]]] = {}
        #: Ops applied so far (the op position of the current state).
        self.position = 0
        self._static: dict[QuerySpec, Fingerprint] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _list_at(self, shard: str, term: str, position: int | None) -> np.ndarray:
        hist = self._history.get((shard, term))
        if hist is not None:
            idx = len(hist[0]) if position is None else bisect_right(hist[0], position)
            if idx:
                return hist[1][idx - 1]
        return self._base.get((shard, term), _EMPTY)

    def _eval(self, query: QuerySpec, shard: str, position: int | None) -> np.ndarray:
        if query[0] == "term":
            return self._list_at(shard, query[1], position)
        parts = [self._eval(child, shard, position) for child in query[1:]]
        out = parts[0]
        for part in parts[1:]:
            if query[0] == "and":
                out = _intersect(out, part)
            else:
                out = _union(out, part)
        return out

    def answer(self, query: QuerySpec, positions: tuple[int, ...] | None = None) -> np.ndarray:
        """Union over shards; ``positions[i]`` is shard i's op position."""
        out = _EMPTY
        for i, shard in enumerate(self.shards):
            part = self._eval(query, shard, None if positions is None else positions[i])
            out = _union(out, part)
        return out

    def expected(self, query: QuerySpec) -> Fingerprint:
        """Memoised fingerprint against the never-written corpus."""
        fp = self._static.get(query)
        if fp is None:
            fp = self._static[query] = fingerprint(self.answer(query))
        return fp

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply(self, batch: IngestBatch) -> None:
        """Apply one batch, op by op, recording each new list.

        Called by the single writer *before* it sends the batch, so the
        history also covers ops a racing read may already see.  Readers
        take no lock: the list is appended before its position, so a
        position a reader finds always has its list.
        """
        for kind, shard, term, values in batch.ops:
            current = self._list_at(shard, term, None)
            vals = np.unique(np.asarray(values, dtype=np.int64))
            if kind == "add":
                new = _union(current, vals)
            else:
                new = np.setdiff1d(current, vals, assume_unique=True)
            positions, lists = self._history.setdefault((shard, term), ([], []))
            lists.append(new)
            positions.append(self.position + 1)
            self.position += 1

    def touched(self) -> list[tuple[str, str]]:
        return sorted(self._history)

    def live_postings(self) -> int:
        total = sum(int(v.size) for v in self._base.values())
        for key, (_, lists) in self._history.items():
            total += int(lists[-1].size) - int(self._base[key].size)
        return total

    def current(self, shard: str, term: str) -> np.ndarray:
        return self._list_at(shard, term, None)

    def matches_window(self, query: QuerySpec, got: Fingerprint, lo: int, hi: int) -> bool:
        """Whether *got* is a state a read racing ops ``(lo, hi]`` may see.

        Candidate positions are ``lo`` plus every op in the window that
        touches one of the query's terms; shard positions must be
        non-decreasing in scatter order.
        """
        relevant = {lo}
        for shard in self.shards:
            for term in query_terms(query):
                hist = self._history.get((shard, term))
                if hist is not None:
                    relevant.update(p for p in list(hist[0]) if lo < p <= hi)
        for positions in combinations_with_replacement(sorted(relevant), len(self.shards)):
            if fingerprint(self.answer(query, positions)) == got:
                return True
        return False
