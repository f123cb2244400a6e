"""Boolean query expressions over compressed sets, and their one evaluator.

The SSB/TPCH workloads in the paper's Section 6 are not flat
intersections: Q3.4 is ``(L1 ∪ L2) ∩ (L3 ∪ L4) ∩ L5``, Q4.1 is
``L1 ∩ L2 ∩ (L3 ∪ L4)``, TPCH Q12 is ``(L1 ∪ L2) ∩ L3``.  This module
gives those shapes a tiny expression tree (:class:`Leaf` / :class:`And`
/ :class:`Or` over resolved compressed sets) and :func:`evaluate`, the
only walk in the package that turns such a tree into positions — the
paper benches call it directly, and every served query reaches it
through :meth:`repro.store.plan.ShardPlan.execute`.

The baseline regime follows the paper's operator implementations:

* ``Or`` nodes union their children (compressed OR for bitmaps,
  decompress-and-merge for lists);
* ``And`` nodes intersect, evaluating compressed leaves SvS-style —
  smallest intermediate first, probing the remaining *compressed* leaves
  via ``intersect_with_array`` so skip pointers / chunk keys still help.

On top of it the walk is cache- and capability-aware.  Every full
materialisation of a keyed leaf (``Leaf(cs, key)``) goes through the
decode cache, at the price of exactly one lookup per leaf, and a leaf
whose decoded form is already cached is merged as an array instead of
being re-probed through the compressed form.  When adjacent operands
share a codec that declares :class:`~repro.core.base.Capability`
``INTERSECT_COMPRESSED`` / ``UNION_COMPRESSED``, they are folded with
the codec's compressed kernels and the *compressed* intermediate is
threaded onward, materialising positions only once at the root (or at
the first operator that cannot stay compressed).  :class:`ExecStats`
counts how often each regime fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.base import (
    Capability,
    CompressedIntegerSet,
    intersect_sorted_arrays,
    union_sorted_arrays,
)
from repro.core.decode import ArrayCache, DecodeKey, DecodeObserver, decode_miss
from repro.core.registry import get_codec


@dataclass(frozen=True)
class Leaf:
    """A single compressed list/bitmap.

    *key* names the set in a decode cache (the store compiles
    ``(shard, term, codec)`` triples).  A leaf without one is anonymous:
    it is never looked up or cached, which is also how the evaluator
    carries its own compressed intermediates.
    """

    cs: CompressedIntegerSet
    key: DecodeKey | None = None

    def estimated_size(self) -> int:
        return self.cs.n

    def estimated_cost(self) -> int:
        """Probe/decode cost proxy: the compressed wire size.

        Two operands of equal cardinality can differ wildly in how much
        data an SvS probe has to touch (a dense Roaring chunk table vs a
        sparse blocked stream), and ``size_bytes`` is the metadata we
        already carry that tracks it.
        """
        return self.cs.size_bytes


@dataclass(frozen=True)
class And:
    """Intersection of sub-expressions."""

    children: tuple["QueryExpression", ...]

    def __init__(self, *children: "QueryExpression") -> None:
        object.__setattr__(self, "children", tuple(children))

    def estimated_size(self) -> int:
        return min(c.estimated_size() for c in self.children)

    def estimated_cost(self) -> int:
        return min(c.estimated_cost() for c in self.children)


@dataclass(frozen=True)
class Or:
    """Union of sub-expressions."""

    children: tuple["QueryExpression", ...]

    def __init__(self, *children: "QueryExpression") -> None:
        object.__setattr__(self, "children", tuple(children))

    def estimated_size(self) -> int:
        return sum(c.estimated_size() for c in self.children)

    def estimated_cost(self) -> int:
        return sum(c.estimated_cost() for c in self.children)


QueryExpression = Union[Leaf, And, Or]


def and_order(
    children: tuple[QueryExpression, ...]
) -> list[QueryExpression]:
    """SvS evaluation order for an And node: smallest estimate first,
    cheapest-to-probe first among equals.

    Cardinality stays the primary key — selectivity drives how fast the
    candidate set shrinks.  But sorting by decoded length alone ignores
    the ``size_bytes`` metadata every compressed set carries: when two
    operands tie on cardinality, probing the physically smaller one first
    touches less compressed data per candidate while the candidate set is
    still at its largest, and the bulkier operand is probed only after
    earlier operands have thinned the candidates.

    Exposed (rather than inlined in the evaluator) so plan compilers can
    predict and display exactly the order execution will use.
    """
    return sorted(children, key=lambda c: (c.estimated_size(), c.estimated_cost()))


def or_partition(
    children: tuple[QueryExpression, ...]
) -> tuple[list[list[Leaf]], list[QueryExpression]]:
    """Split an Or node into compressed-OR leaf groups and recursive children.

    Leaves are grouped by codec; each group is folded with that codec's
    ``union_many`` (compressed OR — word-at-a-time for the RLE bitmaps,
    container-wise for Roaring) and the groups are then merged.  Grouping
    matters when leaves mix codecs (e.g. an Adaptive shard whose lists
    landed on Roaring *and* SIMDPforDelta*): applying the first leaf's
    codec to all of them would misinterpret foreign payloads.  Shared
    with plan compilation for the same reason as :func:`and_order`.
    """
    by_codec: dict[str, list[Leaf]] = {}
    others: list[QueryExpression] = []
    for child in children:
        if isinstance(child, Leaf):
            by_codec.setdefault(child.cs.codec_name, []).append(child)
        else:
            others.append(child)
    return list(by_codec.values()), others


@dataclass
class ExecStats:
    """Operator counters for one evaluation.

    ``compressed_ops`` counts compressed-domain kernel invocations —
    ``intersect_compressed`` / ``union_compressed`` folds, SvS probes via
    ``intersect_with_array``, and cold ``union_many`` groups — i.e. work
    done without materialising the operands.  ``decoded_ops`` counts full
    leaf materialisations the evaluation requested (decode-cache hits and
    misses alike; the observer separates those).  The engine aggregates
    both across shards onto the query result and the store metrics.
    """

    compressed_ops: int = 0
    decoded_ops: int = 0


def evaluate(
    expr: QueryExpression,
    *,
    cache: ArrayCache | None = None,
    observer: DecodeObserver | None = None,
    cache_probes: bool = False,
    compressed: bool = True,
    stats: ExecStats | None = None,
) -> np.ndarray:
    """Evaluate an expression tree to an uncompressed sorted array.

    Args:
        expr: the tree.
        cache: decode cache consulted and filled under each leaf's
            ``key``; unkeyed leaves never touch it.
        observer: accounting hook for actual leaf decodes.
        cache_probes: decode every AND probe leaf through the cache
            (array merge instead of compressed probe) — higher
            first-query cost, fully cached steady state.
        compressed: fold operators whose operands share a codec declaring
            the matching :class:`~repro.core.base.Capability` in the
            compressed domain, keeping intermediates compressed until a
            consumer needs positions (the default).  ``False`` forces the
            decode / SvS-probe paths everywhere — the paper's Figures
            4–6 regime and the differential suite's reference arm.
        stats: receives the per-evaluation operator counters.
    """
    run = _Evaluation(
        cache,
        observer,
        cache_probes,
        # cache_probes is an explicit materialise-through-cache policy:
        # every leaf must land in the decode cache, so compressed-domain
        # deferral (which skips leaf materialisation entirely) is off.
        compressed and not cache_probes,
        stats if stats is not None else ExecStats(),
    )
    if isinstance(expr, Leaf):
        # A bare-leaf root always materialises through the decode cache —
        # handing back a deferred compressed set here would bypass the
        # keyed cache and regress repeat single-term queries.
        return run.array(expr, run.lookup(expr))
    return run.positions(run.eval(expr))


#: What an evaluation step yields: materialised positions, or a
#: still-compressed set threading through capable kernels — an original
#: leaf, or an anonymous ``Leaf`` around a kernel's compressed result.
_Value = Union[np.ndarray, Leaf]


def _count(value: _Value) -> int:
    return int(value.size) if isinstance(value, np.ndarray) else value.cs.n


@dataclass
class _Evaluation:
    """One :func:`evaluate` call's settings and counters.

    Built per call, never stored on a tree or plan: compiled plans are
    shared across worker threads.
    """

    cache: ArrayCache | None
    observer: DecodeObserver | None
    cache_probes: bool
    compressed: bool
    stats: ExecStats

    def lookup(self, leaf: Leaf) -> np.ndarray | None:
        """The one cache lookup a leaf costs per evaluation."""
        if self.cache is None or leaf.key is None:
            return None
        return self.cache.get(leaf.key)

    def array(self, leaf: Leaf, hit: np.ndarray | None) -> np.ndarray:
        """A leaf's positions given its :meth:`lookup` result: the hit,
        or a decode that fills the cache without a second lookup."""
        self.stats.decoded_ops += 1
        if hit is not None:
            return hit
        return decode_miss(
            leaf.cs, cache=self.cache, key=leaf.key, observer=self.observer
        )

    def positions(self, value: _Value) -> np.ndarray:
        """Positions of an evaluation step's result.

        A keyed leaf got this far only because its lookup missed, so it
        decodes through the cache; anonymous compressed intermediates
        decompress directly — they are query-specific, so caching them
        would pin memory without ever serving a later hit.
        """
        if isinstance(value, np.ndarray):
            return value
        if value.key is not None:
            return self.array(value, None)
        return get_codec(value.cs.codec_name).decompress(value.cs)

    def eval(self, expr: QueryExpression) -> _Value:
        if isinstance(expr, Leaf):
            hit = self.lookup(expr)
            if (
                hit is None
                and self.compressed
                and Capability.INTERSECT_COMPRESSED
                in get_codec(expr.cs.codec_name).capabilities()
            ):
                # Defer: the consuming operator decides whether this stays
                # on a compressed kernel or needs positions.
                return expr
            return self.array(expr, hit)
        if isinstance(expr, Or):
            return self.eval_or(expr)
        if isinstance(expr, And):
            return self.eval_and(expr)
        raise TypeError(f"not a query expression: {expr!r}")

    def eval_or(self, expr: Or) -> _Value:
        groups, others = or_partition(expr.children)
        looked = [[(leaf, self.lookup(leaf)) for leaf in group] for group in groups]
        if self.compressed and not others and len(looked) == 1:
            group = looked[0]
            acc = group[0][0]
            codec = get_codec(acc.cs.codec_name)
            if Capability.UNION_COMPRESSED in codec.capabilities() and all(
                hit is None for _, hit in group
            ):
                # Single-codec OR with no cached operands: fold entirely
                # in the compressed domain and hand the compressed union
                # to the consumer (e.g. an enclosing AND's kernels).
                for leaf, _ in group[1:]:
                    acc = Leaf(codec.union_compressed(acc.cs, leaf.cs))
                    self.stats.compressed_ops += 1
                return acc
        result = np.empty(0, dtype=np.int64)
        for group in looked:
            # Cached leaves merge as arrays; the rest stay on the
            # codec's compressed-OR path (union_many).
            cold: list[CompressedIntegerSet] = []
            for leaf, hit in group:
                if hit is not None:
                    result = union_sorted_arrays(result, hit)
                else:
                    cold.append(leaf.cs)
            if cold:
                codec = get_codec(cold[0].codec_name)
                result = union_sorted_arrays(result, codec.union_many(cold))
                self.stats.compressed_ops += 1
        for child in others:
            result = union_sorted_arrays(result, self.positions(self.eval(child)))
        return result

    def eval_and(self, expr: And) -> _Value:
        # SvS over sub-expressions: smallest first, then fold or probe
        # the remaining children into the running result.
        ordered = and_order(expr.children)
        result = self.eval(ordered[0])
        for child in ordered[1:]:
            if _count(result) == 0:
                break
            if isinstance(child, Leaf):
                result = self.and_leaf(result, child)
            else:
                result = self.and_pair(result, self.eval(child))
        return result

    def and_leaf(self, acc: _Value, leaf: Leaf) -> _Value:
        """AND a leaf child into *acc* without evaluating it first: a
        cold leaf is folded or probed in compressed form, not decoded."""
        hit = self.lookup(leaf)
        if hit is not None or self.cache_probes:
            # A cached leaf merges as an array; cache_probes makes the
            # same true of a cold one, taking precedence over compressed
            # kernels so the steady state is fully cached.
            return intersect_sorted_arrays(self.positions(acc), self.array(leaf, hit))
        return self.and_pair(acc, leaf)

    def and_pair(self, acc: _Value, sub: _Value) -> _Value:
        """AND on the best kernel the two sides allow: compressed fold,
        array probe into a compressed *sub*, else array merge."""
        if isinstance(sub, Leaf):
            codec = get_codec(sub.cs.codec_name)
            if (
                self.compressed
                and isinstance(acc, Leaf)
                and acc.cs.codec_name == sub.cs.codec_name
                and Capability.INTERSECT_COMPRESSED in codec.capabilities()
            ):
                self.stats.compressed_ops += 1
                return Leaf(codec.intersect_compressed(acc.cs, sub.cs))
            if Capability.INTERSECT_WITH_ARRAY in codec.capabilities():
                self.stats.compressed_ops += 1
                return codec.intersect_with_array(sub.cs, self.positions(acc))
        return intersect_sorted_arrays(self.positions(acc), self.positions(sub))
