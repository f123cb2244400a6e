"""Typed query AST and query → executable plan compilation.

A query is a term-level boolean tree of frozen :class:`Term` /
:class:`And` / :class:`Or` nodes::

    And(Or("news", "sports"), "2024")             # (L1 ∪ L2) ∩ L3

Bare strings coerce to :class:`Term` wherever a node is expected.  The
AST round-trips through JSON (``node.to_json()`` /
:func:`query_from_json`), which is what the HTTP wire protocol in
:mod:`repro.server` carries.  :func:`parse_query` — the single
normalisation chokepoint every entry point calls — accepts only AST
nodes and bare term strings; the historical nested-tuple grammar
(``("and", ("or", "news", "sports"), "2024")``) was removed together
with wire protocol v1 (see ``docs/serving.md``).

Per shard, :func:`compile_shard_plan` resolves terms to compressed sets
and builds a :mod:`repro.ops.expressions` tree — the boundary between
the logical tree above (names, JSON, canonical form) and the physical
one (resolved sets, size estimates, decode-cache keys) — constant-folding
what the paper's one-shot benchmarks never see: terms missing from the
shard become empty leaves, an ``and`` over an empty leaf folds to the
empty plan, an ``or`` drops empty children.  Every leaf carries its
``(shard, term, codec)`` decode-cache key.

:meth:`ShardPlan.execute` hands the compiled tree to
:func:`repro.ops.expressions.evaluate`, the package's one evaluator
(cache-aware, compressed-domain where the codec's declared capabilities
allow; see that module).  ``describe()`` renders the tree through the
evaluator's own ordering functions
(:func:`~repro.ops.expressions.and_order`,
:func:`~repro.ops.expressions.or_partition`), so it shows exactly the
leaf-size-ordered SvS and per-codec compressed-OR grouping execution
will use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.core.base import (
    CompressedIntegerSet,
    difference_sorted_arrays,
    union_sorted_arrays,
)
from repro.core.decode import ArrayCache, DecodeObserver, decode
from repro.core.registry import get_codec
from repro.ops import expressions as ops_expr
from repro.ops.expressions import (
    ExecStats,
    QueryExpression,
    and_order,
    evaluate,
    or_partition,
)
from repro.store.store import PostingStore


# ----------------------------------------------------------------------
# Typed query AST
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Term:
    """A single posting-list reference by term name."""

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"term name must be a non-empty string, got {self.name!r}")

    def to_json(self) -> dict:
        return {"op": "term", "name": self.name}


def _coerce_child(child: "QueryNode | str") -> "QueryNode":
    if isinstance(child, str):
        return Term(child)
    if isinstance(child, (Term, And, Or)):
        return child
    raise TypeError(
        f"query children must be Term/And/Or nodes or term-name strings, "
        f"got {child!r}"
    )


@dataclass(frozen=True)
class And:
    """Intersection of query sub-trees."""

    children: tuple["QueryNode", ...]

    def __init__(self, *children: "QueryNode | str") -> None:
        if not children:
            raise ValueError("empty 'and' node")
        object.__setattr__(
            self, "children", tuple(_coerce_child(c) for c in children)
        )

    def to_json(self) -> dict:
        return {"op": "and", "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class Or:
    """Union of query sub-trees."""

    children: tuple["QueryNode", ...]

    def __init__(self, *children: "QueryNode | str") -> None:
        if not children:
            raise ValueError("empty 'or' node")
        object.__setattr__(
            self, "children", tuple(_coerce_child(c) for c in children)
        )

    def to_json(self) -> dict:
        return {"op": "or", "children": [c.to_json() for c in self.children]}


QueryNode = Union[Term, And, Or]
#: Anything the entry points accept: an AST node or a bare term name.
QueryLike = Union[Term, And, Or, str]


def parse_query(query: QueryLike) -> QueryNode:
    """Normalise any accepted query spelling to the typed AST.

    AST nodes pass through; a bare string becomes a :class:`Term`.  The
    deprecated nested-tuple grammar is no longer accepted (removed with
    wire protocol v2) — build typed nodes instead, e.g.
    ``And(Or("a", "b"), "c")``.
    """
    if isinstance(query, (Term, And, Or)):
        return query
    if isinstance(query, str):
        return Term(query)
    if isinstance(query, tuple):
        raise TypeError(
            "nested-tuple query expressions were removed; build the typed "
            "AST instead, e.g. And(Or('a', 'b'), 'c') from repro.store"
        )
    raise TypeError(f"not a query expression: {query!r}")


def query_from_json(obj: dict | str) -> QueryNode:
    """Rebuild an AST from :meth:`to_json` output (the wire format).

    A bare string is accepted as shorthand for a single term, matching
    what the HTTP protocol allows in request bodies.
    """
    if isinstance(obj, str):
        return Term(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"query JSON must be an object or string, got {obj!r}")
    op = obj.get("op")
    if op == "term":
        name = obj.get("name")
        if not isinstance(name, str):
            raise ValueError(f"term node needs a string 'name', got {name!r}")
        return Term(name)
    if op in ("and", "or"):
        children = obj.get("children")
        if not isinstance(children, list) or not children:
            raise ValueError(f"{op!r} node needs a non-empty 'children' list")
        parts = [query_from_json(c) for c in children]
        return And(*parts) if op == "and" else Or(*parts)
    raise ValueError(f"unknown query op {op!r}")


# ----------------------------------------------------------------------
# Canonicalization (plan-result cache keys)
# ----------------------------------------------------------------------
def canonical_key(node: QueryNode) -> str:
    """A stable string identity for an AST node.

    Term names are JSON-quoted (they may contain spaces or parentheses),
    operator nodes render as s-expressions — so two structurally equal
    trees always produce the same key and no two different trees can
    collide.  Callers should canonicalize first: the key of
    ``And(a, b)`` differs from ``And(b, a)`` until :func:`canonicalize`
    sorts them.
    """
    if isinstance(node, Term):
        return json.dumps(node.name)
    op = "and" if isinstance(node, And) else "or"
    return f"({op} {' '.join(canonical_key(c) for c in node.children)})"


def canonicalize(node: QueryNode) -> QueryNode:
    """Normal form under the boolean-set algebra the evaluator implements.

    Same-operator children are flattened (``And(And(a, b), c)`` ≡
    ``And(a, b, c)``), duplicates are folded (idempotence), commutative
    children are sorted by :func:`canonical_key`, and single-child
    operator nodes collapse to the child.  Queries that differ only in
    spelling — the paper's overlapping Q3.4/Q4.1 shapes — therefore share
    one plan-cache entry.
    """
    if isinstance(node, Term):
        return node
    same: type[And] | type[Or] = And if isinstance(node, And) else Or
    flat: list[QueryNode] = []
    for child in node.children:
        c = canonicalize(child)
        if isinstance(c, same):
            flat.extend(c.children)
        else:
            flat.append(c)
    unique: dict[str, QueryNode] = {}
    for c in flat:
        unique.setdefault(canonical_key(c), c)
    ordered = [unique[k] for k in sorted(unique)]
    if len(ordered) == 1:
        return ordered[0]
    return same(*ordered)


@dataclass(frozen=True)
class Query:
    """One serveable query: a term expression plus an optional shard set.

    Attributes:
        expression: a :class:`Term`/:class:`And`/:class:`Or` tree (bare
            strings are normalised by the engine's entry points via
            :func:`parse_query`).
        shards: shards to scatter over; ``None`` means every shard.
        query_id: caller-chosen label, echoed in the result.
    """

    expression: QueryLike
    shards: tuple[str, ...] | None = None
    query_id: str = ""


def query_terms(expression: QueryLike) -> list[str]:
    """Distinct term names referenced by an expression, in first-use order."""
    out: dict[str, None] = {}

    def walk(node: QueryNode) -> None:
        if isinstance(node, Term):
            out[node.name] = None
            return
        for child in node.children:
            walk(child)

    walk(parse_query(expression))
    return list(out)


def _unwrap(cs: CompressedIntegerSet) -> CompressedIntegerSet:
    """Strip wrapper codecs (Adaptive) down to their registered inner set.

    Wrapper sets nest a full ``CompressedIntegerSet`` as payload; the
    inner set is what the expression evaluator's registry lookups can
    operate on, and its codec name is the honest cache-key component.
    """
    while isinstance(cs.payload, CompressedIntegerSet):
        cs = cs.payload
    return cs


@dataclass
class ShardPlan:
    """One shard's executable slice of a query."""

    shard: str
    expr: QueryExpression | None  #: None ⇒ constant-folded to empty
    terms: list[str] = field(default_factory=list)
    missing_terms: list[str] = field(default_factory=list)
    #: Terms this query needed that were lost to a lenient load or whose
    #: pending-delta merge failed — their absence makes results
    #: *partial*, unlike never-indexed terms.
    degraded_terms: list[str] = field(default_factory=list)
    #: Terms served through a pending-write overlay (writable stores).
    delta_terms: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def execute(
        self,
        cache: ArrayCache | None = None,
        observer: DecodeObserver | None = None,
        cache_probes: bool = False,
        compressed: bool = True,
        stats: ExecStats | None = None,
    ) -> np.ndarray:
        """Evaluate to a sorted array, consulting/filling *cache*.

        A constant-folded plan is the empty array; anything else is
        :func:`repro.ops.expressions.evaluate` on the compiled tree,
        and the keywords are that function's.
        """
        if self.expr is None:
            return np.empty(0, dtype=np.int64)
        return evaluate(
            self.expr,
            cache=cache,
            observer=observer,
            cache_probes=cache_probes,
            compressed=compressed,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able plan tree showing execution order and strategies."""

        def term(leaf: ops_expr.Leaf) -> str:
            # Compiled keys are (shard, term, codec) triples.
            return leaf.key[1] if isinstance(leaf.key, tuple) else "<anon>"

        def walk(expr: QueryExpression) -> dict:
            if isinstance(expr, ops_expr.Leaf):
                return {
                    "op": "leaf",
                    "term": term(expr),
                    "codec": expr.cs.codec_name,
                    "n": expr.cs.n,
                }
            if isinstance(expr, ops_expr.Or):
                groups, others = or_partition(expr.children)
                return {
                    "op": "or",
                    "strategy": "compressed-or",
                    "groups": [
                        {
                            "codec": g[0].cs.codec_name,
                            "terms": [term(leaf) for leaf in g],
                        }
                        for g in groups
                    ],
                    "children": [walk(c) for c in others],
                }
            return {
                "op": "and",
                "strategy": "svs",
                "order": [walk(c) for c in and_order(expr.children)],
            }

        return {
            "shard": self.shard,
            "terms": self.terms,
            "missing_terms": self.missing_terms,
            "degraded_terms": self.degraded_terms,
            "delta_terms": self.delta_terms,
            "plan": walk(self.expr) if self.expr is not None else {"op": "empty"},
        }


def compile_shard_plan(
    store: PostingStore,
    shard_name: str,
    expression: QueryLike,
    *,
    cache: ArrayCache | None = None,
    observer: DecodeObserver | None = None,
) -> ShardPlan:
    """Resolve a query (AST node or bare term string) against one shard.

    The compile works against one atomic :meth:`Shard.read_state`
    snapshot, so a concurrent compaction can swap the shard's postings
    mid-query without the plan ever mixing generations.  Terms with
    pending delta writes are materialised here — base list decoded
    through *cache*/*observer* (keyed with the term's rewrite
    generation), overlay applied, result wrapped as an uncompressed
    ``"List"`` leaf — so the boolean evaluator below needs no delta
    awareness.  An overlay that fails to merge degrades the term
    (recorded in ``degraded_terms``) instead of failing the query.
    """
    shard = store.shard(shard_name)
    state = shard.read_state()
    plan = ShardPlan(shard=shard_name, expr=None)
    root = parse_query(expression)
    plan.terms = query_terms(root)
    list_codec = get_codec("List") if state.deltas else None

    # Mapped (v3) shards carry a cache epoch — the segment generation at
    # open, carried forward across in-process compactions.  Folding it
    # into the codec slot means a reopened or migrated store can never
    # hit arrays cached against another mapping of the same directory.
    mapped_epoch = getattr(state.postings, "cache_epoch", None)

    def versioned(term: str, codec_name: str) -> tuple[str, str, str]:
        # Compaction bumps a term's generation when it rewrites the
        # list; baking it into the key's codec slot keeps keys 3-tuples
        # (what DecodeCache.invalidate_shard expects) while guaranteeing
        # a rewritten list never hits its predecessor's cached array.
        slot = codec_name
        if mapped_epoch is not None:
            slot = f"{slot}@m{mapped_epoch}"
        ver = state.versions.get(term, 0)
        return (shard_name, term, slot if not ver else f"{slot}#g{ver}")

    def overlay_leaf(term: str, cs: CompressedIntegerSet | None) -> QueryExpression | None:
        """Base ∖ dels ∪ adds, wrapped as an uncompressed-list leaf."""
        if cs is not None:
            inner = _unwrap(cs)
            base = decode(
                inner,
                cache=cache,
                key=versioned(term, inner.codec_name),
                observer=observer,
            )
        else:
            base = np.empty(0, dtype=np.int64)
        merged = base
        revs: list[str] = []
        touched = False
        for seg in state.deltas:
            adds, dels, rev = seg.snapshot(term)
            revs.append(str(rev))
            if not (adds.size or dels.size):
                continue
            touched = True
            if dels.size:
                merged = difference_sorted_arrays(merged, dels)
            if adds.size:
                merged = union_sorted_arrays(merged, adds)
        if not touched and cs is None:
            return None  # overlay was all no-ops; term truly absent
        assert list_codec is not None
        ver = state.versions.get(term, 0)
        epoch = "" if mapped_epoch is None else f"m{mapped_epoch}"
        plan.delta_terms.append(term)
        return ops_expr.Leaf(
            list_codec.compress(merged),
            (shard_name, term, f"List@{epoch}g{ver}r{'.'.join(revs)}"),
        )

    def build(node: QueryNode) -> QueryExpression | None:
        if isinstance(node, Term):
            cs = state.postings.get(node.name)
            delta_touched = any(d.touches(node.name) for d in state.deltas)
            if delta_touched:
                try:
                    return overlay_leaf(node.name, cs)
                except Exception:  # repro: noqa[REPRO106] -- degrade the term, not the query; recorded in degraded_terms and surfaced as a partial status
                    plan.degraded_terms.append(node.name)
                    return None
            if cs is None:
                if node.name in shard.failed_terms:
                    plan.degraded_terms.append(node.name)
                else:
                    plan.missing_terms.append(node.name)
                return None
            inner = _unwrap(cs)
            return ops_expr.Leaf(inner, versioned(node.name, inner.codec_name))
        parts = [build(c) for c in node.children]
        if isinstance(node, And):
            if any(p is None for p in parts):
                return None  # ∩ with the empty set is empty
            kept = [p for p in parts if p is not None]
            return kept[0] if len(kept) == 1 else ops_expr.And(*kept)
        kept = [p for p in parts if p is not None]  # ∪ drops empty children
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else ops_expr.Or(*kept)

    plan.expr = build(root)
    return plan

