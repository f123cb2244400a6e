"""Measurement harness: one workload × many codecs → metric rows.

Each public function measures one of the paper's four metrics (space,
decompression, intersection, union) for a set of codecs over prepared
posting lists, returning tidy rows the report module renders into the
same tables/series the paper prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.base import (
    CompressedIntegerSet,
    intersect_sorted_arrays,
    union_sorted_arrays,
)
from repro.core.registry import all_codec_names, get_codec
from repro.bench.timing import measure_ms
from repro.datasets.common import DatasetQuery
from repro.ops.expressions import And, Leaf, Or, evaluate


@dataclass
class MetricRow:
    """One (codec, workload) measurement."""

    codec: str
    family: str
    workload: str
    space_bytes: int = 0
    decompress_ms: float = float("nan")
    intersect_ms: float = float("nan")
    union_ms: float = float("nan")
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "codec": self.codec,
            "family": self.family,
            "workload": self.workload,
            "space_bytes": self.space_bytes,
            "decompress_ms": self.decompress_ms,
            "intersect_ms": self.intersect_ms,
            "union_ms": self.union_ms,
        }
        out.update(self.extra)
        return out


def resolve_codecs(codecs: Sequence[str] | None) -> list[str]:
    """Default to every registered codec, in paper-legend order."""
    return list(codecs) if codecs is not None else all_codec_names()


def bench_decompression(
    values: np.ndarray,
    universe: int,
    codecs: Sequence[str] | None = None,
    workload: str = "",
    repeat: int = 3,
) -> list[MetricRow]:
    """Space + decompression time of one list under each codec."""
    rows = []
    for name in resolve_codecs(codecs):
        codec = get_codec(name)
        cs = codec.compress(values, universe=universe)
        row = MetricRow(name, codec.family, workload, space_bytes=cs.size_bytes)
        row.decompress_ms = measure_ms(lambda: codec.decompress(cs), repeat=repeat)
        rows.append(row)
    return rows


def bench_pair(
    short: np.ndarray,
    long_: np.ndarray,
    universe: int,
    codecs: Sequence[str] | None = None,
    workload: str = "",
    repeat: int = 3,
    operations: tuple[str, ...] = ("intersect", "union"),
) -> list[MetricRow]:
    """Intersection and/or union time of a list pair under each codec."""
    expected_i = intersect_sorted_arrays(short, long_)
    expected_u = union_sorted_arrays(short, long_)
    rows = []
    for name in resolve_codecs(codecs):
        codec = get_codec(name)
        ca = codec.compress(short, universe=universe)
        cb = codec.compress(long_, universe=universe)
        row = MetricRow(
            name, codec.family, workload, space_bytes=ca.size_bytes + cb.size_bytes
        )
        if "intersect" in operations:
            got = codec.intersect(ca, cb)
            if not np.array_equal(got, expected_i):
                raise AssertionError(f"{name}: wrong intersection result")
            row.intersect_ms = measure_ms(
                lambda: codec.intersect(ca, cb), repeat=repeat
            )
        if "union" in operations:
            got = codec.union(ca, cb)
            if not np.array_equal(got, expected_u):
                raise AssertionError(f"{name}: wrong union result")
            row.union_ms = measure_ms(lambda: codec.union(ca, cb), repeat=repeat)
        rows.append(row)
    return rows


def build_expression(query: DatasetQuery, sets: list[CompressedIntegerSet]):
    """Instantiate a query's tuple-tree expression over compressed sets."""

    def build(node):
        if isinstance(node, int):
            return Leaf(sets[node])
        op, *children = node
        parts = [build(c) for c in children]
        if op == "and":
            return And(*parts)
        if op == "or":
            return Or(*parts)
        raise ValueError(f"unknown expression operator {op!r}")

    return build(query.expression)


def bench_query(
    query: DatasetQuery,
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
) -> list[MetricRow]:
    """Space + evaluation time of one dataset query under each codec.

    Space is the total compressed size of the query's lists; time is the
    full boolean-expression evaluation (the paper's per-query figures) in
    the SvS-probe regime (``compressed=False``): decode the smallest
    operand, probe the rest — the paper's operator implementations.
    """
    expected = None
    rows = []
    for name in resolve_codecs(codecs):
        codec = get_codec(name)
        sets = [codec.compress(lst, universe=query.domain) for lst in query.lists]
        expr = build_expression(query, sets)
        got = evaluate(expr, compressed=False)
        if expected is None:
            expected = got
        elif not np.array_equal(got, expected):
            raise AssertionError(f"{name}: wrong result for {query.name}")
        row = MetricRow(
            name,
            codec.family,
            query.name,
            space_bytes=sum(cs.size_bytes for cs in sets),
        )
        row.intersect_ms = measure_ms(
            lambda: evaluate(expr, compressed=False), repeat=repeat
        )
        rows.append(row)
    return rows


def bench_query_union(
    query: DatasetQuery,
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
) -> list[MetricRow]:
    """Union of all of a query's lists under each codec (Figure 6b style)."""
    expected = None
    rows = []
    for name in resolve_codecs(codecs):
        codec = get_codec(name)
        sets = [codec.compress(lst, universe=query.domain) for lst in query.lists]
        got = codec.union_many(sets)
        if expected is None:
            expected = got
        elif not np.array_equal(got, expected):
            raise AssertionError(f"{name}: wrong union for {query.name}")
        row = MetricRow(
            name,
            codec.family,
            query.name,
            space_bytes=sum(cs.size_bytes for cs in sets),
        )
        row.union_ms = measure_ms(lambda: codec.union_many(sets), repeat=repeat)
        rows.append(row)
    return rows
