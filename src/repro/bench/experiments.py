"""One function per table/figure of the paper's evaluation.

Every function regenerates the corresponding experiment at a
density-preserving scale (see DESIGN.md §2: the paper's 1M…1B lists over
a 2^31 domain map to 1K…1M lists over a 2^21 domain, keeping every n/d
density — the quantity that drives the paper's findings).  Each returns
the raw :class:`~repro.bench.harness.MetricRow` list; the CLI renders
them as paper-style tables.

| id    | paper content                                        |
|-------|------------------------------------------------------|
| fig3  | decompression time + space, 3 distributions × sizes  |
| tab1  | intersection time, ratio 1000, varying |L2|          |
| tab2  | union time, same grid                                |
| tab3  | intersection time vs list-size ratio θ ∈ {1, 10}     |
| fig4  | SSB Q1.1/Q2.1/Q3.4/Q4.1 × SF                         |
| fig5  | TPCH Q6/Q12 × SF                                     |
| fig6  | Web query log: mean intersection & union             |
| fig7  | skip pointers on/off                                 |
| fig8  | Graph Q1/Q2                                          |
| fig9  | KDDCup Q1/Q2                                         |
| fig10 | Berkeleyearth Q1/Q2                                  |
| fig11 | Higgs Q1/Q2                                          |
| fig12 | Kegg Q1/Q2                                           |
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import (
    MetricRow,
    bench_decompression,
    bench_pair,
    bench_query,
    build_expression,
    resolve_codecs,
)
from repro.bench.timing import measure_ms
from repro.core.registry import get_codec
from repro.datagen.pairs import generator, list_pair
from repro.datasets import (
    berkeleyearth_queries,
    graph_queries,
    higgs_queries,
    kddcup_queries,
    kegg_queries,
    ssb_queries,
    tpch_queries,
    web_workload,
)
from repro.ops.expressions import evaluate

#: Scaled synthetic domain (paper: INTMAX = 2^31 − 1).
DEFAULT_DOMAIN = 2**21 - 1
#: Scaled list sizes standing in for the paper's 1M / 10M / 100M / 1B.
DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
SIZE_LABELS = {1_000: "1K", 10_000: "10K", 100_000: "100K", 1_000_000: "1M"}
DISTRIBUTIONS = ("uniform", "zipf", "markov")
#: |L2| / |L1| for Tables 1–2.
DEFAULT_RATIO = 1000


def _label(size: int) -> str:
    return SIZE_LABELS.get(size, str(size))


# ----------------------------------------------------------------------
# Synthetic experiments (Section 5)
# ----------------------------------------------------------------------
def figure3(
    codecs: Sequence[str] | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    domain: int = DEFAULT_DOMAIN,
    distributions: Sequence[str] = DISTRIBUTIONS,
    repeat: int = 3,
    seed: int = 20170514,
) -> list[MetricRow]:
    """Figure 3: decompression time and space, 12 panels."""
    rows = []
    rng = np.random.default_rng(seed)
    for dist in distributions:
        gen = generator(dist)
        for size in sizes:
            values = gen(size, domain, rng=rng)
            rows += bench_decompression(
                values,
                domain,
                codecs=codecs,
                workload=f"{dist}/{_label(size)}",
                repeat=repeat,
            )
    return rows


def table1(
    codecs: Sequence[str] | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    domain: int = DEFAULT_DOMAIN,
    distributions: Sequence[str] = DISTRIBUTIONS,
    ratio: int = DEFAULT_RATIO,
    repeat: int = 3,
    seed: int = 20170515,
) -> list[MetricRow]:
    """Table 1: intersection time with |L2|/|L1| = 1000, varying |L2|."""
    return _pair_grid(
        codecs, sizes, domain, distributions, ratio, repeat, seed, ("intersect",)
    )


def table2(
    codecs: Sequence[str] | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    domain: int = DEFAULT_DOMAIN,
    distributions: Sequence[str] = DISTRIBUTIONS,
    ratio: int = DEFAULT_RATIO,
    repeat: int = 3,
    seed: int = 20170516,
) -> list[MetricRow]:
    """Table 2: union time with |L2|/|L1| = 1000, varying |L2|."""
    return _pair_grid(
        codecs, sizes, domain, distributions, ratio, repeat, seed, ("union",)
    )


def _pair_grid(
    codecs, sizes, domain, distributions, ratio, repeat, seed, operations
) -> list[MetricRow]:
    rows = []
    rng = np.random.default_rng(seed)
    for dist in distributions:
        for size in sizes:
            short, long_ = list_pair(dist, size, ratio, domain, rng=rng)
            rows += bench_pair(
                short,
                long_,
                domain,
                codecs=codecs,
                workload=f"{dist}/{_label(size)}",
                repeat=repeat,
                operations=operations,
            )
    return rows


def table3(
    codecs: Sequence[str] | None = None,
    long_size: int = 100_000,
    domain: int = DEFAULT_DOMAIN,
    distributions: Sequence[str] = DISTRIBUTIONS,
    ratios: Sequence[int] = (1, 10),
    repeat: int = 3,
    seed: int = 20170517,
) -> list[MetricRow]:
    """Table 3: intersection time vs list-size ratio θ (merge regime)."""
    rows = []
    rng = np.random.default_rng(seed)
    for dist in distributions:
        for theta in ratios:
            short, long_ = list_pair(dist, long_size, theta, domain, rng=rng)
            rows += bench_pair(
                short,
                long_,
                domain,
                codecs=codecs,
                workload=f"{dist}/θ={theta}",
                repeat=repeat,
                operations=("intersect",),
            )
    return rows


# ----------------------------------------------------------------------
# Real-data experiments (Section 6 + Appendix C)
# ----------------------------------------------------------------------
def figure4(
    codecs: Sequence[str] | None = None,
    scale_factors: Sequence[int] = (1, 10, 100),
    scale: float = 0.01,
    repeat: int = 3,
    seed: int = 20170518,
) -> list[MetricRow]:
    """Figure 4: SSB Q1.1/Q2.1/Q3.4/Q4.1 at SF 1/10/100 (time + space)."""
    rows = []
    rng = np.random.default_rng(seed)
    for sf in scale_factors:
        for query in ssb_queries(sf, scale=scale, rng=rng):
            out = bench_query(query, codecs=codecs, repeat=repeat)
            for r in out:
                r.workload = f"{query.name}/SF={sf}"
            rows += out
    return rows


def figure5(
    codecs: Sequence[str] | None = None,
    scale_factors: Sequence[int] = (1, 10, 100),
    scale: float = 0.01,
    repeat: int = 3,
    seed: int = 20170519,
) -> list[MetricRow]:
    """Figure 5: TPCH Q6/Q12 at SF 1/10/100 (time + space)."""
    rows = []
    rng = np.random.default_rng(seed)
    for sf in scale_factors:
        for query in tpch_queries(sf, scale=scale, rng=rng):
            out = bench_query(query, codecs=codecs, repeat=repeat)
            for r in out:
                r.workload = f"{query.name}/SF={sf}"
            rows += out
    return rows


def figure6(
    codecs: Sequence[str] | None = None,
    n_docs: int = 200_000,
    n_queries: int = 30,
    repeat: int = 1,
    seed: int = 20170520,
) -> list[MetricRow]:
    """Figure 6: Web query log — mean intersection & union time + space.

    Space is the compressed size of the index slice the log touches
    (each distinct term list counted once).
    """
    queries = web_workload(n_docs=n_docs, n_queries=n_queries, rng=seed)
    rows = []
    for name in resolve_codecs(codecs):
        codec = get_codec(name)
        cache: dict[int, object] = {}

        def compressed(lst: np.ndarray):
            key = id(lst)
            if key not in cache:
                cache[key] = codec.compress(lst, universe=n_docs)
            return cache[key]

        isect_total = 0.0
        union_total = 0.0
        for query in queries:
            sets = [compressed(lst) for lst in query.lists]
            expr = build_expression(query, sets)
            isect_total += measure_ms(
                lambda: evaluate(expr, compressed=False), repeat=repeat
            )
            union_total += measure_ms(
                lambda: codec.union_many(sets), repeat=repeat
            )
        space = sum(cs.size_bytes for cs in cache.values())
        row = MetricRow(name, codec.family, "web", space_bytes=space)
        row.intersect_ms = isect_total / len(queries)
        row.union_ms = union_total / len(queries)
        rows.append(row)
    return rows


def figure7(
    codecs: Sequence[str] = (
        "VB",
        "PforDelta",
        "SIMDPforDelta",
        "SIMDPforDelta*",
        "GroupVB",
    ),
    long_size: int = 10_000,
    ratio: int = 1000,
    domain: int = DEFAULT_DOMAIN,
    distributions: Sequence[str] = ("uniform", "zipf"),
    repeat: int = 3,
    seed: int = 20170521,
) -> list[MetricRow]:
    """Figure 7: effect of skip pointers on intersection time and space.

    Each codec runs twice — with and without skip pointers — over the
    same list pair (paper: |L2| = 10M, |L2|/|L1| = 1000).
    """
    rows = []
    rng = np.random.default_rng(seed)
    for dist in distributions:
        short, long_ = list_pair(dist, long_size, ratio, domain, rng=rng)
        for name in codecs:
            default = get_codec(name)
            for with_skips in (True, False):
                codec = type(default)(skip_pointers=with_skips)
                ca = codec.compress(short, universe=domain)
                cb = codec.compress(long_, universe=domain)
                suffix = "skips" if with_skips else "noskips"
                row = MetricRow(
                    name,
                    codec.family,
                    f"{dist}/{suffix}",
                    space_bytes=ca.size_bytes + cb.size_bytes,
                )
                row.intersect_ms = measure_ms(
                    lambda: codec.intersect(ca, cb), repeat=repeat
                )
                rows.append(row)
    return rows


def _dataset_figure(queries, codecs, repeat) -> list[MetricRow]:
    rows = []
    for query in queries:
        rows += bench_query(query, codecs=codecs, repeat=repeat)
    return rows


def figure8(
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
    seed: int = 20170522,
) -> list[MetricRow]:
    """Figure 8: Graph (Twitter) Q1/Q2 intersection."""
    return _dataset_figure(graph_queries(rng=seed), codecs, repeat)


def figure9(
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
    seed: int = 20170523,
) -> list[MetricRow]:
    """Figure 9: KDDCup Q1/Q2 intersection."""
    return _dataset_figure(kddcup_queries(rng=seed), codecs, repeat)


def figure10(
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
    seed: int = 20170524,
) -> list[MetricRow]:
    """Figure 10: Berkeleyearth Q1/Q2 intersection."""
    return _dataset_figure(berkeleyearth_queries(rng=seed), codecs, repeat)


def figure11(
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
    seed: int = 20170525,
) -> list[MetricRow]:
    """Figure 11: Higgs Q1/Q2 intersection."""
    return _dataset_figure(higgs_queries(rng=seed), codecs, repeat)


def figure12(
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
    seed: int = 20170526,
) -> list[MetricRow]:
    """Figure 12: Kegg Q1/Q2 intersection."""
    return _dataset_figure(kegg_queries(rng=seed), codecs, repeat)


#: Experiment registry for the CLI and the integration tests:
#: id → (function, metric columns to print).
EXPERIMENTS = {
    "fig3": (figure3, ("decompress_ms", "space_bytes")),
    "tab1": (table1, ("intersect_ms",)),
    "tab2": (table2, ("union_ms",)),
    "tab3": (table3, ("intersect_ms",)),
    "fig4": (figure4, ("intersect_ms", "space_bytes")),
    "fig5": (figure5, ("intersect_ms", "space_bytes")),
    "fig6": (figure6, ("intersect_ms", "union_ms", "space_bytes")),
    "fig7": (figure7, ("intersect_ms", "space_bytes")),
    "fig8": (figure8, ("intersect_ms", "space_bytes")),
    "fig9": (figure9, ("intersect_ms", "space_bytes")),
    "fig10": (figure10, ("intersect_ms", "space_bytes")),
    "fig11": (figure11, ("intersect_ms", "space_bytes")),
    "fig12": (figure12, ("intersect_ms", "space_bytes")),
}
