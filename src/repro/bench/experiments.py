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
    bench_served,
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
from repro.store.plan import And, Or, Term

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


def served(
    codecs: Sequence[str] | None = None,
    repeat: int = 3,
    n_terms: int = 24,
    list_size: int = 4_000,
    n_queries: int = 48,
    domain: int = 2**18,
    seed: int = 20170527,
) -> list[MetricRow]:
    """Served mode: cold vs warm query batches through the posting store.

    Not a paper experiment — the ROADMAP's serving extension.  Each codec
    hosts the same term lists in a :class:`repro.store.PostingStore`; a
    skewed batch (hot terms repeat) runs cold then warm, so the table
    shows what the decode cache buys per codec.  ``repeat`` is accepted
    for CLI uniformity but unused: cold/warm is inherently two passes.
    """
    del repeat
    rng = np.random.default_rng(seed)
    terms = {
        f"t{i:03d}": generator("uniform")(
            max(1, int(list_size * (0.5 + rng.random()))), domain, rng=rng
        )
        for i in range(n_terms)
    }
    names = sorted(terms)

    def hot() -> str:
        return names[int(rng.random() ** 2 * len(names)) % len(names)]

    queries: list = []
    for q in range(n_queries):
        shape = q % 4
        if shape == 0:
            queries.append(Term(hot()))
        elif shape == 1:
            queries.append(And(hot(), hot()))
        elif shape == 2:
            queries.append(Or(hot(), hot()))
        else:
            queries.append(And(Or(hot(), hot()), hot()))
    return bench_served(terms, queries, universe=domain, codecs=codecs)


def closed_loop(
    codecs: Sequence[str] | None = None,
    repeat: int = 1,
    n_terms: int = 16,
    list_size: int = 2_000,
    domain: int = 2**17,
    seed: int = 20170530,
    clients: int = 8,
    requests_per_client: int = 12,
    deadline_ms: float = 250.0,
    slow_shard_ms: float = 20.0,
    queue_depth: int = 16,
    workers: int = 4,
) -> list[MetricRow]:
    """Closed-loop serving: concurrent HTTP clients against a live server.

    Not a paper experiment — this measures the :mod:`repro.server`
    network layer end to end.  Per codec, a two-shard store (one shard
    slowed by ``slow_shard_ms`` through the engine's fault-injection
    hook) is put behind an in-process :class:`StoreServer` with a
    bounded admission queue; ``clients`` closed-loop clients each issue
    ``requests_per_client`` queries with a per-request deadline header
    and **no retries**, so every shed request is visible in the results.
    ``intersect_ms`` reports client-observed p99 latency; ``extra``
    carries the offered/accepted/shed accounting (cross-checked against
    the server's ``/metrics``), p50, throughput, and the response-status
    mix.  ``repeat`` is accepted for CLI uniformity but unused.
    """
    del repeat
    import threading
    import time as _time

    from repro.api import connect
    from repro.server import (
        BackgroundServer,
        ServerUnavailableError,
        StoreServer,
    )
    from repro.store.cache import DecodeCache
    from repro.store.engine import QueryEngine
    from repro.store.store import PostingStore

    names = list(codecs) if codecs is not None else ["Roaring"]
    rows = []
    for name in names:
        rng = np.random.default_rng(seed)
        store = PostingStore()
        for s in range(2):
            shard = store.create_shard(f"s{s}", codec=name, universe=domain)
            for t in range(n_terms):
                n = max(1, int(list_size * (0.5 + rng.random())))
                shard.add(
                    f"t{t:03d}",
                    generator("uniform")(min(n, domain), domain, rng=rng),
                )
        engine = QueryEngine(
            store,
            cache=DecodeCache(max_entries=512),
            shard_delays={"s1": slow_shard_ms / 1000.0} if slow_shard_ms else None,
        )
        server = StoreServer(
            engine, max_pending=queue_depth, workers=workers, grace_factor=4.0
        )

        def hot() -> str:
            return f"t{int(rng.random() ** 2 * n_terms) % n_terms:03d}"

        # Pre-generate each client's queries: the rng is not thread-safe.
        plans = []
        for _c in range(clients):
            qs: list = []
            for q in range(requests_per_client):
                shape = q % 3
                if shape == 0:
                    qs.append(Term(hot()))
                elif shape == 1:
                    qs.append(And(hot(), hot()))
                else:
                    qs.append(And(Or(hot(), hot()), hot()))
            plans.append(qs)

        lock = threading.Lock()
        latencies: list[float] = []
        statuses: dict[str, int] = {}

        def run_client(qs: list) -> None:
            with connect(
                f"http://127.0.0.1:{server.port}", max_retries=0, timeout_s=30.0
            ) as client:
                for q in qs:
                    t0 = _time.perf_counter()
                    try:
                        status = client.query(q, deadline_ms=deadline_ms).status
                    except ServerUnavailableError:
                        status = "shed"
                    ms = (_time.perf_counter() - t0) * 1000.0
                    with lock:
                        statuses[status] = statuses.get(status, 0) + 1
                        if status != "shed":
                            latencies.append(ms)

        with BackgroundServer(server):
            t0 = _time.perf_counter()
            threads = [
                threading.Thread(target=run_client, args=(qs,)) for qs in plans
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall_s = _time.perf_counter() - t0
            with connect(f"http://127.0.0.1:{server.port}") as probe:
                admission = probe.metrics()["server"]["admission"]

        offered = clients * requests_per_client
        if admission["accepted"] + admission["shed"] != admission["offered"]:
            raise AssertionError(
                f"{name}: admission accounting leak: {admission}"
            )
        if admission["offered"] != offered:
            raise AssertionError(
                f"{name}: offered {admission['offered']} != sent {offered}"
            )
        answered = sorted(latencies)

        def pct(p: float) -> float:
            if not answered:
                return float("nan")
            return answered[min(len(answered) - 1, int(p * len(answered)))]

        sizes = sum(store.shard(s).size_bytes for s in store.shard_names())
        codec = store.shard("s0").codec
        row = MetricRow(
            name,
            codec.family if name != "Adaptive" else "hybrid",
            "closed_loop",
            space_bytes=sizes,
        )
        row.intersect_ms = pct(0.99)
        row.extra = {
            "clients": clients,
            "offered": admission["offered"],
            "accepted": admission["accepted"],
            "shed": admission["shed"],
            "shed_rate": admission["shed"] / max(1, admission["offered"]),
            "p50_ms": pct(0.50),
            "p99_ms": pct(0.99),
            "throughput_qps": len(answered) / wall_s if wall_s else float("inf"),
            "statuses": dict(sorted(statuses.items())),
        }
        rows.append(row)
    return rows


def churn(
    codecs: Sequence[str] | None = None,
    repeat: int = 1,
    n_terms: int = 16,
    list_size: int = 1_000,
    domain: int = 2**17,
    seed: int = 20170531,
    clients: int = 4,
    requests_per_client: int = 12,
    ingest_batches: int = 16,
    ops_per_batch: int = 8,
    compact_interval_s: float = 0.05,
    queue_depth: int = 16,
    workers: int = 4,
) -> list[MetricRow]:
    """Churn serving: queries race live ingest and background compaction.

    Not a paper experiment — the write-path extension's end-to-end
    figure.  Per codec, a :class:`WritablePostingStore` is preloaded,
    compacted once, and put behind an in-process server with its
    background compactor running at ``compact_interval_s``.  A writer
    client then streams ``ingest_batches`` durable batches over
    ``POST /ingest`` while ``clients`` closed-loop readers query the
    same shard, so every query potentially merges the live delta and
    may land mid-compaction.  ``intersect_ms`` reports reader-observed
    p99 latency; ``extra`` carries the ingest-side p50/p99 (arrival →
    durable ack), acked-op and compaction counts from ``/metrics``, and
    the response-status mix.  Any ``failed`` query raises — compaction
    must never be visible as an error.  ``repeat`` is accepted for CLI
    uniformity but unused.
    """
    del repeat
    import tempfile
    import threading
    import time as _time

    from repro.api import connect
    from repro.server import (
        BackgroundServer,
        ServerUnavailableError,
        StoreServer,
    )
    from repro.store.__main__ import synthetic_ops
    from repro.store.cache import DecodeCache
    from repro.store.engine import QueryEngine
    from repro.store.segments import WritablePostingStore

    names = list(codecs) if codecs is not None else ["Roaring"]
    rows = []
    for name in names:
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory(prefix="repro-churn-") as tmp:
            store = WritablePostingStore.open(tmp)
            store.create_shard("s0", codec=name, universe=domain)
            preload = []
            for t in range(n_terms):
                n = max(1, int(list_size * (0.5 + rng.random())))
                values = generator("uniform")(min(n, domain), domain, rng=rng)
                preload.append(("add", "s0", f"t{t:03d}", values))
            store.ingest_batch(preload)
            store.compact()
            store.start_compactor(compact_interval_s)
            engine = QueryEngine(store, cache=DecodeCache(max_entries=512))
            server = StoreServer(
                engine, max_pending=queue_depth, workers=workers, grace_factor=4.0
            )

            def hot() -> str:
                return f"t{int(rng.random() ** 2 * n_terms) % n_terms:03d}"

            plans = []
            for _c in range(clients):
                qs: list = []
                for q in range(requests_per_client):
                    shape = q % 3
                    if shape == 0:
                        qs.append(Term(hot()))
                    elif shape == 1:
                        qs.append(And(hot(), hot()))
                    else:
                        qs.append(And(Or(hot(), hot()), hot()))
                plans.append(qs)
            batches = synthetic_ops(
                seed + 1,
                ingest_batches,
                ops_per_batch,
                shard="s0",
                n_terms=n_terms,
                domain=domain,
            )

            lock = threading.Lock()
            query_ms: list[float] = []
            ingest_ms: list[float] = []
            statuses: dict[str, int] = {}
            acked = 0

            def run_reader(qs: list) -> None:
                with connect(
                    f"http://127.0.0.1:{server.port}", max_retries=0,
                    timeout_s=30.0,
                ) as client:
                    for q in qs:
                        t0 = _time.perf_counter()
                        try:
                            status = client.query(q).status
                        except ServerUnavailableError:
                            status = "shed"
                        ms = (_time.perf_counter() - t0) * 1000.0
                        with lock:
                            statuses[status] = statuses.get(status, 0) + 1
                            if status != "shed":
                                query_ms.append(ms)

            def run_writer() -> None:
                nonlocal acked
                with connect(
                    f"http://127.0.0.1:{server.port}", max_retries=3,
                    timeout_s=30.0,
                ) as client:
                    for i, batch in enumerate(batches):
                        t0 = _time.perf_counter()
                        resp = client.ingest(batch, batch_id=f"b{i:04d}")
                        ms = (_time.perf_counter() - t0) * 1000.0
                        with lock:
                            ingest_ms.append(ms)
                            if resp.ok:
                                acked += resp.acked_ops

            with BackgroundServer(server):
                t0 = _time.perf_counter()
                threads = [
                    threading.Thread(target=run_reader, args=(qs,))
                    for qs in plans
                ]
                threads.append(threading.Thread(target=run_writer))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wall_s = _time.perf_counter() - t0
                with connect(f"http://127.0.0.1:{server.port}") as probe:
                    metrics = probe.metrics()
            store.close(compact=False)

            if statuses.get("failed"):
                raise AssertionError(
                    f"{name}: {statuses['failed']} queries failed under churn: "
                    f"{statuses}"
                )

            def pct(samples: list[float], p: float) -> float:
                if not samples:
                    return float("nan")
                ordered = sorted(samples)
                return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

            write_path = metrics.get("write_path", {})
            space = sum(
                store.shard(s).size_bytes for s in store.shard_names()
            )
            codec = store.shard("s0").codec
            row = MetricRow(
                name,
                codec.family if name != "Adaptive" else "hybrid",
                "churn",
                space_bytes=space,
            )
            row.intersect_ms = pct(query_ms, 0.99)
            row.extra = {
                "clients": clients,
                "acked_ops": acked,
                "compactions": write_path.get("compactions", 0),
                "generation": write_path.get("generation", 0),
                "query_p50_ms": pct(query_ms, 0.50),
                "query_p99_ms": pct(query_ms, 0.99),
                "ingest_p50_ms": pct(ingest_ms, 0.50),
                "ingest_p99_ms": pct(ingest_ms, 0.99),
                "throughput_qps": (
                    len(query_ms) / wall_s if wall_s else float("inf")
                ),
                "statuses": dict(sorted(statuses.items())),
            }
            rows.append(row)
    return rows


def cluster(
    codecs: Sequence[str] | None = None,
    repeat: int = 1,
    n_shards: int = 4,
    n_terms: int = 16,
    list_size: int = 1_000,
    domain: int = 2**16,
    seed: int = 20170601,
    n_backends: int = 3,
    replication: int = 2,
    clients: int = 6,
    requests_per_client: int = 10,
    slow_shard_ms: float = 200.0,
    hedge_max_ms: float = 50.0,
    kill_after_fraction: float = 0.3,
) -> list[MetricRow]:
    """Scatter-gather serving: a router over real backend *processes*.

    Not a paper experiment — this measures :mod:`repro.cluster` end to
    end, with backends as separate ``python -m repro.server``
    subprocesses (so the failover phase can SIGKILL one for real).  Per
    codec, one store is saved once and served identically by
    ``n_backends`` subprocess backends at the given ``replication``;
    one backend (chosen so it is a cold-start primary) drags every
    shard by ``slow_shard_ms`` — the straggler hedging exists to beat.
    Four phases, each a fresh closed loop of ``clients`` ×
    ``requests_per_client`` queries with no retries:

    1. **baseline** — straight at one fast backend (no router);
    2. **unhedged** — through a fresh router with hedging off: cold
       placement sends every slow-primary group into the straggler, so
       its p99 carries the full ``slow_shard_ms``;
    3. **hedged** — a fresh router with the hedge-delay band capped at
       ``hedge_max_ms``: the speculative replica rescues those groups,
       which is the p99 cut the CI job asserts on;
    4. **failover** — hedged router again; after ``kill_after_fraction``
       of requests one *fast* backend is SIGKILLed mid-loop.  With
       ``replication >= 2`` every query must still answer
       (``status != failed``), counted in ``extra["failover"]``.

    ``intersect_ms`` reports the hedged-phase p99.  ``repeat`` is
    accepted for CLI uniformity but unused.
    """
    del repeat
    import json as _json
    import os
    import signal
    import subprocess
    import sys
    import tempfile
    import threading
    import time as _time

    from repro.api import connect
    from repro.cluster import Backend, ClusterRouter, ShardMap
    from repro.server import BackgroundServer, ServerUnavailableError
    from repro.store.__main__ import build_store

    names = list(codecs) if codecs is not None else ["Roaring"]
    rows = []
    for name in names:
        store = build_store(
            n_shards, n_terms, name, "uniform", list_size, domain, seed
        )
        shards = tuple(sorted(store.shard_names()))
        rng = np.random.default_rng(seed)

        # Cold-start primaries are placement order, so pick the
        # straggler as a backend that is primary for >= 1 group.
        probe = ShardMap(
            tuple(
                Backend(backend_id=f"b{i}", host="127.0.0.1", port=1)
                for i in range(n_backends)
            ),
            shards,
            replication=replication,
        )
        slow_idx = int(probe.replicas(shards[0])[0][1:])
        fast_idx = next(i for i in range(n_backends) if i != slow_idx)

        def hot() -> str:
            return f"t{int(rng.random() ** 2 * n_terms) % n_terms:03d}"

        plans = []
        for _c in range(clients):
            qs: list = []
            for q in range(requests_per_client):
                shape = q % 3
                if shape == 0:
                    qs.append(Term(hot()))
                elif shape == 1:
                    qs.append(Or(hot(), hot()))
                else:
                    qs.append(And(Or(hot(), hot()), hot()))
            plans.append(qs)

        def run_loop(port: int, on_request=None) -> tuple[dict, list[float]]:
            lock = threading.Lock()
            latencies: list[float] = []
            statuses: dict[str, int] = {}
            sent = [0]

            def run_client(qs: list) -> None:
                with connect(
                    f"http://127.0.0.1:{port}", max_retries=0, timeout_s=30.0
                ) as target:
                    for q in qs:
                        with lock:
                            sent[0] += 1
                            n_sent = sent[0]
                        if on_request is not None:
                            on_request(n_sent)
                        t0 = _time.perf_counter()
                        try:
                            status = target.query(q).status
                        except ServerUnavailableError:
                            status = "unavailable"
                        ms = (_time.perf_counter() - t0) * 1000.0
                        with lock:
                            statuses[status] = statuses.get(status, 0) + 1
                            latencies.append(ms)

            threads = [
                threading.Thread(target=run_client, args=(qs,))
                for qs in plans
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return statuses, sorted(latencies)

        def pct(sorted_ms: list[float], p: float) -> float:
            if not sorted_ms:
                return float("nan")
            return sorted_ms[min(len(sorted_ms) - 1, int(p * len(sorted_ms)))]

        with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
            store_dir = os.path.join(tmp, "store")
            store.save(store_dir)
            procs: list[subprocess.Popen] = []
            try:
                backend_ports = []
                for i in range(n_backends):
                    argv = [
                        sys.executable, "-m", "repro.server",
                        "--store", store_dir, "--port", "0",
                    ]
                    if i == slow_idx:
                        for shard in shards:
                            argv += ["--slow-shard", f"{shard}:{slow_shard_ms}"]
                    proc = subprocess.Popen(
                        argv, stdout=subprocess.PIPE, text=True
                    )
                    procs.append(proc)
                    line = proc.stdout.readline()
                    backend_ports.append(
                        int(_json.loads(line)["listening"].rsplit(":", 1)[1])
                    )
                backends = tuple(
                    Backend(backend_id=f"b{i}", host="127.0.0.1", port=p)
                    for i, p in enumerate(backend_ports)
                )
                shardmap = ShardMap(backends, shards, replication=replication)

                def routed_loop(hedge: bool, on_request=None):
                    router = ClusterRouter(
                        shardmap, hedge=hedge, hedge_max_ms=hedge_max_ms
                    )
                    with BackgroundServer(router) as bg:
                        statuses, ms = run_loop(bg.port, on_request)
                    return router, statuses, ms

                base_statuses, base_ms = run_loop(backend_ports[fast_idx])
                _, unhedged_statuses, unhedged_ms = routed_loop(hedge=False)
                hedged_router, hedged_statuses, hedged_ms = routed_loop(
                    hedge=True
                )

                total = clients * requests_per_client
                kill_at = max(1, int(total * kill_after_fraction))
                victim = procs[fast_idx]
                kill_lock = threading.Lock()
                killed = [False]

                def kill_one(n_sent: int) -> None:
                    with kill_lock:
                        if n_sent < kill_at or killed[0]:
                            return
                        killed[0] = True
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.wait()

                failover_router, failover_statuses, failover_ms = routed_loop(
                    hedge=True, on_request=kill_one
                )
            finally:
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()

        sizes = sum(store.shard(s).size_bytes for s in store.shard_names())
        codec = store.shard(shards[0]).codec
        row = MetricRow(
            name,
            codec.family if name != "Adaptive" else "hybrid",
            "cluster",
            space_bytes=sizes,
        )
        row.intersect_ms = pct(hedged_ms, 0.99)
        row.extra = {
            "backends": n_backends,
            "replication": replication,
            "slow_backend": f"b{slow_idx}",
            "slow_shard_ms": slow_shard_ms,
            "baseline_p50_ms": pct(base_ms, 0.50),
            "baseline_p99_ms": pct(base_ms, 0.99),
            "baseline_statuses": dict(sorted(base_statuses.items())),
            "unhedged_p99_ms": pct(unhedged_ms, 0.99),
            "unhedged_statuses": dict(sorted(unhedged_statuses.items())),
            "hedged_p99_ms": pct(hedged_ms, 0.99),
            "hedged_statuses": dict(sorted(hedged_statuses.items())),
            "hedged": hedged_router.metrics.hedged,
            "hedge_wins": hedged_router.metrics.hedge_wins,
            "failover": {
                "killed_backend": f"b{fast_idx}",
                "kill_after_requests": kill_at,
                "p99_ms": pct(failover_ms, 0.99),
                "statuses": dict(sorted(failover_statuses.items())),
                "failovers": failover_router.metrics.failovers,
                "failed": failover_statuses.get("failed", 0)
                + failover_statuses.get("unavailable", 0),
            },
        }
        rows.append(row)
    return rows


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
    "served": (served, ("intersect_ms", "space_bytes")),
    "closed_loop": (closed_loop, ("intersect_ms", "space_bytes")),
    "churn": (churn, ("intersect_ms", "space_bytes")),
    "cluster": (cluster, ("intersect_ms", "space_bytes")),
}
