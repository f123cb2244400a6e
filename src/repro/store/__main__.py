"""Command-line demo and diagnostics runner: ``python -m repro.store``.

Builds a synthetic sharded store, serves a randomized query batch
through the concurrent engine, and prints JSON — either the full report
(store inventory + per-query outcomes + metrics) or, with ``--metrics``,
just the metrics snapshot (cache hit/miss counters, latency histogram,
per-codec decode counts).

The exit code reflects the *worst* query outcome in the batch so CI
scripts can gate on degradation: ``0`` all ok, ``3`` some partial,
``4`` some timed out, ``5`` some failed outright.  ``--strict``
escalates any non-ok outcome to ``5`` — the same ok / partial /
timed_out / failed taxonomy the HTTP server reports in its response
``status`` field.

Two write-path subcommands ride alongside the flat demo CLI:

``python -m repro.store ingest DIR`` streams a deterministic synthetic
op stream (seeded — rerunning with the same flags regenerates the same
ops) into a :class:`~repro.store.segments.WritablePostingStore`,
printing one JSON line per *acked* batch — i.e. after the WAL fsync
returned.  The crash-recovery suite SIGKILLs this process mid-run and
uses those lines as the durability oracle: every op in a printed batch
must survive replay.  ``python -m repro.store compact DIR`` runs one
foreground compaction and prints the write-path counters.
``python -m repro.store migrate DIR`` upgrades a legacy (v1/v2)
directory in place; the other two refuse one (``StoreError``).

Examples::

    python -m repro.store --metrics
    python -m repro.store --codec WAH --shards 4 --queries 200 --workers 8
    python -m repro.store --explain
    python -m repro.store --timeout-ms 50 --strict   # non-zero on any degradation
    python -m repro.store ingest /tmp/idx --batches 20 --seed 7
    python -m repro.store compact /tmp/idx
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

import numpy as np

from repro.datagen import markov_list, uniform_list, zipf_list
from repro.store.cache import DecodeCache
from repro.store.engine import QueryEngine, QueryResult
from repro.store.metrics import StoreMetrics
from repro.store.plan import And, Or, Query, Term
from repro.store.segments import WritablePostingStore
from repro.store.store import PostingStore, migrate_store
from repro.store.wal import OP_ADD, OP_DELETE

#: Exit codes by worst batch outcome (0 = every query ok).
EXIT_PARTIAL = 3
EXIT_TIMED_OUT = 4
EXIT_FAILED = 5
_STATUS_EXIT = {"ok": 0, "partial": EXIT_PARTIAL, "timed_out": EXIT_TIMED_OUT, "failed": EXIT_FAILED}


def batch_exit_code(results: Sequence[QueryResult], strict: bool = False) -> int:
    """Exit code for a served batch: the worst per-query status wins.

    With ``strict=True`` any non-ok query is a hard failure
    (:data:`EXIT_FAILED`) — for CI gates that refuse degraded service.
    """
    worst = max((_STATUS_EXIT[r.status] for r in results), default=0)
    if strict and worst:
        return EXIT_FAILED
    return worst

_GENERATORS = {
    "uniform": uniform_list,
    "zipf": zipf_list,
    "markov": markov_list,
}


def build_store(
    n_shards: int,
    terms_per_shard: int,
    codec: str,
    distribution: str,
    list_size: int,
    domain: int,
    seed: int,
) -> PostingStore:
    """A synthetic sharded index: each shard covers one domain slice."""
    rng = np.random.default_rng(seed)
    gen = _GENERATORS[distribution]
    store = PostingStore()
    for s in range(n_shards):
        shard = store.create_shard(f"shard{s:02d}", codec=codec, universe=domain)
        for t in range(terms_per_shard):
            n = max(1, int(list_size * (0.25 + 1.5 * rng.random())))
            shard.add(f"t{t:03d}", gen(min(n, domain), domain, rng=rng))
    return store


def sample_queries(
    n_queries: int, terms_per_shard: int, seed: int
) -> list[Query]:
    """A skewed query mix: hot terms repeat, shapes vary.

    Term popularity is zipf-skewed so the decode cache has something to
    do, and shapes cycle through the paper's plan forms: single term,
    two-term AND (Table 1), two-term OR (Table 2), and the
    ``(L1 ∪ L2) ∩ L3`` composite (TPCH Q12).
    """
    rng = np.random.default_rng(seed + 1)

    def term() -> str:
        # Zipf-ish skew over the term space via a squared uniform draw.
        idx = int(rng.random() ** 2 * terms_per_shard) % terms_per_shard
        return f"t{idx:03d}"

    out: list[Query] = []
    for q in range(n_queries):
        shape = q % 4
        if shape == 0:
            expr: Term | And | Or = Term(term())
        elif shape == 1:
            expr = And(term(), term())
        elif shape == 2:
            expr = Or(term(), term())
        else:
            expr = And(Or(term(), term()), term())
        out.append(Query(expression=expr, query_id=f"q{q:04d}"))
    return out


# ----------------------------------------------------------------------
# Write-path subcommands
# ----------------------------------------------------------------------
def synthetic_ops(
    seed: int,
    n_batches: int,
    ops_per_batch: int,
    shard: str = "s0",
    n_terms: int = 16,
    domain: int = 2**17,
    delete_fraction: float = 0.2,
) -> list[list[tuple[str, str, str, list[int]]]]:
    """A deterministic batched op stream: same arguments, same ops.

    The crash-recovery tests rely on this determinism — after a SIGKILL
    they regenerate the stream, apply the prefix the WAL preserved, and
    compare bit for bit against the recovered store.
    """
    rng = np.random.default_rng(seed)
    batches: list[list[tuple[str, str, str, list[int]]]] = []
    for _b in range(n_batches):
        batch: list[tuple[str, str, str, list[int]]] = []
        for _o in range(ops_per_batch):
            kind = OP_DELETE if rng.random() < delete_fraction else OP_ADD
            term = f"t{int(rng.integers(n_terms)):03d}"
            n = int(rng.integers(1, 48))
            values = sorted({int(v) for v in rng.integers(0, domain, size=n)})
            batch.append((kind, shard, term, values))
        batches.append(batch)
    return batches


def _ingest_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store ingest",
        description="Stream a deterministic synthetic op batch sequence "
        "into a writable store; one JSON line per durably acked batch.",
    )
    parser.add_argument("directory", help="store directory (created if absent)")
    parser.add_argument("--shard", default="s0", help="target shard name")
    parser.add_argument(
        "--codec", default="Roaring", help="codec for a newly created shard"
    )
    parser.add_argument(
        "--universe", type=int, default=2**17, help="doc-id domain"
    )
    parser.add_argument("--terms", type=int, default=16, help="term-space size")
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--ops-per-batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20170514)
    parser.add_argument(
        "--compact-every",
        type=int,
        default=0,
        metavar="N",
        help="run a foreground compaction after every N batches (0 = never)",
    )
    parser.add_argument(
        "--sleep-ms",
        type=float,
        default=0.0,
        help="pause between batches — widens the window a crash test "
        "needs to land a SIGKILL mid-stream",
    )
    parser.add_argument(
        "--no-close",
        action="store_true",
        help="exit without close(): skips the final compaction so the "
        "next open exercises WAL replay",
    )
    args = parser.parse_args(argv)

    store = WritablePostingStore.open(args.directory)
    if args.shard not in store.shard_names():
        store.create_shard(args.shard, codec=args.codec, universe=args.universe)
    batches = synthetic_ops(
        args.seed,
        args.batches,
        args.ops_per_batch,
        shard=args.shard,
        n_terms=args.terms,
        domain=args.universe,
    )
    total = 0
    for i, batch in enumerate(batches):
        acked = store.ingest_batch(batch)
        total += acked
        # Printed strictly after ingest_batch returned, i.e. after the
        # WAL fsync: each line is a durability promise the recovery
        # tests hold the store to.
        print(json.dumps({"batch": i, "acked_ops": acked}), flush=True)
        if args.compact_every and (i + 1) % args.compact_every == 0:
            store.compact()
        if args.sleep_ms:
            time.sleep(args.sleep_ms / 1000.0)
    summary = {"done": True, "total_ops": total, **store.write_stats()}
    if not args.no_close:
        store.close()
        summary["generation"] = store.generation
    print(json.dumps(summary), flush=True)
    return 0


def _compact_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store compact",
        description="Replay the WAL, run one foreground compaction, and "
        "print the write-path counters as JSON.",
    )
    parser.add_argument("directory", help="store directory")
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="tolerate corrupt lists / WAL tails instead of failing",
    )
    args = parser.parse_args(argv)

    store = WritablePostingStore.open(args.directory, strict=not args.lenient)
    rewritten = store.compact()
    stats = {"rewritten_terms": rewritten, **store.write_stats()}
    store.close(compact=False)
    print(json.dumps(stats, indent=1))
    return 0


def _migrate_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store migrate",
        description="One-shot in-place migration of a legacy (v1/v2) "
        "store to the v3 memory-mapped segment layout; prints a JSON "
        "summary.  Idempotent on an already-migrated store.",
    )
    parser.add_argument("directory", help="store directory")
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="tolerate corrupt lists instead of failing the migration",
    )
    args = parser.parse_args(argv)

    summary = migrate_store(args.directory, strict=not args.lenient)
    print(json.dumps(summary, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "ingest":
        return _ingest_main(argv[1:])
    if argv and argv[0] == "compact":
        return _compact_main(argv[1:])
    if argv and argv[0] == "migrate":
        return _migrate_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Serve a randomized query batch from a synthetic "
        "sharded posting store and report JSON metrics.",
    )
    parser.add_argument("--shards", type=int, default=2, help="shard count")
    parser.add_argument(
        "--terms-per-shard", type=int, default=24, help="terms per shard"
    )
    parser.add_argument(
        "--codec",
        default="Roaring",
        help="shard codec: any registry name, or 'Adaptive'",
    )
    parser.add_argument(
        "--distribution",
        choices=sorted(_GENERATORS),
        default="uniform",
        help="posting-list distribution (paper Section 5)",
    )
    parser.add_argument(
        "--list-size", type=int, default=2_000, help="mean postings per term"
    )
    parser.add_argument(
        "--domain", type=int, default=2**17, help="document-id domain per shard"
    )
    parser.add_argument("--queries", type=int, default=100, help="batch size")
    parser.add_argument("--workers", type=int, default=4, help="pool width")
    parser.add_argument(
        "--timeout-ms", type=float, default=None, help="per-query deadline"
    )
    parser.add_argument(
        "--cache-entries", type=int, default=256, help="decode cache entries"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="serve without a decode cache"
    )
    parser.add_argument("--seed", type=int, default=20170514)
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print only the metrics snapshot JSON",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the compiled plan of the first query instead of running",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat any non-ok query (partial/timed-out/failed) as a hard "
        f"failure: exit {EXIT_FAILED} instead of the per-status code",
    )
    args = parser.parse_args(argv)

    store = build_store(
        args.shards,
        args.terms_per_shard,
        args.codec,
        args.distribution,
        args.list_size,
        args.domain,
        args.seed,
    )
    cache = None if args.no_cache else DecodeCache(max_entries=args.cache_entries)
    engine = QueryEngine(
        store,
        cache=cache,
        metrics=StoreMetrics(),
        max_workers=args.workers,
        timeout_s=args.timeout_ms / 1000.0 if args.timeout_ms else None,
    )
    queries = sample_queries(args.queries, args.terms_per_shard, args.seed)

    if args.explain:
        json.dump(engine.explain(queries[0]), sys.stdout, indent=1)
        print()
        return 0

    results = engine.execute_batch(queries)
    if args.metrics:
        json.dump(engine.metrics.snapshot(), sys.stdout, indent=1)
        print()
        return batch_exit_code(results, strict=args.strict)
    report = {
        "store": store.stats(),
        "queries": [r.as_dict() for r in results],
        "metrics": engine.metrics.snapshot(),
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return batch_exit_code(results, strict=args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
