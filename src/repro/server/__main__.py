"""Run the posting-store HTTP server: ``python -m repro.server``.

Serves either a store saved with :meth:`PostingStore.save` (``--store``)
or, by default, the same synthetic sharded store the store CLI builds —
handy for demos, the CI smoke job, and load tests.

Examples::

    python -m repro.server --port 8080
    python -m repro.server --store /data/index --lenient --timeout-ms 100
    python -m repro.server --writable /data/index   # enables POST /ingest
    python -m repro.server --slow-shard shard01:250 --queue-depth 8

``--slow-shard NAME:MS`` injects a per-shard delay (the engine's
fault-injection hook) so deadline and shedding behaviour can be
exercised against a live server without a pathological dataset.
"""

from __future__ import annotations

import argparse
import sys

from repro.server.app import DEFAULT_MAX_PENDING, DEFAULT_WORKERS, StoreServer
from repro.server.http import run_until_interrupted
from repro.store.__main__ import build_store
from repro.store.cache import DecodeCache
from repro.store.engine import QueryEngine
from repro.store.segments import WritablePostingStore
from repro.store.store import PostingStore


def _parse_slow_shard(text: str) -> tuple[str, float]:
    name, sep, ms = text.partition(":")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME:MS (e.g. shard01:250), got {text!r}"
        )
    try:
        delay_ms = float(ms)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad delay in {text!r}") from None
    if delay_ms < 0:
        raise argparse.ArgumentTypeError(f"delay must be >= 0 in {text!r}")
    return name, delay_ms / 1000.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a posting store over JSON-over-HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (printed)"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="directory saved by PostingStore.save(); default: synthetic store",
    )
    parser.add_argument(
        "--writable",
        default=None,
        metavar="DIR",
        help="open DIR as a writable store (WAL recovery + POST /ingest); "
        "created if absent; mutually exclusive with --store",
    )
    parser.add_argument(
        "--compact-interval-s",
        type=float,
        default=0.5,
        help="background compaction period for --writable (0 disables)",
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="load the store leniently (skip corrupt lists, serve degraded)",
    )
    # Synthetic-store knobs (ignored with --store).
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--terms-per-shard", type=int, default=24)
    parser.add_argument("--codec", default="Roaring")
    parser.add_argument("--list-size", type=int, default=2_000)
    parser.add_argument("--domain", type=int, default=2**17)
    parser.add_argument("--seed", type=int, default=20170514)
    # Serving knobs.
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS, help="query worker threads"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=DEFAULT_MAX_PENDING,
        help="admission bound: pending requests beyond this are shed with 503",
    )
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="default per-query deadline when the client sends no header",
    )
    parser.add_argument(
        "--max-deadline-ms",
        type=float,
        default=60_000.0,
        help="cap on client-requested deadlines",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=256, help="decode cache entries"
    )
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--slow-shard",
        type=_parse_slow_shard,
        action="append",
        default=[],
        metavar="NAME:MS",
        help="inject a delay before evaluating this shard (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.store is not None and args.writable is not None:
        parser.error("--store and --writable are mutually exclusive")
    writable_store = None
    if args.writable is not None:
        writable_store = WritablePostingStore.open(
            args.writable, strict=not args.lenient
        )
        if args.compact_interval_s > 0:
            writable_store.start_compactor(args.compact_interval_s)
        store = writable_store
    elif args.store is not None:
        store = PostingStore.load(args.store, strict=not args.lenient)
    else:
        store = build_store(
            args.shards,
            args.terms_per_shard,
            args.codec,
            "uniform",
            args.list_size,
            args.domain,
            args.seed,
        )
    cache = None if args.no_cache else DecodeCache(max_entries=args.cache_entries)
    engine = QueryEngine(
        store,
        cache=cache,
        shard_delays=dict(args.slow_shard) or None,
    )
    server = StoreServer(
        engine,
        host=args.host,
        port=args.port,
        max_pending=args.queue_depth,
        workers=args.workers,
        default_deadline_ms=args.timeout_ms,
        max_deadline_ms=args.max_deadline_ms,
    )

    try:
        run_until_interrupted(
            server,
            {
                "shards": len(store),
                "workers": args.workers,
                "queue_depth": args.queue_depth,
                "writable": writable_store is not None,
            },
        )
    finally:
        if writable_store is not None:
            writable_store.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
