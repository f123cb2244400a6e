"""Run the cluster router: ``python -m repro.cluster``.

Point it at running backends (``python -m repro.server`` processes);
it discovers each backend's shards from ``GET /healthz``, builds the
consistent-hash shard map at the requested replication factor, and
serves the scatter-gather front-end::

    python -m repro.server --store /data/a --port 7001 &
    python -m repro.server --store /data/b --port 7002 &
    python -m repro.server --store /data/c --port 7003 &
    python -m repro.cluster --backend 127.0.0.1:7001 \\
        --backend 127.0.0.1:7002 --backend 127.0.0.1:7003 \\
        --replication 2 --port 8080

Backends should hold identical stores when ``--replication > 1`` (the
replica of a shard is served from whichever backend the ring places it
on).  Like the server CLI, ``--port 0`` picks a free port and the
chosen address is printed as a JSON line on stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.errors import ShardMapError
from repro.cluster.router import ClusterRouter
from repro.cluster.shardmap import Backend, ShardMap
from repro.server.client import StoreClient
from repro.server.http import run_until_interrupted


def _parse_backend(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(  # repro: noqa[REPRO108] -- argparse contract: this class renders as a usage error
            f"expected HOST:PORT (e.g. 127.0.0.1:7001), got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(  # repro: noqa[REPRO108] -- argparse contract: this class renders as a usage error
            f"bad port in {text!r}"
        ) from None


def discover_shards(backends: list[tuple[str, int]]) -> tuple[str, ...]:
    """Union of shard names reported by every backend's /healthz."""
    names: dict[str, None] = {}
    for host, port in backends:
        with StoreClient(host, port) as probe:
            health = probe.healthz()
        for name in health.get("shard_names", ()):
            names.setdefault(name, None)
    if not names:
        raise ShardMapError("no backend reported any shards")
    return tuple(sorted(names))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Scatter-gather router over repro.server backends.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (printed)"
    )
    parser.add_argument(
        "--backend",
        type=_parse_backend,
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="one backend server (repeatable)",
    )
    parser.add_argument(
        "--replication", type=int, default=1, help="replicas per shard"
    )
    parser.add_argument(
        "--timeout-s", type=float, default=10.0, help="per-backend timeout"
    )
    parser.add_argument(
        "--no-hedge", action="store_true", help="disable hedged reads"
    )
    parser.add_argument(
        "--hedge-min-ms", type=float, default=None,
        help="hedge-delay floor (default: router built-in)",
    )
    parser.add_argument(
        "--hedge-max-ms", type=float, default=None,
        help="hedge-delay ceiling (default: router built-in)",
    )
    args = parser.parse_args(argv)

    backends = tuple(
        Backend(backend_id=f"b{i}", host=host, port=port)
        for i, (host, port) in enumerate(args.backend)
    )
    try:
        shards = discover_shards(args.backend)
        shardmap = ShardMap(
            backends, shards, replication=args.replication
        )
    except ShardMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    extra: dict = {}
    if args.hedge_min_ms is not None:
        extra["hedge_min_ms"] = args.hedge_min_ms
    if args.hedge_max_ms is not None:
        extra["hedge_max_ms"] = args.hedge_max_ms
    router = ClusterRouter(
        shardmap,
        host=args.host,
        port=args.port,
        timeout_s=args.timeout_s,
        hedge=not args.no_hedge,
        **extra,
    )

    run_until_interrupted(
        router,
        {
            "backends": len(backends),
            "shards": len(shards),
            "replication": args.replication,
            "shardmap_version": shardmap.version,
            "hedge": not args.no_hedge,
        },
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
