"""Shared cluster fixtures: identical in-process backends + a router.

Replication places the same shard on several backends, so every
backend serves an identical copy of the store (the deterministic
``make_store`` from the server suite).  Backends and the router all
run as :class:`BackgroundServer` threads on loopback — killing a
backend is just ``bg.stop()``.
"""

import time
from types import SimpleNamespace

import pytest

from repro.cluster import Backend, ClusterRouter, ShardMap
from repro.server import BackgroundServer, StoreServer
from repro.store import QueryEngine

from tests.server.conftest import make_store


def wait_until(predicate, timeout_s=8.0, interval_s=0.02):
    """Poll *predicate* until it holds or *timeout_s* passes; its last value."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def cluster_factory():
    """Start N identical backends + a router; everything stops on teardown.

    Returns a namespace with ``port`` (router), ``router``, ``shardmap``,
    ``backend_bgs`` (stop one to kill it), and ``engines``.
    """
    started: list[BackgroundServer] = []

    def start(
        n_backends: int = 3,
        replication: int = 2,
        n_shards: int = 4,
        engines: list[QueryEngine] | None = None,
        server_kwargs: dict | None = None,
        **router_kwargs,
    ) -> SimpleNamespace:
        if engines is None:
            engines = [
                QueryEngine(make_store(n_shards)) for _ in range(n_backends)
            ]
        backend_bgs = [
            BackgroundServer(
                StoreServer(engine, **(server_kwargs or {}))
            ).start()
            for engine in engines
        ]
        started.extend(backend_bgs)
        backends = tuple(
            Backend(backend_id=f"b{i}", host="127.0.0.1", port=bg.port)
            for i, bg in enumerate(backend_bgs)
        )
        shards = tuple(sorted(engines[0].store.shard_names()))
        shardmap = ShardMap(backends, shards, replication=replication)
        router = ClusterRouter(shardmap, **router_kwargs)
        router_bg = BackgroundServer(router).start()
        started.append(router_bg)
        return SimpleNamespace(
            port=router_bg.port,
            router=router,
            router_bg=router_bg,
            shardmap=shardmap,
            backend_bgs=backend_bgs,
            engines=engines,
        )

    yield start
    for bg in reversed(started):
        bg.stop()
