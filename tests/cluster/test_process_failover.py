"""Failover across real backend processes: SIGKILL one mid-loop.

Three ``python -m repro.server --store DIR --port 0`` children serve one
saved store; an in-process :class:`ClusterRouter` fronts them at
replication 2.  A sequential query loop runs through the router, and
after a third of it the backend the router currently tries first for
some replica group is SIGKILLed.  Replication 2 means every answer must
stay ``ok`` and bit-identical to an in-process engine on the same store,
with the kill visible in the router's own metrics: failovers happened
and the dead backend's refused exchanges were counted as failures.

The hedging half of the same story (a slow primary beaten by its
replica, hedging off as the control) is pinned in-process by
``test_router.py``.
"""

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.api import connect
from repro.cluster import Backend, ClusterRouter, ShardMap
from repro.server import BackgroundServer
from repro.store import And, Or, QueryEngine

from tests.server.conftest import make_store

_SRC = str(Path(repro.__file__).resolve().parents[1])
_QUERIES = ["a", Or("a", "b"), And(Or("a", "b"), "c"), And("b", "c"), "c"]
_N_QUERIES = 30
_WAIT_S = 30.0


def _spawn_backend(store_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--store", str(store_dir),
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )


def _listening_port(proc: subprocess.Popen) -> int:
    """The bound port, from the child's JSON banner line."""
    ready, _, _ = select.select([proc.stdout], [], [], _WAIT_S)
    line = proc.stdout.readline() if ready else ""
    assert line, f"backend never printed its listening line: rc={proc.poll()}"
    return int(json.loads(line)["listening"].rsplit(":", 1)[1])


def _tried_first(router: ClusterRouter, shardmap: ShardMap) -> str:
    """The backend the router ranks first for one replica group right now:
    ``ClusterRouter._ranked``'s order (no backend has shed, so fastest
    rolling p95 first), which is what a query will dial next."""
    replicas = next(iter(shardmap.groups(shardmap.shards)))
    return min(
        replicas,
        key=lambda bid: router.metrics.backend(bid).p95_ms(router.hedge_cold_ms),
    )


def test_sigkilled_backend_process_fails_over(tmp_path):
    store = make_store(4)
    store.save(tmp_path / "store")
    local = QueryEngine(store)
    procs: list[subprocess.Popen] = []
    try:
        for _ in range(3):
            procs.append(_spawn_backend(tmp_path / "store"))
        ports = [_listening_port(proc) for proc in procs]
        shardmap = ShardMap(
            tuple(
                Backend(backend_id=f"b{i}", host="127.0.0.1", port=port)
                for i, port in enumerate(ports)
            ),
            tuple(sorted(store.shard_names())),
            replication=2,
        )
        router = ClusterRouter(shardmap)
        victim = None
        with BackgroundServer(router) as bg, connect(
            f"http://127.0.0.1:{bg.port}", max_retries=0
        ) as target:
            for i in range(_N_QUERIES):
                if i == _N_QUERIES // 3:
                    victim = _tried_first(router, shardmap)
                    dead = procs[int(victim[1:])]
                    os.kill(dead.pid, signal.SIGKILL)
                    dead.wait(timeout=_WAIT_S)
                query = _QUERIES[i % len(_QUERIES)]
                got = target.query(query)
                want = local.execute(query)
                assert got.status == "ok", (i, query, got.detail)
                assert got.values == [int(v) for v in want.values], (i, query)
        assert router.metrics.failovers >= 1
        assert router.metrics.backend(victim).failures >= 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=_WAIT_S)
            proc.stdout.close()
