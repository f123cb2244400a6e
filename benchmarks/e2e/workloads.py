"""The seven named workloads and the live targets they run against.

The names, shapes and reasons are fixed: later issues cite them
verbatim.  Every target is started at its shipped defaults, because
defaults are what users run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import corpus as C
from targets import Children, build_store, wait_healthy

#: Seeded Poisson arrival rate of ``zipf-mix-server-open``: ≈ 40 % of the
#: 1-client closed-loop capacity measured once on the seed commit
#: (see README, "Closed vs open loop").  Frozen: do not recalibrate.
OPEN_LOOP_RATE_QPS = 141.0
#: Paced writer of ``churn-rw-server``: batches per second.
WRITER_RATE_BPS = 100.0
#: Log entries covered by the traced pass.
TRACED_QUERIES = 300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: C.CorpusSpec
    codec: str
    #: "dir" | "server" | "cluster" | "writable-server"
    target: str
    #: "closed" (1 client) | "open" (Poisson arrivals, 2 connections)
    loop: str
    #: False → ``connect(dir, cache_entries=0)``; True → shipped defaults.
    caches: bool
    make_log: Callable[[int], list[C.QuerySpec]]
    #: Log entries replayed (untimed) before the window.
    warmup: int

    @property
    def wire(self) -> bool:
        """Whether a request crosses HTTP (and so is JSON-encoded)."""
        return self.target != "dir"

    @property
    def connect_options(self) -> dict:
        """``connect(dir, **options)`` for an in-process engine."""
        return {} if self.caches else {"cache_entries": 0}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bitmap-and-dir",
            "Roaring compressed-domain AND + plan + mapped materialise own the time; "
            "serialisation and caches do nothing",
            C.WEB, "Roaring", "dir", "closed", False, C.skewed_and_log, 100,
        ),
        Workload(
            "invlist-and-dir",
            "same inputs as bitmap-and-dir under SIMDBP128*: block decode + array probe; "
            "the paper's bitmap-vs-invlist comparison as a pair",
            C.WEB, "SIMDBP128*", "dir", "closed", False, C.skewed_and_log, 100,
        ),
        Workload(
            "rle-or-dir",
            "BBC run-length decode and union on clustered lists dominate; AND kernels idle",
            C.RUNS, "BBC", "dir", "closed", False, C.rle_or_log, 32,
        ),
        Workload(
            "wide-or-server",
            "32 hot ORs, 16k-42k results: plan-cache hits, so merge, JSON encode, HTTP and "
            "client decode own the time, not the kernel",
            C.WEB, "Roaring", "server", "closed", True, C.wide_or_log, 64,
        ),
        Workload(
            "zipf-mix-server-open",
            "open loop, Poisson arrivals at a frozen rate, working set beyond both caches: "
            "cache hit/evict, admission and queueing; latency from due time",
            C.WEB, "Roaring", "server", "open", True, C.zipf_mix_log, 200,
        ),
        Workload(
            "zipf-mix-cluster",
            "same log through the router over 2 backends, replication 2, hedging on: "
            "scatter, hedge and merge own the delta to the server workloads",
            C.WEB, "Roaring", "cluster", "closed", True, C.zipf_mix_log, 200,
        ),
        Workload(
            "churn-rw-server",
            "skewed ANDs beside a paced writer (100 batches/s) and 0.5 s compaction: WAL "
            "fsync, delta overlays, plan-cache invalidation; SIGKILL durability check",
            C.WEB, "Roaring", "writable-server", "closed", True, C.skewed_and_log, 100,
        ),
    )
}


def to_ast(query: C.QuerySpec):
    from repro.api import And, Or, Term

    if query[0] == "term":
        return Term(query[1])
    children = [to_ast(child) for child in query[1:]]
    return And(*children) if query[0] == "and" else Or(*children)


class LiveTarget:
    """One started target: its store directory, children and addresses."""

    def __init__(self, spec: Workload, corpus: C.Corpus, workdir: str) -> None:
        self.spec = spec
        self.corpus = corpus
        self.children = Children()
        self.store_dir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=workdir)
        self.url: str | None = None  #: what ``connect()`` is pointed at
        self.backends: list = []  #: server processes, ``b0`` first
        self.backend_urls: list[str] = []

    def start(self) -> None:
        """Build the store and bring the target up until it answers."""
        spec = self.spec
        build_store(self.corpus, spec.codec, self.store_dir)
        if spec.target == "dir":
            return
        if spec.target == "writable-server":
            servers = [("repro.server", "--writable", self.store_dir,
                        "--compact-interval-s", "0.5", "--port", "0")]
        else:
            n = 2 if spec.target == "cluster" else 1
            servers = [("repro.server", "--store", self.store_dir, "--port", "0")] * n
        self.backends = [self.children.start(*argv) for argv in servers]
        self.backend_urls = [self.children.listening(p) for p in self.backends]
        for url in self.backend_urls:
            wait_healthy(url)
        self.url = self.backend_urls[0]
        if spec.target == "cluster":
            argv = ["repro.cluster", "--replication", "2", "--port", "0"]
            for url in self.backend_urls:
                argv += ["--backend", url.removeprefix("http://")]
            self.url = self.children.listening(self.children.start(*argv))
            wait_healthy(self.url)

    def connect(self):
        """A fresh ``connect()`` handle (one HTTP connection each)."""
        from repro.api import connect

        if self.spec.target == "dir":
            return connect(self.store_dir, **self.spec.connect_options)
        return connect(self.url)

    def child_pids(self) -> list[int]:
        return self.children.pids()

    def engine_pids(self) -> list[int]:
        """Processes hosting an engine or a router."""
        return self.child_pids() if self.spec.wire else [os.getpid()]

    def close(self) -> None:
        self.children.reap()
        shutil.rmtree(self.store_dir, ignore_errors=True)
