"""Per-layer metrics, measured from outside the program.

Two sources, as the issue fixes them:

* **counted** entries are deltas of the public ``target.metrics()``
  snapshots taken before and after the untraced window (exact with one
  client);
* **timed** entries are medians of span *self time* from a separate
  traced pass: the live ``target.query()`` call under a root span, the
  same entries replayed in-process through the public layer functions
  in the order the engine calls them, and the codec kernels replayed on
  the workload's own operand lists.

A metric a workload never reaches reads 0.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import corpus as C
from spans import Tracer, stage_self_ms, summarize
from stats import median
from targets import build_store

if TYPE_CHECKING:
    from runner import WorkloadRun
    from workloads import Workload

#: Temp stores and trace files; the only place a run writes.
OUT_DIR = Path(__file__).resolve().parent / "out"

NAMES = (
    "api.connect_ms",
    "store.mapped.open_ms",
    "store.mapped.materialize_us_per_term",
    "store.plan.parse_ms",
    "store.plan.compile_ms",
    "store.plan.execute_ms",
    "store.plan.compressed_ops_per_query",
    "store.plan.decoded_ops_per_query",
    "store.engine.merge_ms",
    "store.engine.self_ms",
    "bitmaps.intersect_ms",
    "bitmaps.union_ms",
    "bitmaps.decode_ns_per_int",
    "bitmaps.compress_ns_per_int",
    "bitmaps.bits_per_int",
    "invlists.intersect_ms",
    "invlists.decode_ns_per_int",
    "invlists.compress_ns_per_int",
    "invlists.bits_per_int",
    "core.decode.ints_per_query",
    "core.decode.busy_share",
    "store.cache.decode_hit_rate",
    "store.cache.decode_evictions",
    "store.cache.plan_hit_rate",
    "store.cache.plan_evictions",
    "store.cache.coalesced",
    "server.protocol.request_ms",
    "server.protocol.to_response_ms",
    "server.protocol.encode_ms",
    "server.protocol.bytes_per_response",
    "server.client.decode_ms",
    "server.app.overhead_ms",
    "server.app.requests",
    "server.app.shed_share",
    "cluster.router.overhead_ms",
    "cluster.router.fanout_per_query",
    "cluster.router.hedged_share",
    "cluster.router.hedge_wins",
    "cluster.router.failovers",
    "store.wal.append_sync_ms",
    "store.wal.syncs_per_batch",
    "store.wal.bytes_per_user_byte",
    "store.segments.ingest_batch_ms",
    "store.segments.compact_ms",
    "store.segments.compactions",
    "store.segments.pending_ops_end",
    "store.wal.replay_ms",
    "loadgen.lag_p99_ms",
    "loadgen.achieved_rate_qps",
    "trace.overhead_share",
    "trace.spans",
    # Not layers, but only one workload has them, so they cannot be
    # end-to-end entries of BENCHMARK.json (every entry there must be
    # non-zero on every workload); 0 on read-only workloads.
    "ingest_p50_ms",
    "ingest_p99_ms",
    # The stage table's denominator and what it could not attribute.
    "trace.request_p50_ms",
    "trace.unattributed_ms",
)

UNITS = {name: "ms" for name in NAMES if name.endswith("_ms")}
UNITS.update(
    {name: "ns" for name in NAMES if name.endswith("_ns_per_int")}
    | {name: "bit" for name in NAMES if name.endswith("bits_per_int")}
    | {name: "ratio" for name in NAMES if name.endswith(("_share", "_rate"))}
    | {
        "store.mapped.materialize_us_per_term": "us",
        "store.plan.compressed_ops_per_query": "count",
        "store.plan.decoded_ops_per_query": "count",
        "core.decode.ints_per_query": "count",
        "store.cache.decode_evictions": "count",
        "store.cache.plan_evictions": "count",
        "store.cache.coalesced": "count",
        "server.protocol.bytes_per_response": "B",
        "server.app.requests": "count",
        "cluster.router.fanout_per_query": "count",
        "cluster.router.hedge_wins": "count",
        "cluster.router.failovers": "count",
        "store.wal.syncs_per_batch": "count",
        "store.wal.bytes_per_user_byte": "ratio",
        "store.segments.compactions": "count",
        "store.segments.pending_ops_end": "count",
        "loadgen.achieved_rate_qps": "1/s",
        "trace.spans": "count",
    }
)

#: Span name → the per-layer metric its median self time fills.
STAGES = {
    "server.protocol.request": "server.protocol.request_ms",
    "store.plan.parse": "store.plan.parse_ms",
    "store.plan.compile": "store.plan.compile_ms",
    "store.plan.execute": "store.plan.execute_ms",
    "store.engine.merge": "store.engine.merge_ms",
    "store.engine": "store.engine.self_ms",
    "server.protocol.to_response": "server.protocol.to_response_ms",
    "server.protocol.encode": "server.protocol.encode_ms",
    "server.client.decode": "server.client.decode_ms",
}
#: Stages only a request that crosses HTTP pays.
_WIRE_STAGES = ("server.protocol.request", "server.protocol.encode", "server.client.decode")


# ----------------------------------------------------------------------
# Counted: public metrics snapshots around the untraced window
# ----------------------------------------------------------------------
def snapshot(live, handle) -> dict[str, float]:
    """Flatten the target's public metrics into the counters we difference."""
    from repro.api import connect

    router = None
    if live.spec.target == "cluster":
        router = handle.metrics()
        stores = []
        for url in live.backend_urls:
            with connect(url) as backend:
                stores.append(backend.metrics())
    else:
        stores = [handle.metrics()]
    out: dict[str, float] = dict.fromkeys(
        ("queries", "engine_ms", "decode_hits", "decode_misses", "decode_evictions",
         "plan_hits", "plan_misses", "plan_evictions", "coalesced", "compressed_ops",
         "decoded_ops", "decoded_ints", "decode_s", "responses", "offered", "shed",
         "compactions", "pending_ops", "router_queries", "fanout", "hedged", "hedge_wins",
         "failovers"),
        0.0,
    )
    for snap in stores:
        out["queries"] += snap["queries"]["total"]
        out["engine_ms"] += snap["latency"]["mean_ms"] * snap["latency"]["count"]
        for prefix, key in (("decode", "cache"), ("plan", "plan_cache")):
            cache = snap.get(key) or {}
            out[f"{prefix}_hits"] += cache.get("hits", 0)
            out[f"{prefix}_misses"] += cache.get("misses", 0)
            out[f"{prefix}_evictions"] += cache.get("evictions", 0)
            out["coalesced"] += cache.get("coalesced", 0)
        out["compressed_ops"] += snap["exec_ops"]["compressed"]
        out["decoded_ops"] += snap["exec_ops"]["decoded"]
        for stats in snap["decodes_by_codec"].values():
            out["decoded_ints"] += stats["integers"]
            out["decode_s"] += stats["seconds"]
        server = snap.get("server")
        if server:
            out["responses"] += sum(server["responses"].values())
            out["offered"] += server["admission"]["offered"]
            out["shed"] += server["admission"]["shed"]
        write_path = snap.get("write_path")
        if write_path:
            out["compactions"] += write_path["compactions"]
            out["pending_ops"] += write_path["pending_ops"]
    if router:
        out["router_queries"] = sum(router["queries"].values())
        out["fanout"] = router["fanout"]["requests"]
        out["hedged"] = router["fanout"]["hedged"]
        out["hedge_wins"] = router["fanout"]["hedge_wins"]
        out["failovers"] = router["fanout"]["failovers"]
    return out


def _ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def _ms(span: dict) -> float:
    return _ns(span) / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(before: dict, after: dict, n_queries: int) -> dict[str, float]:
    d = {key: after[key] - before[key] for key in after}
    return {
        "store.plan.compressed_ops_per_query": _ratio(d["compressed_ops"], n_queries),
        "store.plan.decoded_ops_per_query": _ratio(d["decoded_ops"], n_queries),
        "core.decode.ints_per_query": _ratio(d["decoded_ints"], n_queries),
        "core.decode.busy_share": _ratio(d["decode_s"] * 1000.0, d["engine_ms"]),
        "store.cache.decode_hit_rate": _ratio(d["decode_hits"], d["decode_hits"] + d["decode_misses"]),
        "store.cache.decode_evictions": d["decode_evictions"],
        "store.cache.plan_hit_rate": _ratio(d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "store.cache.plan_evictions": d["plan_evictions"],
        "store.cache.coalesced": d["coalesced"],
        "server.app.requests": d["responses"],
        "server.app.shed_share": _ratio(d["shed"], d["offered"]),
        "cluster.router.fanout_per_query": _ratio(d["fanout"], d["router_queries"]),
        "cluster.router.hedged_share": _ratio(d["hedged"], d["fanout"]),
        "cluster.router.hedge_wins": d["hedge_wins"],
        "cluster.router.failovers": d["failovers"],
        "store.segments.compactions": d["compactions"],
        "store.segments.pending_ops_end": after["pending_ops"],
    }


# ----------------------------------------------------------------------
# Timed: the in-process replay through the public layer functions
# ----------------------------------------------------------------------
class Replay:
    """The engine's scatter loop, rebuilt from its public parts.

    ``query_traced`` makes the calls :meth:`QueryEngine.execute` makes,
    in its order, with a span around each; ``query_plain`` is the
    program's own path on an identically prepared engine, so the gap
    between the two is the tracing overhead (and a check that the
    replica does the same work).
    """

    def __init__(self, directory: str, spec: "Workload", *, writable: bool) -> None:
        from repro.api import connect

        options = dict(spec.connect_options, writable=True) if writable else spec.connect_options
        self.target = connect(directory, **options)
        self.engine = self.target.engine
        self.wire = spec.wire

    def close(self) -> None:
        self.target.close()

    def query_plain(self, ast) -> None:
        from repro.server.protocol import QueryRequest, QueryResponse

        if self.wire:
            body = json.dumps(QueryRequest(query=ast).to_body()).encode("utf-8")
            ast = QueryRequest.from_body(json.loads(body.decode("utf-8"))).to_query().expression
        resp = self.target.query(ast)
        if self.wire:
            payload = json.dumps(resp.to_body()).encode("utf-8")
            QueryResponse.from_body(json.loads(payload.decode("utf-8")))

    def query_traced(self, tracer: Tracer, ast, index: int) -> None:
        from repro.core.base import union_sorted_arrays
        from repro.server.protocol import QueryRequest, QueryResponse, response_from_result
        from repro.store import (
            ExecStats,
            QueryResult,
            canonical_key,
            canonicalize,
            compile_shard_plan,
            parse_query,
        )

        engine = self.engine
        store, cache, plan_cache = engine.store, engine.cache, engine.plan_cache
        with tracer.span("replay", index=index):
            if self.wire:
                with tracer.span("server.protocol.request"):
                    body = json.dumps(QueryRequest(query=ast).to_body()).encode("utf-8")
                    request = QueryRequest.from_body(json.loads(body.decode("utf-8")))
                    ast = request.to_query().expression
            with tracer.span("store.engine") as engine_span:
                t0 = time.perf_counter()
                with tracer.span("store.plan.parse"):
                    node = parse_query(ast)
                    ckey = canonical_key(canonicalize(node))
                version = store.read_version() if plan_cache is not None else None
                stats = ExecStats()
                gathered = None
                hits = 0
                for shard in store.shard_names():
                    arr = plan_cache.get((ckey, shard, version)) if plan_cache is not None else None
                    if arr is not None:
                        hits += 1
                    else:
                        with tracer.span("store.plan.compile", shard=shard):
                            plan = compile_shard_plan(
                                store, shard, node, cache=cache, observer=engine.metrics
                            )
                        with tracer.span("store.plan.execute", shard=shard) as span:
                            arr = plan.execute(cache=cache, observer=engine.metrics, stats=stats)
                            span["attrs"]["results"] = int(arr.size)
                        if plan_cache is not None and not plan.degraded_terms:
                            plan_cache.put((ckey, shard, version), arr)
                    if gathered is None:
                        gathered = arr
                    else:
                        with tracer.span("store.engine.merge", shard=shard):
                            gathered = union_sorted_arrays(gathered, arr)
                result = QueryResult(
                    query_id="",
                    values=gathered,
                    latency_ms=(time.perf_counter() - t0) * 1000.0,
                    shards_queried=len(store.shard_names()),
                    compressed_ops=stats.compressed_ops,
                    decoded_ops=stats.decoded_ops,
                )
                engine_span["attrs"].update(
                    results=int(gathered.size),
                    plan_cache_hits=hits,
                    compressed_ops=stats.compressed_ops,
                    decoded_ops=stats.decoded_ops,
                )
            with tracer.span("server.protocol.to_response"):
                resp = response_from_result(result)
            if self.wire:
                with tracer.span("server.protocol.encode") as span:
                    payload = json.dumps(resp.to_body()).encode("utf-8")
                    span["attrs"]["bytes"] = len(payload)
                with tracer.span("server.client.decode"):
                    QueryResponse.from_body(json.loads(payload.decode("utf-8")))


def _replay_pass(run: "WorkloadRun", tracer: Tracer | None, directory: str) -> list[float]:
    """Replay the traced entries in-process; returns per-query wall ms.

    For the churn workload the replay ingests one of the workload's own
    batches before every read and compacts every 50 reads, so reads meet
    delta overlays and a moving ``read_version`` as they do live.
    """
    spec, churn = run.spec, run.churn
    replay = Replay(directory, spec, writable=churn)
    batches = C.churn_batches(run.seed, run.corpus, run.traced_queries) if churn else []
    span = tracer.span if tracer is not None else (lambda name, **attrs: nullcontext())
    walls = []
    try:
        # A target that has served a window has touched every term; the
        # replay must not charge first-touch materialisation to compile.
        store = replay.engine.store
        for shard in store.shard_names():
            for term in run.corpus.terms:
                store.get(shard, term)
        for i in range(spec.warmup):
            replay.query_plain(run.asts[i % len(run.asts)])
        for i in range(run.traced_queries):
            ast = run.asts[(spec.warmup + i) % len(run.asts)]
            if churn:
                with span("store.segments.ingest_batch", index=i):
                    store.ingest_batch(batches[i].ops)
                if i % 50 == 49:
                    with span("store.segments.compact", index=i):
                        store.compact()
            t0 = time.perf_counter()
            if tracer is None:
                replay.query_plain(ast)
            else:
                replay.query_traced(tracer, ast, i)
            walls.append((time.perf_counter() - t0) * 1000.0)
    finally:
        replay.close()
    return walls


# ----------------------------------------------------------------------
# Timed: codec kernels on the workload's own operand lists
# ----------------------------------------------------------------------
def kernel_metrics(run: "WorkloadRun", tracer: Tracer, per_layer: dict, n_queries: int = 40) -> None:
    """The paper's four axes through ``api.compress/decompress/intersect/union``."""
    from repro import api

    codec = run.spec.codec
    family = api.get_codec(codec).__class__.__module__.split(".")[1]  # bitmaps | invlists
    shard = run.corpus.shards[0]
    intersect, union, decode_ns, compress_ns, bits = [], [], [], [], []
    for i in range(min(n_queries, run.traced_queries)):
        query = run.log[(run.spec.warmup + i) % len(run.log)]
        children = [query] if query[0] == "term" else query[1:]
        terms = [child[1] for child in children if child[0] == "term"]
        flat = len(terms) == len(children)  # nested shapes get no kernel call
        sets = []
        for term in terms:
            values = run.corpus.lists[(shard, term)]
            with tracer.span(f"{family}.compress", term=term, n=int(values.size)) as span:
                cs = api.compress(values, codec=codec, universe=C.UNIVERSE)
            compress_ns.append(_ns(span) / values.size)
            with tracer.span(f"{family}.decode", term=term, n=int(values.size)) as span:
                api.decompress(cs)
            decode_ns.append(_ns(span) / values.size)
            bits.append(8.0 * cs.size_bytes / values.size)
            sets.append(cs)
        if flat and query[0] == "and":
            with tracer.span(f"{family}.intersect", operands=len(sets)) as span:
                api.intersect(*sets)
            intersect.append(_ms(span))
        elif flat and query[0] == "or":
            with tracer.span(f"{family}.union", operands=len(sets)) as span:
                api.union(*sets)
            union.append(_ms(span))
    per_layer[f"{family}.decode_ns_per_int"] = median(decode_ns)
    per_layer[f"{family}.compress_ns_per_int"] = median(compress_ns)
    per_layer[f"{family}.bits_per_int"] = median(bits)
    if intersect:
        per_layer[f"{family}.intersect_ms"] = median(intersect)
    if union and family == "bitmaps":
        per_layer["bitmaps.union_ms"] = median(union)


def open_metrics(run: "WorkloadRun", directory: str, per_layer: dict, reps: int = 5) -> None:
    """``connect()``, ``PostingStore.load`` and first-touch materialise."""
    from repro.api import connect
    from repro.store import PostingStore

    connects, opens = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        target = connect(directory, **run.spec.connect_options)
        connects.append((time.perf_counter() - t0) * 1000.0)
        target.close()
        t0 = time.perf_counter()
        store = PostingStore.load(directory)
        opens.append((time.perf_counter() - t0) * 1000.0)
    touches = []
    for shard in run.corpus.shards:
        for term in run.corpus.terms[:32]:
            t0 = time.perf_counter()
            store.get(shard, term)
            touches.append((time.perf_counter() - t0) * 1e6)
    per_layer["api.connect_ms"] = median(connects)
    per_layer["store.mapped.open_ms"] = median(opens)
    per_layer["store.mapped.materialize_us_per_term"] = median(touches)


def write_path_metrics(run: "WorkloadRun", tracer: Tracer, per_layer: dict) -> None:
    """WAL append+sync of the workload's batches on a scratch log."""
    from repro.store import WriteAheadLog

    batches = C.churn_batches(run.seed, run.corpus, 200)
    scratch = tempfile.mkdtemp(prefix="wal-", dir=str(OUT_DIR))
    wal = WriteAheadLog(f"{scratch}/scratch.log")
    try:
        times, user_bytes = [], 0
        for i, batch in enumerate(batches):
            with tracer.span("store.wal.append_sync", index=i) as span:
                for kind, shard, term, values in batch.ops:
                    wal.append({"op": kind, "shard": shard, "term": term, "values": list(values)})
                wal.sync()
            times.append(_ms(span))
            user_bytes += 8 * sum(len(op[3]) for op in batch.ops)
        per_layer["store.wal.append_sync_ms"] = median(times)
        per_layer["store.wal.syncs_per_batch"] = wal.syncs / len(batches)
        per_layer["store.wal.bytes_per_user_byte"] = wal.size_bytes() / user_bytes
    finally:
        wal.close()
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
@contextmanager
def _replay_dirs(run: "WorkloadRun") -> Iterator[tuple[str, str]]:
    """Store directories for the plain and the traced replay.

    Read-only workloads replay on the live directory.  The churn replay
    writes, and the live directory belongs to the live server, so it
    gets two freshly built copies.
    """
    live = run.live
    assert live is not None
    if not run.churn:
        yield live.store_dir, live.store_dir
        return
    copies = [tempfile.mkdtemp(prefix="replay-", dir=str(OUT_DIR)) for _ in range(2)]
    try:
        for copy in copies:
            build_store(run.corpus, run.spec.codec, copy)
        yield copies[0], copies[1]
    finally:
        for copy in copies:
            shutil.rmtree(copy, ignore_errors=True)


def traced_pass(run: "WorkloadRun", per_layer: dict, detail: dict) -> Tracer:
    """The separate traced run; fills *per_layer* and the stage table."""
    spec, live = run.spec, run.live
    assert live is not None
    tracer = Tracer(spec.name)

    # (a) the live request under a root span; on the cluster also the
    # same entries sent straight to backend b0.
    run.live_pass(tracer, "request")
    requests = [s for s in tracer.spans if s["name"] == "request"]
    request_p50 = median([_ms(s) for s in requests])
    served = requests
    if spec.target == "cluster":
        run.live_pass(tracer, "request.direct", url=live.backend_urls[0])
        served = [s for s in tracer.spans if s["name"] == "request.direct"]
    served_p50 = median([_ms(s) for s in served])
    #: Client wall minus the engine latency the serving process reports.
    outside_engine = median([_ms(s) - s["attrs"]["engine_ms"] for s in served])

    # (b) the same entries replayed in-process, plain then traced, each
    # on its own freshly opened engine so both see the same cache history.
    with _replay_dirs(run) as (plain_dir, traced_dir):
        open_metrics(run, plain_dir, per_layer)
        plain = _replay_pass(run, None, plain_dir)
        traced = _replay_pass(run, tracer, traced_dir)
    if run.churn:
        write_path_metrics(run, tracer, per_layer)
    kernel_metrics(run, tracer, per_layer)

    stages = stage_self_ms(tracer.spans, "replay")
    table = []

    def row(metric: str, p50: float, **rest) -> None:
        per_layer[metric] = p50
        table.append({"stage": metric, "p50_ms": p50, "tail_q": None, "tail_ms": None,
                      "samples": len(requests), **rest,
                      "share_of_request_p50": p50 / request_p50})

    for span_name, metric in STAGES.items():
        if spec.wire or span_name not in _WIRE_STAGES:
            summary = summarize(stages.get(span_name) or [0.0] * len(traced))
            row(metric, summary.pop("p50_ms"), **summary)
    if spec.wire:
        # What the live exchange costs beyond the engine and the
        # serialisation steps: HTTP framing, event loop, executor
        # hand-off, admission.  A difference of medians, so noise can
        # push it below zero on tiny responses.
        serialisation = sum(
            per_layer[m] for m in ("server.protocol.request_ms", "server.protocol.to_response_ms",
                                   "server.protocol.encode_ms", "server.client.decode_ms")
        )
        row("server.app.overhead_ms", outside_engine - serialisation)
    if spec.target == "cluster":
        row("cluster.router.overhead_ms", request_p50 - served_p50)
    attributed = sum(r["p50_ms"] for r in table)

    sizes = [s["attrs"]["bytes"] for s in tracer.spans if s["name"] == "server.protocol.encode"]
    if sizes:
        per_layer["server.protocol.bytes_per_response"] = sum(sizes) / len(sizes)
    for span_name in ("store.segments.ingest_batch", "store.segments.compact"):
        durations = [_ms(s) for s in tracer.spans if s["name"] == span_name]
        if durations:
            per_layer[f"{span_name}_ms"] = median(durations)
    per_layer["trace.request_p50_ms"] = request_p50
    per_layer["trace.unattributed_ms"] = request_p50 - attributed
    per_layer["trace.overhead_share"] = (median(traced) - median(plain)) / median(plain)
    per_layer["trace.spans"] = len(tracer.spans)
    detail["stage_table"] = {
        "request": summarize([_ms(s) for s in requests]),
        "stages": table,
        "unattributed_ms": request_p50 - attributed,
        "unattributed_share": (request_p50 - attributed) / request_p50,
        "replay_plain_p50_ms": median(plain),
        "replay_traced_p50_ms": median(traced),
    }
    return tracer
