"""Run one workload: set-up, untraced measured window, oracle, teardown.

End-to-end numbers come from the untraced window only.  The per-layer
numbers (``layers.py``) come from counter snapshots around that same
window and from a separate traced pass afterwards.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from dataclasses import dataclass, field

import corpus as C
import layers
from layers import OUT_DIR
from loadgen import (
    DueTimeRunner,
    Samples,
    closed_loop,
    backlog_grows,
    paced_schedule,
    poisson_schedule,
)
from oracle import Oracle, fingerprint
from spans import Tracer
from stats import TooFewSamples, median, percentile, sliced_percentile
from targets import cpu_seconds, dir_bytes, peak_rss_mb
from workloads import (
    OPEN_LOOP_RATE_QPS,
    WRITER_RATE_BPS,
    LiveTarget,
    Workload,
    to_ast,
)

#: Generator lag beyond this marks a paced run invalid, not slow.
LAG_LIMIT_MS = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "throughput_qps": "1/s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MB",
    "stored_bytes_per_posting": "B",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "failed_share": "ratio",
}


@dataclass
class Tally:
    """Operations attempted and failed, and the CPU spent checking them."""

    attempted: int = 0
    failed: int = 0
    failed_queries: int = 0
    verify_cpu_s: float = 0.0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, ok: bool, reason: str, *, query: bool = False, verify_cpu_s: float = 0.0) -> None:
        with self._lock:
            self.attempted += 1
            self.verify_cpu_s += verify_cpu_s
            if not ok:
                self.failed += 1
                self.failed_queries += query
                if len(self.reasons) < 5:
                    self.reasons.append(reason)


@dataclass
class Outcome:
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    detail: dict


def _tail(samples: list[float], what: str, detail: dict, at_s: list[float] | None = None) -> float:
    """p99 — with *at_s*, the median of the p99s of the window's one-second
    slices, the whole window's going to ``detail`` — or, flagged, never
    silently, the maximum when the window gave too few samples to support
    one (reads as worse, never better)."""
    detail.setdefault("samples", {})[what] = len(samples)
    try:
        whole = percentile(samples, 99)
        if at_s is None:
            return whole
        detail.setdefault("whole_window", {})[what] = whole
        return sliced_percentile(samples, at_s, 99)
    except TooFewSamples as exc:
        detail.setdefault("warnings", []).append(f"{what}: {exc}; reporting the maximum")
        print(f"warning: {what}: {exc}; reporting the maximum", file=sys.stderr)
        return max(samples)


class WorkloadRun:
    def __init__(self, spec: Workload, seed: int, seconds: float, traced_queries: int) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.traced_queries = traced_queries
        self.corpus = C.build_corpus(spec.corpus, seed)
        self.log = spec.make_log(seed)
        self.asts = [to_ast(q) for q in self.log]
        self.oracle = Oracle(self.corpus)
        if not self.churn:  # churn answers move; they are checked per read
            for query in self.log:
                self.oracle.expected(query)
        self.tally = Tally()
        self.live: LiveTarget | None = None
        self.handles: list = []
        #: Churn only: the writer's batches, drawn in order across phases,
        #: and the op position through which every batch is acked.
        self._batches = iter(())
        self._acked = 0
        OUT_DIR.mkdir(exist_ok=True)

    # ------------------------------------------------------------------
    # Set-up / teardown
    # ------------------------------------------------------------------
    @property
    def churn(self) -> bool:
        return self.spec.target == "writable-server"

    def setup_once(self) -> float:
        """Build, start, connect and warm up; returns the seconds it took."""
        t0 = time.perf_counter()
        self.live = LiveTarget(self.spec, self.corpus, str(OUT_DIR))
        self.live.start()
        n_handles = 2 if self.spec.loop == "open" or self.churn else 1
        self.handles = [self.live.connect() for _ in range(n_handles)]
        for i in range(self.spec.warmup):
            self.handles[0].query(self.asts[i % len(self.asts)])
        return time.perf_counter() - t0

    def _close_handles(self) -> None:
        for handle in self.handles:
            try:
                handle.close()
            except Exception:  # noqa: BLE001 - teardown must reach the children
                pass
        self.handles = []

    def teardown(self) -> None:
        self._close_handles()
        if self.live is not None:
            self.live.close()
            self.live = None

    # ------------------------------------------------------------------
    # Sends (each returns the seconds it spent checking the answer)
    # ------------------------------------------------------------------
    def _read_send(self, handle, offset: int, tracer: Tracer | None = None, name: str = ""):
        """``send(i)``: query log entry ``offset + i`` and check the answer.

        With a *tracer* the ``query()`` call — and nothing else — sits
        under a root span.  On the churn workload the answer may be any
        state between the ops acked at send and the ops sent at receive.
        """
        log, asts, oracle, tally, churn = self.log, self.asts, self.oracle, self.tally, self.churn

        def send(i: int) -> float:
            q = (offset + i) % len(log)
            lo = self._acked
            try:
                if tracer is None:
                    resp = handle.query(asts[q])
                else:
                    with tracer.span(name, index=q) as span:
                        resp = handle.query(asts[q])
                    span["attrs"].update(engine_ms=resp.latency_ms, results=resp.n_results)
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                tally.record(False, f"query {q}: {type(exc).__name__}: {exc}", query=True)
                return 0.0
            hi = oracle.position
            t0, c0 = time.perf_counter(), time.thread_time()
            got = fingerprint(resp.values) if resp.values is not None else None
            if churn:
                ok = got is not None and oracle.matches_window(log[q], got, lo, hi)
            else:
                ok = got == oracle.expected(log[q])
            tally.record(
                ok and resp.status == "ok",
                f"query {q}: status {resp.status}, answer {'matches' if ok else 'differs from'} oracle",
                query=True,
                verify_cpu_s=time.thread_time() - c0,
            )
            return time.perf_counter() - t0

        return send

    def _write_send(self, handle):
        oracle, tally = self.oracle, self.tally

        def send(i: int) -> float:
            batch = next(self._batches)
            oracle.apply(batch)  # before sending: a racing read may already see it
            position = oracle.position
            try:
                resp = handle.ingest(batch.ops)
                ok = resp.status == "ok" and resp.acked_ops == len(batch.ops)
                reason = f"ingest batch {i}: status {resp.status}, acked {resp.acked_ops}"
            except Exception as exc:  # noqa: BLE001
                ok, reason = False, f"ingest batch {i}: {type(exc).__name__}: {exc}"
            if ok:
                self._acked = position
            tally.record(ok, reason)
            return 0.0

        return send

    def _beside_writer(self, reads, seconds: float | None) -> tuple[Samples, Samples]:
        """Run ``reads()`` while the paced writer writes.

        With *seconds* the writer sends exactly ``rate × seconds``
        batches (read metrics compare at equal write load); without, it
        writes until the reads are done.
        """
        stop = threading.Event()
        due = paced_schedule(WRITER_RATE_BPS, seconds if seconds is not None else 3600.0)
        pacer = DueTimeRunner(due, stop=None if seconds is not None else stop)
        write = self._write_send(self.handles[1])
        written: list[Samples] = []
        writer = threading.Thread(target=lambda: written.append(pacer.work(write)))
        pacer.start_clock()
        writer.start()
        try:
            read_samples = reads()
        finally:
            stop.set()
            writer.join()
        if not written:
            raise RuntimeError("paced writer died")
        return read_samples, written[0]

    # ------------------------------------------------------------------
    def window(self) -> tuple[Samples, Samples | None]:
        """The untraced measured window: (query samples, ingest samples)."""
        spec, offset = self.spec, self.spec.warmup
        if self.churn:
            n_batches = int(WRITER_RATE_BPS * self.seconds) + 4 * self.traced_queries
            self._batches = iter(C.churn_batches(self.seed, self.corpus, n_batches))
            read = self._read_send(self.handles[0], offset)
            return self._beside_writer(lambda: closed_loop(read, self.seconds), self.seconds)
        if spec.loop == "open":
            # The arrival process is part of the workload, like its rate:
            # one frozen schedule, so every seed and commit meets the same
            # bursts (with per-seed schedules p99 swung 6.9–12.9 ms).
            due = poisson_schedule(
                C.stream(C.DEFAULT_SEED, "arrivals"), OPEN_LOOP_RATE_QPS, self.seconds
            )
            sends = [self._read_send(h, offset) for h in self.handles]
            return DueTimeRunner(due).run(sends), None
        return closed_loop(self._read_send(self.handles[0], offset), self.seconds), None

    def live_pass(self, tracer: Tracer, name: str, url: str | None = None) -> None:
        """The window's first ``traced_queries`` log entries, one client,
        each ``query()`` under a root span called *name* (against *url*
        instead of the workload's target when given)."""
        from repro.api import connect

        handle = connect(url) if url is not None else self.handles[0]
        send = self._read_send(handle, self.spec.warmup, tracer, name)
        try:
            def reads() -> None:
                for i in range(self.traced_queries):
                    send(i)

            if self.churn:
                self._beside_writer(reads, None)
            else:
                reads()
        finally:
            if url is not None:
                handle.close()

    # ------------------------------------------------------------------
    def crash_and_check(self, detail: dict) -> float:
        """SIGKILL the writable server, reopen the directory (WAL replay)
        and check every list an acked op touched; returns replay ms."""
        from repro.api import Term, connect

        live = self.live
        assert live is not None
        self._close_handles()
        live.children.kill(live.backends[0])
        t0 = time.perf_counter()
        target = connect(live.store_dir, writable=True)
        replay_ms = (time.perf_counter() - t0) * 1000.0
        try:
            touched = self.oracle.touched()
            for shard, term in touched:
                resp = target.query(Term(term), shards=[shard])
                ok = resp.status == "ok" and fingerprint(resp.values) == fingerprint(
                    self.oracle.current(shard, term)
                )
                self.tally.record(ok, f"after SIGKILL: {shard}/{term} differs from acked writes")
            detail["durability_lists_checked"] = len(touched)
        finally:
            target.close()  # final compaction: the stored-bytes figure follows it
        return replay_ms

    # ------------------------------------------------------------------
    def run(self, *, setup_reps: int, trace: bool) -> Outcome:
        spec = self.spec
        detail: dict = {
            "workload": spec.name,
            "seed": self.seed,
            "window_s": self.seconds,
            "loop": spec.loop,
            "corpus_digest": self.corpus.digest(),
            "log_digest": C.log_digest(self.log),
            "postings": self.corpus.postings,
        }
        try:
            setups = []
            for rep in range(setup_reps):
                self.teardown()
                setups.append(self.setup_once())
            live = self.live
            assert live is not None
            detail["setup_s_runs"] = setups
            stored = dir_bytes(live.store_dir) / self.corpus.postings

            gc.collect()
            gc.freeze()  # harness-owned objects must not lengthen collections
            # Two harness threads (open-loop connections, reader + paced
            # writer) must hand the GIL over promptly, or a due request
            # waits out the other thread's 5 ms default slice.
            sys.setswitchinterval(0.0005)
            before = layers.snapshot(live, self.handles[0])
            cpu0 = time.process_time() + sum(cpu_seconds(p) for p in live.child_pids())
            queries, ingest = self.window()
            cpu1 = time.process_time() + sum(cpu_seconds(p) for p in live.child_pids())
            live.children.check_alive()
            after = layers.snapshot(live, self.handles[0])
            rss = sum(peak_rss_mb(p) for p in live.engine_pids())

            n_queries = len(queries.latency_ms)
            e2e = {
                "setup_s": median(setups),
                "query_p50_ms": median(queries.latency_ms),
                "query_p99_ms": _tail(queries.latency_ms, "query_p99_ms", detail, queries.due_s),
                "throughput_qps": (n_queries - self.tally.failed_queries) / queries.elapsed_s,
                "cpu_ms_per_query": (cpu1 - cpu0 - self.tally.verify_cpu_s) * 1000.0 / n_queries,
                "peak_rss_mb": rss,
                "stored_bytes_per_posting": stored,
            }
            detail["samples"]["query_p50_ms"] = n_queries
            per_layer = dict.fromkeys(layers.NAMES, 0.0)
            per_layer.update(layers.counter_metrics(before, after, n_queries))
            detail["valid"] = True
            if ingest is not None:
                e2e["ingest_p50_ms"] = median(ingest.latency_ms)
                e2e["ingest_p99_ms"] = _tail(ingest.latency_ms, "ingest_p99_ms", detail, ingest.due_s)
                detail["samples"]["ingest_p50_ms"] = len(ingest.latency_ms)
                per_layer["ingest_p50_ms"] = e2e["ingest_p50_ms"]
                per_layer["ingest_p99_ms"] = e2e["ingest_p99_ms"]
            paced = ingest if ingest is not None else (queries if spec.loop == "open" else None)
            if paced is not None:
                lag_p99 = _tail(paced.lag_ms, "loadgen.lag_p99_ms", detail)
                per_layer["loadgen.lag_p99_ms"] = lag_p99
                per_layer["loadgen.achieved_rate_qps"] = len(paced.lag_ms) / paced.elapsed_s
                if lag_p99 > LAG_LIMIT_MS or backlog_grows(paced, LAG_LIMIT_MS):
                    detail["valid"] = False
                    print(
                        f"warning: {spec.name}: generator lag p99 {lag_p99:.2f} ms (limit "
                        f"{LAG_LIMIT_MS} ms) or a growing backlog — this run is invalid, not slow",
                        file=sys.stderr,
                    )
            shed = int(after["shed"] - before["shed"])
            self.tally.attempted += shed  # a shed request is a failed attempt the client retried
            self.tally.failed += shed

            if trace:
                tracer = layers.traced_pass(self, per_layer, detail)
                tracer.write_jsonl(str(OUT_DIR / f"{spec.name}.trace.jsonl"))
            if self.churn:
                per_layer["store.wal.replay_ms"] = self.crash_and_check(detail)
                e2e["stored_bytes_per_posting"] = (
                    dir_bytes(live.store_dir) / self.oracle.live_postings()
                )
            e2e["failed_share"] = self.tally.failed / self.tally.attempted
            if self.tally.reasons:
                detail["failures"] = self.tally.reasons
            return Outcome(e2e, per_layer, self.tally.attempted, self.tally.failed, detail)
        finally:
            self.teardown()
