"""Concurrent scatter-gather query engine over a PostingStore.

Each query scatters over its target shards, evaluates the compiled
:class:`~repro.store.plan.ShardPlan` per shard, and gathers the partial
results with a sorted-array union (shards partition the document space,
so gathering is a merge, never a re-intersection).  Batches run on a
worker pool; each query carries a deadline that is checked cooperatively
between shards *and* enforced from the outside when collecting futures,
so a slow query degrades to a flagged partial result instead of stalling
the batch.

Failure policy (the "graceful degradation" contract):

* a shard whose evaluation raises — corrupt payload, codec bug — is
  recorded in ``failed_shards`` and the query continues on the
  remaining shards with ``partial=True``;
* terms lost to a lenient store load mark the query partial via
  ``degraded_terms``;
* a deadline hit mid-scatter returns whatever shards completed, flagged
  ``timed_out`` and partial;
* only a query that produces *no* shard results at all is ``failed``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.runtime_witness import maybe_witness
from repro.core.base import union_sorted_arrays
from repro.ops.expressions import ExecStats
from repro.store.cache import DecodeCache, PlanResultCache
from repro.store.metrics import StoreMetrics
from repro.store.plan import (
    Query,
    QueryLike,
    ShardPlan,
    canonical_key,
    canonicalize,
    compile_shard_plan,
    parse_query,
)
from repro.store.store import PostingStore

#: Default worker-pool width for batch execution.
DEFAULT_WORKERS = 4


@dataclass
class QueryResult:
    """Outcome of one query, successful or degraded."""

    query_id: str
    values: np.ndarray | None
    latency_ms: float
    partial: bool = False
    timed_out: bool = False
    error: str | None = None
    shards_queried: int = 0
    failed_shards: tuple[str, ...] = ()
    degraded_terms: tuple[str, ...] = ()
    #: Compressed-domain kernel invocations across all shards (see
    #: :class:`repro.ops.expressions.ExecStats`); 0 on plan-cache hits.
    compressed_ops: int = 0
    #: Full leaf materialisations across all shards; 0 on plan-cache hits.
    decoded_ops: int = 0
    plans: list[ShardPlan] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.partial and self.error is None

    @property
    def status(self) -> str:
        """Worst-first outcome label: failed > timed_out > partial > ok.

        The same taxonomy drives the store CLI's exit code and the HTTP
        server's response ``status`` field.
        """
        if self.error is not None and self.values is None:
            return "failed"
        if self.timed_out:
            return "timed_out"
        if self.partial:
            return "partial"
        return "ok"

    def as_dict(self) -> dict:
        """JSON-able summary (values reported by size, not content)."""
        return {
            "query_id": self.query_id,
            "status": self.status,
            "n_results": int(self.values.size) if self.values is not None else None,
            "latency_ms": round(self.latency_ms, 4),
            "ok": self.ok,
            "partial": self.partial,
            "timed_out": self.timed_out,
            "error": self.error,
            "shards_queried": self.shards_queried,
            "failed_shards": list(self.failed_shards),
            "degraded_terms": list(self.degraded_terms),
            "compressed_ops": self.compressed_ops,
            "decoded_ops": self.decoded_ops,
        }


class QueryEngine:
    """Executes term queries against a store, concurrently and cached.

    Args:
        store: the posting store to serve from.
        cache: decode cache shared by all workers; pass ``None`` to
            serve uncached (every leaf decode pays full price).
        plan_cache: generational plan-result cache.  When omitted, one is
            created whenever *cache* is present (a cached engine caches
            whole results too); pass an explicit instance to size it, or
            construct the engine uncached to disable both layers.
        metrics: observability sink; created internally when omitted so
            ``engine.metrics.snapshot()`` always works.
        max_workers: batch worker-pool width.
        timeout_s: default per-query deadline in seconds (``None`` =
            unbounded); :meth:`execute` can override it per request.
        shard_delays: fault-injection hook — shard name → seconds slept
            before that shard is evaluated.  Lets tests and the server's
            ``--slow-shard`` flag model a slow shard without touching
            codec code; the cooperative deadline check runs *before* the
            injected sleep, exactly as it does for a genuinely slow
            shard evaluation.

    Every shard runs the default plan of :meth:`ShardPlan.execute`:
    compressed-domain kernels where the codec declares them, decode and
    probe elsewhere.  The decode-then-merge reference regime is
    ``ShardPlan.execute(compressed=False)`` /
    ``repro.ops.evaluate(..., compressed=False)``.
    """

    def __init__(
        self,
        store: PostingStore,
        *,
        cache: DecodeCache | None = None,
        plan_cache: PlanResultCache | None = None,
        metrics: StoreMetrics | None = None,
        max_workers: int = DEFAULT_WORKERS,
        timeout_s: float | None = None,
        shard_delays: Mapping[str, float] | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.store = store
        self.cache = cache
        if plan_cache is None and cache is not None:
            plan_cache = PlanResultCache()
        self.plan_cache = plan_cache
        self.metrics = metrics if metrics is not None else StoreMetrics()
        if self.cache is not None:
            self.metrics.attach_cache(self.cache)
        if self.plan_cache is not None:
            self.metrics.attach_plan_cache(self.plan_cache)
        self.max_workers = max_workers
        self.timeout_s = timeout_s
        self.shard_delays = dict(shard_delays) if shard_delays else {}
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = maybe_witness(
            "QueryEngine._pool_lock", threading.Lock()
        )

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The persistent batch pool, created on first use.

        One pool serves every ``execute_batch`` call for the engine's
        lifetime (spinning up threads per call costs more than small
        batches themselves); :meth:`close` tears it down, after which the
        next batch lazily builds a fresh one.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine",
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool; running queries finish, queued work
        is cancelled.  Idempotent, and the engine stays usable — a later
        batch recreates the pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query | QueryLike,
        *,
        timeout_s: float | None = None,
    ) -> QueryResult:
        """Run one query to completion (or deadline) and record metrics.

        Args:
            query: AST node, bare term string, or a full :class:`Query`.
            timeout_s: per-request deadline override; ``None`` falls back
                to the engine default.  This is how the HTTP server
                propagates a client's deadline header into the engine's
                cooperative deadline.
        """
        query = self._admit(query)
        if isinstance(query, QueryResult):
            return query
        budget = timeout_s if timeout_s is not None else self.timeout_s
        deadline = time.perf_counter() + budget if budget is not None else None
        result = self._run(query, deadline)
        self.metrics.record_query(
            result.latency_ms,
            partial=result.partial,
            failed=result.error is not None and result.values is None,
            timed_out=result.timed_out,
        )
        # Recorded here (not per coalesced duplicate): these counters
        # track actual evaluation work, which runs once per execution.
        if result.compressed_ops or result.decoded_ops:
            self.metrics.record_exec_ops(
                result.compressed_ops, result.decoded_ops
            )
        return result

    def execute_batch(
        self, queries: Sequence[Query | QueryLike]
    ) -> list[QueryResult]:
        """Run a batch on the persistent worker pool, preserving input
        order.

        Queries that are the same work — equal canonical expression (see
        :func:`repro.store.plan.canonicalize`) over the same shard set —
        are coalesced: one execution runs, and every duplicate receives a
        copy of its result under its own ``query_id``.  Each duplicate is
        still recorded in metrics, so observed load matches offered load.

        Every query gets its own deadline.  If a worker overruns it
        anyway (deadlines are checked between shards, and a single
        shard's evaluation cannot be preempted), collection stops
        waiting shortly after the deadline and reports a timed-out
        result; the worker's eventual output is discarded.
        """
        admitted = [self._admit(q) for q in queries]
        pool = self._ensure_pool()
        t0 = time.perf_counter()
        # Dedupe: one submitted execution per distinct (canonical
        # expression, shard set); `assignment` maps each input query to
        # its future.  A malformed entry is already its own failed
        # result: it is not submitted and coalesces with nothing.
        futures: list[Future[QueryResult]] = []
        assignment: list[int] = []
        seen: dict[tuple[str, tuple[str, ...] | None], int] = {}
        for query in admitted:
            if isinstance(query, QueryResult):
                assignment.append(-1)
                continue
            work = (canonical_key(canonicalize(query.expression)), query.shards)
            idx = seen.get(work)
            if idx is None:
                idx = len(futures)
                futures.append(pool.submit(self.execute, query))
                seen[work] = idx
            assignment.append(idx)
        collected: dict[int, QueryResult] = {}
        results: list[QueryResult] = []
        for query, idx in zip(admitted, assignment):
            if isinstance(query, QueryResult):
                results.append(query)
                continue
            primary = collected.get(idx)
            if primary is None:
                try:
                    if self.timeout_s is None:
                        primary = futures[idx].result()
                    else:
                        # Grace factor: workers start staggered, so allow
                        # each future the full per-query budget twice
                        # over from batch start before giving up on it.
                        remaining = max(
                            0.05, 2 * self.timeout_s - (time.perf_counter() - t0)
                        )
                        primary = futures[idx].result(timeout=remaining)
                except FutureTimeoutError:
                    latency_ms = (time.perf_counter() - t0) * 1000.0
                    self.metrics.record_query(
                        latency_ms, partial=True, timed_out=True
                    )
                    primary = QueryResult(
                        query_id=query.query_id,
                        values=None,
                        latency_ms=latency_ms,
                        partial=True,
                        timed_out=True,
                        error="query abandoned after deadline",
                    )
                collected[idx] = primary
                results.append(
                    primary
                    if primary.query_id == query.query_id
                    else replace(primary, query_id=query.query_id)
                )
                continue
            # Coalesced duplicate: same outcome, own id, own metrics row.
            self.metrics.record_query(
                primary.latency_ms,
                partial=primary.partial,
                failed=primary.error is not None and primary.values is None,
                timed_out=primary.timed_out,
            )
            results.append(replace(primary, query_id=query.query_id))
        return results

    # ------------------------------------------------------------------
    def explain(self, query: Query | QueryLike) -> list[dict]:
        """Compiled per-shard plans for a query, without executing."""
        query = self._coerce(query)
        return [
            compile_shard_plan(
                self.store,
                shard,
                query.expression,
                cache=self.cache,
                observer=self.metrics,
            ).describe()
            for shard in self._target_shards(query)
        ]

    # ------------------------------------------------------------------
    def _admit(self, query: Query | QueryLike) -> Query | QueryResult:
        """The normalised query — or, for a malformed one, its failed
        result, recorded in metrics: a failed result, not a crash,
        matching the per-shard graceful-degradation contract."""
        t0 = time.perf_counter()
        try:
            return self._coerce(query)
        except (TypeError, ValueError) as exc:
            result = QueryResult(
                query_id=query.query_id if isinstance(query, Query) else "",
                values=None,
                latency_ms=(time.perf_counter() - t0) * 1000.0,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.metrics.record_query(result.latency_ms, failed=True)
            return result

    def _coerce(self, query: Query | QueryLike) -> Query:
        """Normalise to a :class:`Query` holding a typed-AST expression.

        Normalisation happens exactly once here, so every later
        per-shard compile sees the already-normalised AST.
        """
        if not isinstance(query, Query):
            query = Query(expression=query)
        node = parse_query(query.expression)
        if node is not query.expression:
            query = replace(query, expression=node)
        return query

    def _target_shards(self, query: Query) -> Sequence[str]:
        return (
            query.shards if query.shards is not None else self.store.shard_names()
        )

    def _run(self, query: Query, deadline: float | None) -> QueryResult:
        t0 = time.perf_counter()
        stats = ExecStats()
        gathered: np.ndarray | None = None
        failed: list[str] = []
        degraded: list[str] = []
        plans: list[ShardPlan] = []
        first_error: str | None = None
        timed_out = False
        shards_done = 0
        shards = self._target_shards(query)
        # Plan-cache keys: (canonical expression, shard, store version).
        # The version is read once per query; embedding it in the key is
        # the whole invalidation story — ingest/compaction move the
        # version, so older entries are never looked up again.
        ckey: str | None = None
        version: tuple[int, ...] | None = None
        if self.plan_cache is not None:
            ckey = canonical_key(canonicalize(query.expression))
            version = self.store.read_version()
        for shard in shards:
            if deadline is not None and time.perf_counter() >= deadline:
                timed_out = True
                break
            delay = self.shard_delays.get(shard)
            if delay:
                time.sleep(delay)
            if self.plan_cache is not None:
                hit = self.plan_cache.get((ckey, shard, version))
                if hit is not None:
                    shards_done += 1
                    gathered = (
                        hit
                        if gathered is None
                        else union_sorted_arrays(gathered, hit)
                    )
                    continue
            try:
                plan = compile_shard_plan(
                    self.store,
                    shard,
                    query.expression,
                    cache=self.cache,
                    observer=self.metrics,
                )
                arr = plan.execute(
                    cache=self.cache, observer=self.metrics, stats=stats
                )
            except Exception as exc:  # repro: noqa[REPRO106] -- graceful degradation: shard marked failed, error carried in the result status
                failed.append(shard)
                if first_error is None:
                    first_error = f"{type(exc).__name__}: {exc}"
                continue
            plans.append(plan)
            shards_done += 1
            degraded.extend(plan.degraded_terms)
            if self.plan_cache is not None and not plan.degraded_terms:
                # Degraded evaluations are transient (lenient-load gaps,
                # failed overlay merges) — never cache them.
                self.plan_cache.put((ckey, shard, version), arr)
            gathered = (
                arr if gathered is None else union_sorted_arrays(gathered, arr)
            )
        latency_ms = (time.perf_counter() - t0) * 1000.0
        partial = bool(failed or degraded or timed_out)
        if gathered is None and not failed and not timed_out:
            gathered = np.empty(0, dtype=np.int64)  # zero target shards
        return QueryResult(
            query_id=query.query_id,
            values=gathered,
            latency_ms=latency_ms,
            partial=partial,
            timed_out=timed_out,
            error=first_error,
            shards_queried=shards_done,
            failed_shards=tuple(failed),
            degraded_terms=tuple(dict.fromkeys(degraded)),
            compressed_ops=stats.compressed_ops,
            decoded_ops=stats.decoded_ops,
            plans=plans,
        )
