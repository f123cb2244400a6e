"""Asyncio JSON-over-HTTP server wrapping :class:`repro.store.QueryEngine`.

A :class:`~repro.server.http.JsonHttpServer` (which owns the socket,
the keep-alive loop, routing and the 400/404/405/500 mapping) whose
handlers front a worker-thread pool: the engine underneath is CPU-bound
numpy work, so the event loop only does admission, parsing, and
response writing, and hands each admitted request to a worker.

Request lifecycle:

1. **Admission** — a bounded pending counter
   (:class:`~repro.server.admission.AdmissionController`).  A request
   arriving while ``max_pending`` queries are queued or running is shed
   immediately with ``503`` + ``Retry-After``; the event loop never
   blocks, so shedding stays fast under any load.
2. **Deadline propagation** — the client's :data:`DEADLINE_HEADER`
   (milliseconds) becomes the engine's cooperative per-query deadline
   (`engine.execute(..., timeout_s=...)`): a slow shard degrades the
   response to ``partial``/``timed_out`` instead of running the full
   scatter.  The responder additionally waits at most
   ``grace_factor ×`` the deadline for the worker (a single shard's
   evaluation cannot be preempted mid-numpy-kernel); past that the
   request is *abandoned* — the response reports ``timed_out`` and the
   worker's eventual result is discarded, while admission keeps
   counting the still-running thread until it actually finishes.
3. **Response** — executed queries answer 200 (degraded ones included;
   inspect ``status``), outright failures 500, protocol errors 400,
   shed requests 503.

Endpoints: ``POST /query``, ``POST /ingest`` (writable stores only —
batches go through the same admission gate as queries and are
acknowledged only after the store's WAL fsync), ``GET /healthz``,
``GET /metrics`` (the :class:`~repro.server.metrics.ServerMetrics`
snapshot, including write-path counters when the store is writable).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, TypeVar

from repro.server.admission import AdmissionController
from repro.server.http import JsonHttpServer, Reply, json_body
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    DEADLINE_HEADER,
    HTTP_STATUS_FOR,
    IngestRequest,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    abandoned_response,
    apply_ingest,
    response_from_result,
)
from repro.store.engine import QueryEngine
from repro.store.segments import WritablePostingStore

#: Default bounded-queue depth (pending + running requests).
DEFAULT_MAX_PENDING = 64
#: Default worker threads executing engine queries.
DEFAULT_WORKERS = 8

_R = TypeVar("_R")


class StoreServer(JsonHttpServer):
    """The network face of a :class:`~repro.store.engine.QueryEngine`.

    Args:
        engine: the engine to serve.  Its :class:`StoreMetrics` keeps
            recording query outcomes; the server wraps it in a
            :class:`ServerMetrics` for the ``/metrics`` endpoint.
        host / port: bind address; port 0 picks a free port (read
            ``server.port`` after :meth:`start`).
        max_pending: admission bound — pending + running requests
            beyond which new queries are shed with 503.
        workers: engine worker threads (each runs one query end to end).
        default_deadline_ms: deadline applied when the client sends no
            :data:`DEADLINE_HEADER`; ``None`` = unbounded.
        max_deadline_ms: cap on client-requested deadlines, so one
            client cannot park a worker for minutes.
        grace_factor: responder waits ``grace_factor × deadline`` for a
            worker before abandoning the request.
        retry_after_s: ``Retry-After`` value sent with 503 responses.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = DEFAULT_MAX_PENDING,
        workers: int = DEFAULT_WORKERS,
        default_deadline_ms: float | None = None,
        max_deadline_ms: float | None = 60_000.0,
        grace_factor: float = 2.0,
        retry_after_s: float = 1.0,
    ) -> None:
        if grace_factor < 1.0:
            raise ValueError(f"grace_factor must be >= 1, got {grace_factor}")
        super().__init__(
            host,
            port,
            {
                ("POST", "/query"): self._handle_query,
                ("POST", "/ingest"): self._handle_ingest,
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
            },
        )
        self.engine = engine
        self.default_deadline_ms = default_deadline_ms
        self.max_deadline_ms = max_deadline_ms
        self.grace_factor = grace_factor
        self.admission = AdmissionController(
            max_pending=max_pending, retry_after_s=retry_after_s
        )
        self.metrics = ServerMetrics(engine.metrics, self.admission)
        if isinstance(engine.store, WritablePostingStore):
            self.metrics.attach_write_stats(engine.store.write_stats)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )

    def record(self, outcome: str, latency_ms: float | None = None) -> None:
        self.metrics.record_response(outcome, latency_ms)

    async def _on_stop(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.engine.close()

    # ------------------------------------------------------------------
    # Admission gate (shared by /query and /ingest)
    # ------------------------------------------------------------------
    def _submit(
        self, parse: Callable[[], _R], work: Callable[[_R], object]
    ) -> "tuple[_R, asyncio.Future] | None":
        """admit → parse → ``work(parsed)`` on a worker; one ``release()``
        per admission.

        Returns ``None`` when the gate is full — *before* the body is
        parsed, so shedding stays cheap under any load — else
        ``(parsed, future)``.  Once the job is submitted, the future's
        done-callback owns the release (an abandoned worker keeps its
        slot until it actually finishes); a failure before that — a
        :class:`ProtocolError` from ``parse``, a ``RuntimeError`` from an
        executor shut down mid-stop — releases here and propagates to the
        HTTP layer's 400 / 500.
        """
        if not self.admission.try_acquire():
            return None
        try:
            parsed = parse()
            fut = asyncio.get_running_loop().run_in_executor(
                self._executor, work, parsed
            )
        except BaseException:
            self.admission.release()
            raise
        fut.add_done_callback(self._release_when_done)
        return parsed, fut

    def _release_when_done(self, fut: "asyncio.Future | Future") -> None:
        self.admission.release()
        if not fut.cancelled():
            fut.exception()  # retrieve, so abandoned failures don't warn

    def _shed(self) -> Reply:
        return Reply(
            503,
            {
                "error": "server at capacity, retry later",
                "in_flight": self.admission.pending,
            },
            (("Retry-After", f"{self.admission.retry_after_s:g}"),),
            "shed",
        )

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------
    async def _handle_healthz(self, headers: dict[str, str], body: bytes) -> Reply:
        return Reply(
            200,
            {
                "status": "ok",
                "shards": len(self.engine.store),
                # Names too: the cluster CLI discovers placement from these.
                "shard_names": sorted(self.engine.store.shard_names()),
                "in_flight": self.admission.pending,
            },
        )

    async def _handle_metrics(self, headers: dict[str, str], body: bytes) -> Reply:
        return Reply(200, self.metrics.snapshot())

    # ------------------------------------------------------------------
    # /query
    # ------------------------------------------------------------------
    def _deadline_s(self, headers: dict[str, str]) -> float | None:
        raw = headers.get(DEADLINE_HEADER.lower())
        if raw is None:
            if self.default_deadline_ms is None:
                return None
            ms = self.default_deadline_ms
        else:
            try:
                ms = float(raw)
            except ValueError:
                raise ProtocolError(
                    f"bad {DEADLINE_HEADER} header: {raw!r}"
                ) from None
            if ms <= 0:
                raise ProtocolError(
                    f"{DEADLINE_HEADER} must be positive, got {raw!r}"
                )
        if self.max_deadline_ms is not None:
            ms = min(ms, self.max_deadline_ms)
        return ms / 1000.0

    async def _handle_query(self, headers: dict[str, str], body: bytes) -> Reply:
        t0 = time.monotonic()
        admitted = self._submit(
            lambda: (QueryRequest.from_body(json_body(body)), self._deadline_s(headers)),
            lambda parsed: self.engine.execute(
                parsed[0].to_query(), timeout_s=parsed[1]
            ),
        )
        if admitted is None:
            return self._shed()
        (request, timeout_s), fut = admitted

        grace = (
            None if timeout_s is None else max(0.1, timeout_s * self.grace_factor)
        )
        try:
            result = await asyncio.wait_for(asyncio.shield(fut), timeout=grace)
            response = response_from_result(result, strict=request.strict)
        except asyncio.TimeoutError:
            response = abandoned_response(
                request.query_id, (time.monotonic() - t0) * 1000.0
            )
            if request.strict:
                response = QueryResponse(
                    **{**response.__dict__, "status": "failed",
                       "detail": {"strict_violation": "timed_out"}}
                )
        except Exception as exc:  # repro: noqa[REPRO106] -- engine bug: answer a failed response, keep serving; error text is returned to the client
            response = QueryResponse(
                status="failed",
                values=None,
                n_results=None,
                latency_ms=(time.monotonic() - t0) * 1000.0,
                error=f"{type(exc).__name__}: {exc}",
                query_id=request.query_id,
            )
        return Reply(
            HTTP_STATUS_FOR[response.status], response.to_body(), (), response.status
        )

    # ------------------------------------------------------------------
    # /ingest
    # ------------------------------------------------------------------
    async def _handle_ingest(self, headers: dict[str, str], body: bytes) -> Reply:
        """Apply one durable write batch through the admission gate.

        Same accounting contract as ``/query``: a batch occupies one
        admission slot from acceptance until its WAL fsync returns, so
        write load and read load shed each other under pressure.  The
        reply is only built after the fsync — an acked batch survives
        ``kill -9``.
        """
        t0 = time.monotonic()
        store = self.engine.store
        if not isinstance(store, WritablePostingStore):
            raise ProtocolError(
                "store is read-only; start the server with --writable"
            )
        admitted = self._submit(
            lambda: IngestRequest.from_body(json_body(body)),
            lambda request: apply_ingest(store, request, t0),
        )
        if admitted is None:
            return self._shed()
        _request, fut = admitted
        response = await asyncio.shield(fut)
        self.metrics.record_ingest(
            response.acked_ops, response.latency_ms, failed=not response.ok
        )
        return Reply(
            200 if response.ok else 500,
            response.to_body(),
            (),
            f"ingest_{response.status}",
        )
