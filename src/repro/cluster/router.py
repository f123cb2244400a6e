"""Scatter-gather query routing over multiple :class:`StoreServer` backends.

The :class:`ClusterRouter` speaks the *same* wire protocol as a single
server — ``POST /query``, ``POST /ingest``, ``GET /metrics``, ``GET
/healthz`` — plus ``GET /shardmap``, so :func:`repro.api.connect`
points at either interchangeably.  Per query it:

1. resolves the requested shards to replica groups via the
   :class:`~repro.cluster.shardmap.ShardMap` (shards with identical
   replica sets travel in one backend request);
2. fans the groups out concurrently, **hedging** each: if the chosen
   replica has not answered within a delay derived from its rolling p95
   latency, a speculative copy goes to the next replica and the first
   answer wins (the loser is cancelled — one straggler no longer sets
   the query's latency);
3. fails over sequentially through remaining replicas when a request
   errors outright, preferring backends that are not in **cooldown**
   (a backend that sheds with 503 is deprioritised until its
   ``Retry-After`` horizon passes — admission-aware routing);
4. merges the partial answers: values are unioned (shards partition the
   document space, mirroring the engine's own cross-shard union),
   degraded flags are OR-ed, and the response ``detail`` reports the
   distributed facts — ``replicas {answered, of}``, per-backend
   ``failed_shards`` attribution, hedge counts, and the current
   ``max_staleness_ms`` replication bound.

The merged status keeps the single-node taxonomy (``failed`` >
``timed_out`` > ``partial`` > ``ok``): a query only fails outright when
*no* replica group answered; anything less is a degraded-but-useful
answer, exactly like a single server with a slow shard.

**Replication** is write-side: ``POST /ingest`` is applied durably on
each shard's primary, acknowledged, and then *shipped* asynchronously
to follower replicas (the same batch, re-posted to their ``/ingest``).
Followers therefore serve reads with bounded staleness; the bound
(age of the oldest unshipped batch) is surfaced as
``max_staleness_ms`` in query details and router metrics.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque

from repro.api.errors import BackendUnavailableError, ProtocolError, ShardMapError
from repro.cluster.metrics import RouterMetrics
from repro.cluster.shardmap import Backend, ShardMap
from repro.server.client import full_jitter_backoff_s
from repro.server.http import (
    BackendConnections,
    HttpExchangeError,
    JsonHttpServer,
    Reply,
    json_body,
)
from repro.server.protocol import (
    DEADLINE_HEADER,
    HTTP_STATUS_FOR,
    SHARDMAP_VERSION_HEADER,
    IngestRequest,
    IngestResponse,
    QueryRequest,
    QueryResponse,
)

#: Hedge delay bounds (ms).  The delay is the chosen replica's rolling
#: p95, clamped to this band: the floor stops a warmed-up fast backend
#: from hedging every request, the ceiling keeps hedging useful when
#: the p95 itself has blown up.
DEFAULT_HEDGE_MIN_MS = 5.0
DEFAULT_HEDGE_MAX_MS = 500.0
#: Hedge delay before any samples exist.
DEFAULT_HEDGE_COLD_MS = 50.0
#: Cooldown applied when a backend sheds and sends no Retry-After.
DEFAULT_COOLDOWN_S = 1.0
#: Ship attempts per follower batch before it is dropped (counted).
DEFAULT_SHIP_RETRIES = 8

_SEVERITY = {"ok": 0, "partial": 1, "timed_out": 2, "failed": 3}


class _GroupAnswer:
    """Outcome of one replica group's scatter leg."""

    __slots__ = ("shards", "backend_id", "response", "error", "attempts",
                 "hedged")

    def __init__(self, shards, backend_id=None, response=None, error=None,
                 attempts=0, hedged=False):
        self.shards = shards
        self.backend_id = backend_id
        self.response = response  # QueryResponse | None
        self.error = error  # str | None
        self.attempts = attempts
        self.hedged = hedged

    @property
    def answered(self) -> bool:
        """A usable answer: the backend executed the group's sub-query.

        An answered-``failed`` response (backend 500) is *not* usable —
        for merging purposes it degrades the group exactly like an
        unreachable backend.
        """
        return self.response is not None and self.response.status != "failed"


def _retrieve_exception(task: "asyncio.Task") -> None:
    """Done-callback: consume a raced-and-lost leg's exception quietly."""
    if not task.cancelled():
        task.exception()


class ClusterRouter(JsonHttpServer):
    """The scatter-gather front-end: a :class:`JsonHttpServer` whose
    engine happens to be remote.

    Args:
        shardmap: placement + topology (version served at /shardmap).
        host / port: bind address; port 0 picks a free port.
        timeout_s: per-backend-request transport timeout.
        hedge: enable hedged (speculative) reads.
        hedge_min_ms / hedge_max_ms / hedge_cold_ms: hedge-delay band
            and the cold-start delay used before p95 samples exist.
        ship_retries: follower-ship attempts before dropping a batch.

    Run with :class:`repro.server.BackgroundServer` or
    ``python -m repro.cluster``.
    """

    bad_request_errors = (ProtocolError, ShardMapError)

    def __init__(
        self,
        shardmap: ShardMap,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: float = 10.0,
        hedge: bool = True,
        hedge_min_ms: float = DEFAULT_HEDGE_MIN_MS,
        hedge_max_ms: float = DEFAULT_HEDGE_MAX_MS,
        hedge_cold_ms: float = DEFAULT_HEDGE_COLD_MS,
        ship_retries: int = DEFAULT_SHIP_RETRIES,
    ) -> None:
        super().__init__(
            host,
            port,
            {
                ("POST", "/query"): self._handle_query,
                ("POST", "/ingest"): self._handle_ingest,
                ("GET", "/shardmap"): self._handle_shardmap,
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
            },
        )
        self.map = shardmap
        self.timeout_s = timeout_s
        self.hedge = hedge
        self.hedge_min_ms = hedge_min_ms
        self.hedge_max_ms = hedge_max_ms
        self.hedge_cold_ms = hedge_cold_ms
        self.ship_retries = ship_retries
        self.metrics = RouterMetrics(
            tuple(b.backend_id for b in shardmap.backends)
        )
        self.in_flight = 0
        # Keep-alive connections per backend *address*, made on first use:
        # a republished map that moves a backend gets a fresh pool.
        self._pools: dict[Backend, BackendConnections] = {}
        # Follower replication: one (FIFO, wake-up event) pair + drain
        # task per backend.  Entries: (enqueue_loop_time,
        # ingest_body_dict); a batch stays at the head until shipped or
        # dropped, so the head's age *is* that follower's staleness.
        self._ship_queues: dict[str, tuple[deque, asyncio.Event]] = {}
        self._ship_tasks: list[asyncio.Task] = []
        self._ship_rng = random.Random()

    def record(self, outcome: str, latency_ms: float | None = None) -> None:
        self.metrics.record_query(outcome, latency_ms)

    async def _on_start(self) -> None:
        for backend in self.map.backends:
            self._ship_queues[backend.backend_id] = (deque(), asyncio.Event())
            self._ship_tasks.append(
                asyncio.create_task(self._ship_loop(backend.backend_id))
            )

    async def _on_stop(self) -> None:
        for task in self._ship_tasks:
            task.cancel()
        await asyncio.gather(*self._ship_tasks, return_exceptions=True)
        self._ship_tasks.clear()
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    async def _backend_json(
        self,
        backend_id: str,
        method: str,
        path: str,
        body: dict,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> tuple[int, dict[str, str], dict]:
        """One exchange with a backend: ``(status, headers, json)``.

        Every transport failure — refused connection, reset, timeout,
        garbled response — surfaces as :class:`BackendUnavailableError`
        (``retryable=True``), the single signal failover and hedging key
        off; HTTP error statuses are returned for the caller to read.
        """
        backend = self.map.backend(backend_id)
        pool = self._pools.get(backend)
        if pool is None:
            pool = self._pools[backend] = BackendConnections(
                backend.host, backend.port, self.metrics.backend(backend_id)
            )
        try:
            return await pool.exchange(
                method, path, body, headers=headers, timeout_s=self.timeout_s
            )
        except HttpExchangeError as exc:
            raise BackendUnavailableError(backend_id, str(exc)) from exc

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------
    def _map_version_header(self) -> tuple[tuple[str, str], ...]:
        return ((SHARDMAP_VERSION_HEADER, str(self.map.version)),)

    async def _handle_shardmap(self, headers, body) -> Reply:
        return Reply(200, self.map.to_json(), self._map_version_header())

    async def _handle_healthz(self, headers, body) -> Reply:
        return Reply(
            200,
            {
                "status": "ok",
                "role": "router",
                "backends": len(self.map.backends),
                "shards": len(self.map.shards),
                "shard_names": sorted(self.map.shards),
                "replication": self.map.replication,
                "shardmap_version": self.map.version,
                "in_flight": self.in_flight,
            },
        )

    async def _handle_metrics(self, headers, body) -> Reply:
        now = asyncio.get_running_loop().time()
        return Reply(
            200,
            self.metrics.snapshot(
                now=now,
                shardmap_version=self.map.version,
                max_staleness_ms=self._max_staleness_ms(now),
            ),
        )

    def _stale_pin(self, headers: dict[str, str]) -> Reply | None:
        """410 reply if the caller pinned a shard-map version we don't serve."""
        raw = headers.get(SHARDMAP_VERSION_HEADER.lower())
        if raw is None:
            return None
        try:
            pinned = int(raw)
        except ValueError:
            raise ProtocolError(
                f"bad {SHARDMAP_VERSION_HEADER} header: {raw!r}"
            ) from None
        if pinned == self.map.version:
            return None
        self.metrics.stale_map_rejects += 1
        return Reply(
            410,
            {
                "error": (
                    f"shard map v{pinned} is not current; refetch GET /shardmap"
                ),
                "current_version": self.map.version,
            },
            self._map_version_header(),
        )

    # ------------------------------------------------------------------
    # /query: scatter, hedge, gather
    # ------------------------------------------------------------------
    async def _handle_query(self, headers: dict[str, str], body: bytes) -> Reply:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        stale = self._stale_pin(headers)
        if stale is not None:
            return stale
        request = QueryRequest.from_body(json_body(body))
        shards = request.shards if request.shards is not None else self.map.shards
        groups = self.map.groups(shards)

        self.in_flight += 1
        try:
            deadline_raw = headers.get(DEADLINE_HEADER.lower())
            answers = await asyncio.gather(
                *(
                    self._query_group(replicas, group_shards, request, deadline_raw)
                    for replicas, group_shards in groups.items()
                )
            )
            response = self._merge(request, answers, (loop.time() - t0) * 1000.0)
        finally:
            self.in_flight -= 1
        return Reply(
            HTTP_STATUS_FOR[response.status], response.to_body(), (), response.status
        )

    def _ranked(self, replicas: tuple[str, ...]) -> list[str]:
        """Replicas by preference: out-of-cooldown first, fastest p95 first."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        return sorted(
            replicas,
            key=lambda bid: (
                self.metrics.backend(bid).in_cooldown(now),
                self.metrics.backend(bid).p95_ms(self.hedge_cold_ms),
            ),
        )

    def _hedge_delay_s(self, backend_id: str) -> float:
        p95 = self.metrics.backend(backend_id).p95_ms(self.hedge_cold_ms)
        return min(self.hedge_max_ms, max(self.hedge_min_ms, p95)) / 1000.0

    async def _fetch_group(
        self, backend_id: str, shards, request: QueryRequest, deadline_raw
    ) -> QueryResponse:
        """One backend leg; raises BackendUnavailableError on any non-answer."""
        loop = asyncio.get_running_loop()
        sub = QueryRequest(
            query=request.query,
            shards=tuple(shards),
            query_id=request.query_id,
            strict=False,  # degradation is merged and escalated router-side
        )
        extra = ()
        if deadline_raw is not None:
            extra = ((DEADLINE_HEADER, deadline_raw),)
        t0 = loop.time()
        self.metrics.fanout_requests += 1
        stats = self.metrics.backend(backend_id)
        try:
            status, resp_headers, parsed = await self._backend_json(
                backend_id, "POST", "/query", sub.to_body(), extra
            )
        except BackendUnavailableError:
            # Refused, reset, timed out: a failure like a bad status.  A
            # cancelled hedge loser raises CancelledError and is not one.
            stats.record_failure()
            raise
        latency_ms = (loop.time() - t0) * 1000.0
        if status == 503:
            retry_after = resp_headers.get("retry-after")
            try:
                cooldown = float(retry_after) if retry_after else DEFAULT_COOLDOWN_S
            except ValueError:
                cooldown = DEFAULT_COOLDOWN_S
            stats.record_shed(loop.time() + max(0.0, cooldown))
            raise BackendUnavailableError(backend_id, "shed the request (503)")
        if status not in (200, 500):
            stats.record_failure()
            raise BackendUnavailableError(
                backend_id,
                f"HTTP {status}: {parsed.get('error', 'unexpected status')}",
            )
        try:
            response = QueryResponse.from_body(parsed)
        except (ValueError, TypeError) as exc:
            # A 200/500 whose body is not a query response is a non-answer
            # like any other: fail over, attribute the shards.
            stats.record_failure()
            raise BackendUnavailableError(
                backend_id, f"unusable HTTP {status} body: {exc}"
            ) from exc
        stats.record_success(latency_ms)
        return response

    async def _query_group(
        self, replicas, shards, request: QueryRequest, deadline_raw
    ) -> _GroupAnswer:
        """Resolve one replica group: hedge the first two, fail over the rest."""
        order = self._ranked(replicas)
        attempts = 0
        errors: list[str] = []

        async def leg(bid: str) -> tuple[str, QueryResponse]:
            return bid, await self._fetch_group(bid, shards, request, deadline_raw)

        primary_task = asyncio.create_task(leg(order[0]))
        attempts += 1
        racing: dict[asyncio.Task, str] = {primary_task: order[0]}
        hedge_task = None
        if self.hedge and len(order) > 1:
            done, _ = await asyncio.wait(
                {primary_task}, timeout=self._hedge_delay_s(order[0])
            )
            if not done:
                hedge_task = asyncio.create_task(leg(order[1]))
                attempts += 1
                racing[hedge_task] = order[1]
                self.metrics.hedged += 1

        winner: tuple[str, QueryResponse] | None = None
        winner_was_hedge = False
        pending = set(racing)
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                exc = task.exception()
                if exc is None:
                    if winner is None:
                        winner = task.result()
                        winner_was_hedge = task is hedge_task
                else:
                    errors.append(f"{racing[task]}: {exc}")
        for task in pending:
            task.add_done_callback(_retrieve_exception)
            task.cancel()
        if winner is not None:
            if winner_was_hedge:
                self.metrics.hedge_wins += 1
            return _GroupAnswer(
                shards, backend_id=winner[0], response=winner[1],
                attempts=attempts, hedged=hedge_task is not None,
            )

        # Both raced replicas failed — sequential failover over the rest.
        tried = {order[0]} | ({order[1]} if hedge_task is not None else set())
        for bid in order:
            if bid in tried:
                continue
            attempts += 1
            self.metrics.failovers += 1
            try:
                response = (await leg(bid))[1]
                return _GroupAnswer(
                    shards, backend_id=bid, response=response,
                    attempts=attempts, hedged=hedge_task is not None,
                )
            except BackendUnavailableError as exc:
                errors.append(f"{bid}: {exc}")
        return _GroupAnswer(
            shards,
            error="; ".join(errors) or "no replica available",
            attempts=attempts, hedged=hedge_task is not None,
        )

    def _merge(
        self, request: QueryRequest, answers, latency_ms: float
    ) -> QueryResponse:
        """Fold group answers into one wire response (union semantics).

        Status composition mirrors the single-node taxonomy: ``failed``
        only when *no* group produced a usable answer; an unreachable
        or failed group otherwise degrades the merged result to
        ``partial`` with its shards attributed in ``failed_shards`` —
        the distributed analogue of the engine skipping a broken shard.
        """
        answered = [a for a in answers if a.answered]
        dead = [a for a in answers if not a.answered]
        loop = asyncio.get_running_loop()

        failed_shards: list[str] = []
        failed_backends: dict[str, list[str]] = {}
        degraded_terms: list[str] = []
        runs: list[int] = []  # each group's sorted values, end to end
        shards_queried = 0
        severity = 0  # max over usable answers: ok=0 partial=1 timed_out=2
        first_error = None
        for a in answered:
            r = a.response
            severity = max(severity, min(_SEVERITY.get(r.status, 2), 2))
            if r.values is not None:
                runs.extend(r.values)
            shards_queried += r.shards_queried
            failed_shards.extend(r.failed_shards)
            degraded_terms.extend(r.degraded_terms)
            if r.error and first_error is None:
                first_error = f"{a.backend_id}: {r.error}"
        for a in dead:
            failed_shards.extend(a.shards)
            if a.response is not None:  # answered 500-failed
                error = f"{a.backend_id}: {a.response.error or 'failed'}"
                if a.backend_id:
                    failed_backends.setdefault(a.backend_id, []).extend(a.shards)
            else:
                error = a.error
                for part in (a.error or "").split("; "):
                    bid = part.split(":", 1)[0]
                    if bid in self.metrics.backends:
                        failed_backends.setdefault(bid, []).extend(a.shards)
            if first_error is None:
                first_error = error
            severity = max(severity, 1)

        if not answered:
            status = "failed"
            out_values = None
        else:
            status = ("ok", "partial", "timed_out")[severity]
            # Union of sorted runs: Timsort merges them in linear time
            # (and still sorts a misbehaving backend's unsorted list),
            # then equal neighbours — groups do overlap — collapse.
            runs.sort()
            out_values = []
            last = object()  # equal to no value
            for value in runs:
                if value != last:
                    out_values.append(value)
                    last = value

        detail: dict = {
            "replicas": {"answered": len(answered), "of": len(answers)},
            "shardmap_version": self.map.version,
            "max_staleness_ms": round(self._max_staleness_ms(loop.time()), 3),
        }
        hedged = sum(1 for a in answers if a.hedged)
        if hedged:
            detail["hedged_groups"] = hedged
        if failed_backends:
            detail["failed_backends"] = {
                bid: sorted(set(shards))
                for bid, shards in sorted(failed_backends.items())
            }
        if status not in ("ok", "failed") and request.strict:
            detail["strict_violation"] = status
            status = "failed"

        return QueryResponse(
            status=status,
            values=out_values if status != "failed" else None,
            n_results=len(out_values) if (
                out_values is not None and status != "failed"
            ) else None,
            latency_ms=latency_ms,
            partial=severity >= 1,
            timed_out=severity >= 2,
            error=first_error,
            shards_queried=shards_queried,
            failed_shards=tuple(dict.fromkeys(failed_shards)),
            degraded_terms=tuple(dict.fromkeys(degraded_terms)),
            query_id=request.query_id,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # /ingest: primary-durable writes + follower shipping
    # ------------------------------------------------------------------
    async def _handle_ingest(self, headers: dict[str, str], body: bytes) -> Reply:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        stale = self._stale_pin(headers)
        if stale is not None:
            return stale
        request = IngestRequest.from_body(json_body(body))
        by_primary: dict[str, list] = {}
        by_follower: dict[str, list] = {}
        for op in request.ops:
            replicas = self.map.replicas(op[1])  # raises on unknown shard
            by_primary.setdefault(replicas[0], []).append(op)
            for follower in replicas[1:]:
                by_follower.setdefault(follower, []).append(op)

        self.metrics.ingest_batches += 1
        outcomes = await asyncio.gather(
            *(
                self._ingest_primary(bid, ops, request.batch_id)
                for bid, ops in by_primary.items()
            ),
            return_exceptions=True,
        )
        acked = 0
        pending = 0
        generation = 0
        errors = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                errors.append(str(outcome))
                continue
            resp = outcome
            if resp.ok:
                acked += resp.acked_ops
                pending += resp.pending_ops
                generation = max(generation, resp.generation)
            else:
                errors.append(resp.error or "ingest failed")
        if errors:
            self.metrics.ingest_failed += 1
            response = IngestResponse(
                status="failed",
                acked_ops=acked,
                latency_ms=(loop.time() - t0) * 1000.0,
                error="; ".join(errors),
                batch_id=request.batch_id,
            )
            return Reply(500, response.to_body())

        # Durable on every primary — ack now, ship to followers async.
        now = loop.time()
        for bid, ops in by_follower.items():
            sub = IngestRequest(ops=tuple(ops), batch_id=request.batch_id)
            queue, wakeup = self._ship_queues[bid]
            queue.append((now, sub.to_body()))
            wakeup.set()
        response = IngestResponse(
            status="ok",
            acked_ops=acked,
            latency_ms=(loop.time() - t0) * 1000.0,
            pending_ops=pending,
            generation=generation,
            batch_id=request.batch_id,
        )
        return Reply(200, response.to_body())

    async def _ingest_primary(
        self, backend_id: str, ops, batch_id: str
    ) -> IngestResponse:
        sub = IngestRequest(ops=tuple(ops), batch_id=batch_id)
        status, _headers, parsed = await self._backend_json(
            backend_id, "POST", "/ingest", sub.to_body()
        )
        if status not in (200, 500):
            raise BackendUnavailableError(
                backend_id,
                f"HTTP {status}: {parsed.get('error', 'unexpected status')}",
            )
        return IngestResponse.from_body(parsed)

    async def _ship_loop(self, backend_id: str) -> None:
        """Drain one follower's ship queue; bounded retries per batch."""
        queue, wakeup = self._ship_queues[backend_id]
        while True:
            if not queue:
                wakeup.clear()
                await wakeup.wait()
                continue
            _enqueued_at, body = queue[0]
            delivered = False
            for attempt in range(self.ship_retries):
                try:
                    status, _h, parsed = await self._backend_json(
                        backend_id, "POST", "/ingest", body
                    )
                    if status == 200:
                        delivered = True
                        break
                    if status == 500 and parsed.get("status") == "failed":
                        break  # the batch itself is bad; retrying re-fails
                except BackendUnavailableError:
                    pass
                await asyncio.sleep(
                    full_jitter_backoff_s(
                        attempt, base_s=0.05, cap_s=1.0, rng=self._ship_rng
                    )
                )
            if delivered:
                self.metrics.shipped_batches += 1
            else:
                self.metrics.ship_failures += 1
            queue.popleft()  # the next batch's age is now the bound

    def _max_staleness_ms(self, now: float) -> float:
        """Worst-case follower lag: age of the oldest unshipped batch."""
        oldest = [q[0][0] for q, _wakeup in self._ship_queues.values() if q]
        if not oldest:
            return 0.0
        return max(0.0, (now - min(oldest)) * 1000.0)
