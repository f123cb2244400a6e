"""Router-side observability: fan-out, hedging, and per-backend health.

Mirrors the single-server :class:`~repro.server.metrics.ServerMetrics`
shape where the concepts overlap (latency histograms per outcome) and
adds the distributed-only instruments:

* **hedging** — ``hedged`` (speculative second-replica requests fired)
  and ``hedge_wins`` (the speculative copy answered first).  The ratio
  is the knob-tuning signal: near-zero wins means the hedge delay is
  too low (wasted duplicate work), wins tracking hedges means it is too
  high (primary already doomed by the time the hedge fires).
* **per-backend health** — request/failure/shed counts, a rolling p95
  (:class:`~repro.store.metrics.RollingQuantile`) that the hedge delay
  derives from, the cooldown state admission-aware routing sets
  when a backend sheds, and the connection pool's
  opened / reused / discarded counts.
* **replication lag** — batches shipped to followers and the current
  worst-case staleness bound surfaced to readers as
  ``max_staleness_ms``.

All counters are event-loop-confined (the router is single-threaded
asyncio); the snapshot is read from the same loop, so there are no
locks here — except inside :class:`RollingQuantile`, which is shared
with threaded callers of ``/metrics`` via the snapshot dict.
"""

from __future__ import annotations

from repro.store.metrics import LatencyHistogram, RollingQuantile


class BackendStats:
    """Live view of one backend from the router's seat."""

    def __init__(self, backend_id: str, *, p95_window: int = 256) -> None:
        self.backend_id = backend_id
        self.requests = 0
        self.failures = 0
        self.sheds = 0
        self.latency = RollingQuantile(window=p95_window)
        #: Event-loop time before which this backend is deprioritised
        #: (set when it sheds with 503; see router._record_shed).
        self.cooldown_until = 0.0
        #: Written by this backend's connection pool
        #: (:class:`~repro.server.http.BackendConnections`): every exchange
        #: dials or reuses; ``opened - discarded`` connections are alive.
        self.connections_opened = 0
        self.connections_reused = 0
        self.connections_discarded = 0

    def record_success(self, latency_ms: float) -> None:
        self.requests += 1
        self.latency.observe(latency_ms)

    def record_failure(self) -> None:
        self.requests += 1
        self.failures += 1

    def record_shed(self, until: float) -> None:
        self.requests += 1
        self.sheds += 1
        self.cooldown_until = max(self.cooldown_until, until)

    def in_cooldown(self, now: float) -> bool:
        return now < self.cooldown_until

    def p95_ms(self, default: float) -> float:
        return self.latency.quantile(0.95, default=default)

    def as_dict(self, now: float) -> dict:
        return {
            "requests": self.requests,
            "failures": self.failures,
            "sheds": self.sheds,
            "p95_ms": round(self.latency.quantile(0.95), 4),
            "in_cooldown": self.in_cooldown(now),
            "connections_opened": self.connections_opened,
            "connections_reused": self.connections_reused,
            "connections_discarded": self.connections_discarded,
        }


class RouterMetrics:
    """Everything the router reports at ``GET /metrics``."""

    def __init__(self, backend_ids: tuple[str, ...]) -> None:
        self.queries: dict[str, int] = {}
        self.query_latency = LatencyHistogram()
        self.fanout_requests = 0
        self.hedged = 0
        self.hedge_wins = 0
        self.failovers = 0
        self.stale_map_rejects = 0
        self.ingest_batches = 0
        self.ingest_failed = 0
        self.shipped_batches = 0
        self.ship_failures = 0
        self.backends: dict[str, BackendStats] = {
            bid: BackendStats(bid) for bid in backend_ids
        }

    def record_query(self, status: str, latency_ms: float | None = None) -> None:
        """Count one request by outcome; ``latency_ms`` is absent for the
        outcomes that never became a request (broken framing, hang-up)."""
        self.queries[status] = self.queries.get(status, 0) + 1
        if latency_ms is not None:
            self.query_latency.record(latency_ms)

    def backend(self, backend_id: str) -> BackendStats:
        if backend_id not in self.backends:  # topology change added it
            self.backends[backend_id] = BackendStats(backend_id)
        return self.backends[backend_id]

    def snapshot(self, *, now: float, shardmap_version: int,
                 max_staleness_ms: float) -> dict:
        return {
            "role": "router",
            "shardmap_version": shardmap_version,
            "queries": dict(sorted(self.queries.items())),
            "latency": self.query_latency.as_dict(),
            "fanout": {
                "requests": self.fanout_requests,
                "hedged": self.hedged,
                "hedge_wins": self.hedge_wins,
                "failovers": self.failovers,
            },
            "stale_map_rejects": self.stale_map_rejects,
            "replication": {
                "ingest_batches": self.ingest_batches,
                "ingest_failed": self.ingest_failed,
                "shipped_batches": self.shipped_batches,
                "ship_failures": self.ship_failures,
                "max_staleness_ms": round(max_staleness_ms, 3),
            },
            "backends": {
                bid: stats.as_dict(now)
                for bid, stats in sorted(self.backends.items())
            },
        }
