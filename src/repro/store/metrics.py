"""Serving-layer observability.

Three instrument families, all thread-safe and all JSON-able via
``snapshot()``:

* **latency histograms** — log2-bucketed query latencies (bounds in
  milliseconds, doubling from 1 µs to ~134 s), per query outcome;
* **cache stats** — proxied from the :class:`~repro.store.cache.DecodeCache`
  attached to the engine;
* **decode counts** — per-codec number of actual (non-cached) decodes,
  decoded integers, and decode seconds, recorded through the
  :class:`repro.core.decode.DecodeObserver` protocol;
* **exec-op counts** — compressed-domain kernel invocations vs full leaf
  materialisations, aggregated from the per-query
  :class:`repro.ops.expressions.ExecStats` the engine collects.

The snapshot schema is documented in ``docs/query_engine.md`` and pinned
by ``tests/store/test_metrics.py``; the bench harness's served mode and
``python -m repro.store --metrics`` both print it verbatim.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.analysis.runtime_witness import maybe_witness

#: Histogram bucket upper bounds in milliseconds: 0.001, 0.002, ... (log2).
_N_BUCKETS = 28
BUCKET_BOUNDS_MS = tuple(0.001 * (1 << i) for i in range(_N_BUCKETS))


class LatencyHistogram:
    """Fixed log2 buckets; the last bucket is an overflow catch-all.

    Thread-safe on its own (internal lock), so it can also be used
    standalone — the HTTP server keeps per-endpoint histograms without
    routing every sample through a :class:`StoreMetrics` lock.
    """

    def __init__(self) -> None:
        self._hist_lock = maybe_witness(
            "LatencyHistogram._hist_lock", threading.Lock()
        )
        self._counts = [0] * (_N_BUCKETS + 1)
        self._total_ms = 0.0
        self._max_ms = 0.0
        self._count = 0

    def record(self, latency_ms: float) -> None:
        idx = 0
        while idx < _N_BUCKETS and latency_ms > BUCKET_BOUNDS_MS[idx]:
            idx += 1
        with self._hist_lock:
            self._counts[idx] += 1
            self._count += 1
            self._total_ms += latency_ms
            if latency_ms > self._max_ms:
                self._max_ms = latency_ms

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        with self._hist_lock:
            count = self._count
            counts = list(self._counts)
        if not count:
            return 0.0
        target = q * count
        seen = 0
        for idx, bucket in enumerate(counts):
            seen += bucket
            if seen >= target:
                return BUCKET_BOUNDS_MS[min(idx, _N_BUCKETS - 1)]
        return BUCKET_BOUNDS_MS[-1]

    def as_dict(self) -> dict:
        # Sparse encoding: only non-empty buckets, keyed by upper bound.
        with self._hist_lock:
            counts = list(self._counts)
            count = self._count
            total_ms = self._total_ms
            max_ms = self._max_ms
        buckets = {
            f"{BUCKET_BOUNDS_MS[min(i, _N_BUCKETS - 1)]:g}": c
            for i, c in enumerate(counts)
            if c
        }
        mean = total_ms / count if count else 0.0
        return {
            "count": count,
            "mean_ms": round(mean, 6),
            "max_ms": round(max_ms, 6),
            "p50_ms": self.quantile(0.50),
            "p99_ms": self.quantile(0.99),
            "buckets_ms": buckets,
        }


class RollingQuantile:
    """Exact quantiles over a sliding window of the last *window* samples.

    The cluster router derives its hedge delay from each backend's
    *recent* p95 — the all-time log2-bucketed
    :class:`LatencyHistogram` is the wrong instrument for that: its
    buckets are coarse (a 2× band around the true quantile) and it
    never forgets, so one slow warm-up minute would inflate the hedge
    delay forever.  A few hundred exact samples with eviction track the
    regime the backend is in *now*.

    Thread-safe; ``quantile`` sorts the window (bounded, default 256
    samples) on demand, which at router call rates is cheaper than
    maintaining an order statistic tree.
    """

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._lock = maybe_witness("RollingQuantile._lock", threading.Lock())
        self._samples: list[float] = []
        self._next = 0  # ring-buffer write position once full

    def observe(self, value: float) -> None:
        with self._lock:
            if len(self._samples) < self._window:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._window

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def quantile(self, q: float, default: float = 0.0) -> float:
        """The q-quantile of the current window; *default* when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return default
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]


@dataclass
class _CodecDecodeStats:
    decodes: int = 0
    integers: int = 0
    seconds: float = 0.0


@dataclass
class _QueryCounters:
    total: int = 0
    ok: int = 0
    partial: int = 0
    failed: int = 0
    timed_out: int = 0


class StoreMetrics:
    """Aggregates everything the engine and decode path report.

    Implements :class:`repro.core.decode.DecodeObserver` (the
    ``record_decode`` method), so it can be passed straight to
    :func:`repro.core.decode`.
    """

    def __init__(self) -> None:
        self._lock = maybe_witness("StoreMetrics._lock", threading.Lock())
        self._queries = _QueryCounters()
        self._latency = LatencyHistogram()
        self._decodes: dict[str, _CodecDecodeStats] = {}
        self._compressed_ops = 0
        self._decoded_ops = 0
        self._cache_stats_fn = None
        self._plan_cache_stats_fn = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_query(
        self,
        latency_ms: float,
        *,
        partial: bool = False,
        failed: bool = False,
        timed_out: bool = False,
    ) -> None:
        with self._lock:
            self._queries.total += 1
            if timed_out:
                self._queries.timed_out += 1
            if failed:
                self._queries.failed += 1
            elif partial:
                self._queries.partial += 1
            else:
                self._queries.ok += 1
            self._latency.record(latency_ms)

    def record_decode(self, codec_name: str, n: int, seconds: float) -> None:
        with self._lock:
            stats = self._decodes.setdefault(codec_name, _CodecDecodeStats())
            stats.decodes += 1
            stats.integers += n
            stats.seconds += seconds

    def record_exec_ops(self, compressed: int, decoded: int) -> None:
        """Fold one query's operator counters into the running totals."""
        with self._lock:
            self._compressed_ops += compressed
            self._decoded_ops += decoded

    def attach_cache(self, cache) -> None:
        """Source cache counters from *cache* (a DecodeCache) at snapshot."""
        self._cache_stats_fn = cache.stats

    def attach_plan_cache(self, cache) -> None:
        """Source plan-result cache counters (a PlanResultCache) at snapshot."""
        self._plan_cache_stats_fn = cache.stats

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-able dict with every instrument's current state.

        The attached cache stats callbacks run *outside* ``_lock``: they
        are foreign code that takes the cache's own lock, and calling
        them under ours would add a metrics-lock → cache-lock ordering
        edge (and deadlock outright if a callback ever re-entered the
        metrics).  The snapshot stays consistent per-instrument; cross-
        instrument skew of a few counters is inherent to live metrics.
        """
        cache = self._cache_stats_fn().as_dict() if self._cache_stats_fn else None
        plan_cache = (
            self._plan_cache_stats_fn().as_dict()
            if self._plan_cache_stats_fn
            else None
        )
        with self._lock:
            return {
                "queries": {
                    "total": self._queries.total,
                    "ok": self._queries.ok,
                    "partial": self._queries.partial,
                    "failed": self._queries.failed,
                    "timed_out": self._queries.timed_out,
                },
                "latency": self._latency.as_dict(),
                "cache": cache,
                "plan_cache": plan_cache,
                "exec_ops": {
                    "compressed": self._compressed_ops,
                    "decoded": self._decoded_ops,
                },
                "decodes_by_codec": {
                    name: {
                        "decodes": s.decodes,
                        "integers": s.integers,
                        "seconds": round(s.seconds, 6),
                    }
                    for name, s in sorted(self._decodes.items())
                },
            }
