"""Regressions for the bugs the REPRO100-series analyzer flagged.

Each test pins one of the three genuine findings from the first run of
the concurrency rules over the tree (see ``docs/static_analysis.md``):

* REPRO104 — ``PostingStore.decode_term`` built cache keys without the
  term's rewrite generation, so a compaction that re-encoded a term
  under the *same* codec kept serving the stale predecessor array.
* the ``StoreMetrics.snapshot`` callbacks-under-lock hazard — foreign
  stats callbacks ran inside the metrics lock, deadlocking on any
  re-entry and creating an unordered metrics→cache lock edge.
* REPRO107 — ``WritablePostingStore._absorb_replay`` mutated the delta
  segment and revision counters without the write lock.
"""

import sys
import threading
import time

from repro.store.cache import CacheStats, DecodeCache
from repro.store.metrics import StoreMetrics
from repro.store.segments import WritablePostingStore
from repro.analysis import runtime_witness


def test_decode_term_cache_survives_same_codec_compaction(tmp_path):
    """Re-encoding a term under the same codec must shift its cache key."""
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s", codec="Roaring", universe=4096)
    cache = DecodeCache(max_entries=8)
    try:
        store.append("s", "t", [1, 2, 3])
        store.compact()
        first = store.decode_term("s", "t", cache=cache)
        assert first.tolist() == [1, 2, 3]

        store.append("s", "t", [4])
        store.compact()  # same codec, new generation
        second = store.decode_term("s", "t", cache=cache)
        assert second.tolist() == [1, 2, 3, 4]
    finally:
        store.close()


def test_metrics_snapshot_allows_reentrant_stats_callback():
    """Stats callbacks run outside the metrics lock: re-entry must not
    deadlock (a callback recording a query is the minimal re-entry)."""
    metrics = StoreMetrics()

    class ReentrantCache:
        def stats(self):
            metrics.record_query(1.0)  # takes StoreMetrics._lock
            return CacheStats(
                hits=1,
                misses=0,
                evictions=0,
                insertions=0,
                entries=0,
                bytes=0,
                max_entries=1,
                max_bytes=1,
            )

    metrics.attach_cache(ReentrantCache())
    result = {}
    worker = threading.Thread(
        target=lambda: result.update(snap=metrics.snapshot()), daemon=True
    )
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive(), "snapshot deadlocked on re-entrant callback"
    assert result["snap"]["cache"]["hits"] == 1
    assert result["snap"]["queries"]["total"] == 1


def test_wal_replay_holds_write_lock(tmp_path):
    """Recovery's delta replay runs under the store write lock — the
    witness must observe the write-lock → delta-lock edge during open."""
    seeding = WritablePostingStore.open(tmp_path)
    seeding.create_shard("s", codec="Roaring", universe=4096)
    seeding.append("s", "t", [7, 8])  # durable in the WAL, not compacted

    runtime_witness.force_enable(True)
    runtime_witness.reset()
    try:
        recovered = WritablePostingStore.open(tmp_path)
        try:
            edge = (
                "WritablePostingStore._write_lock",
                "DeltaSegment._lock",
            )
            assert edge in runtime_witness.observed_edges()
            recovered.compact()  # fold the replayed deltas into the base
            assert recovered.decode_term("s", "t").tolist() == [7, 8]
        finally:
            recovered.close()
    finally:
        runtime_witness.force_enable(False)
        runtime_witness.reset()
        seeding.close()


def test_write_stats_is_safe_against_ingest_and_compaction_churn(tmp_path):
    """``write_stats()`` (what ``GET /metrics`` calls on the event loop)
    races a thread that ingests and compacts continuously: it used to
    flush the WAL handle compaction had just closed (``ValueError: flush
    of closed file``).  Zero exceptions, and ``wal_bytes`` never shrinks
    while the same WAL file stays current."""
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s", codec="Roaring", universe=1 << 16)
    stop = threading.Event()
    errors: list[BaseException] = []
    calls = 0

    def churn():
        try:
            n = 0
            while not stop.is_set():
                store.ingest_batch([("add", "s", f"t{n % 7}", [n % 60_000])])
                n += 1
                if n % 3 == 0:
                    store.compact()
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    def read_stats():
        nonlocal calls
        last: dict[str, int] = {}
        try:
            while not stop.is_set():
                path = store._wal.path
                stats = store.write_stats()
                calls += 1
                if store._wal.path == path:  # no rotation in between
                    assert stats["wal_bytes"] >= last.get(path, 0)
                    last[path] = stats["wal_bytes"]
        except BaseException as exc:
            errors.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=churn)] + [
        threading.Thread(target=read_stats) for _ in range(3)
    ]
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.5)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(switch_interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert calls > 100 and store.compactions > 1
    finally:
        store.close()
