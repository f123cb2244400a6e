"""repro.store — the serving layer over the 24-codec roster.

The paper measures one-shot operations; the ROADMAP's north star is a
system that *serves* them.  This package is that system's kernel:

* :class:`PostingStore` — named shards of compressed term lists, any
  codec per shard (registry members or the Adaptive wrapper), persisted
  as one memory-mapped segment per shard with corruption-tolerant
  loading (a loaded store is immutable);
* :class:`DecodeCache` — bounded LRU of decoded arrays keyed by
  ``(shard, term, codec)`` with hit/miss/eviction counters;
* :func:`compile_shard_plan` / :class:`Query` — term-level boolean
  queries compiled to :mod:`repro.ops.expressions` trees whose leaves
  carry their decode-cache keys; ``ShardPlan.execute`` delegates to
  :func:`repro.ops.evaluate`, the one evaluator (leaf-size-ordered SvS,
  compressed OR, capability-driven compressed folds), and
  :class:`ExecStats` is that evaluator's counter pair;
* :class:`QueryEngine` — concurrent scatter-gather batch execution with
  per-query deadlines and graceful degradation (failing shards flag the
  result partial instead of crashing the query);
* :class:`StoreMetrics` — latency histograms, cache stats, per-codec
  decode counts, snapshot-able as JSON (also via
  ``python -m repro.store --metrics``);
* :class:`WritablePostingStore` — the mutable write path: acknowledged
  ingest through a CRC-checked WAL into in-memory delta segments,
  crash recovery by replay, and background compaction that re-runs
  per-list codec selection (``docs/write_path.md``);
* :class:`MappedSegment` / :class:`MappedPostings` — the one on-disk
  layout: whole-shard segment files opened with no per-term parsing,
  terms materialised lazily as zero-copy views over the map
  (``docs/segment_format.md``); :func:`migrate_store` upgrades a
  legacy per-term directory in place.

Quickstart::

    from repro.store import And, DecodeCache, PostingStore, QueryEngine

    store = PostingStore()
    shard = store.create_shard("docs", codec="Roaring", universe=1 << 20)
    shard.add("news", news_ids)
    shard.add("sports", sports_ids)
    engine = QueryEngine(store, cache=DecodeCache())
    result = engine.execute(And("news", "sports"))
    print(result.values, engine.metrics.snapshot())

Queries are typed ASTs (:class:`Term` / :class:`And` / :class:`Or`);
the legacy nested-tuple grammar was removed with wire protocol v2 —
:func:`parse_query` rejects tuples outright.  The network layer over
this package lives in :mod:`repro.server`.
"""

from repro.ops.expressions import ExecStats
from repro.store.cache import (
    CacheStats,
    DecodeCache,
    DecodeFlight,
    PlanResultCache,
)
from repro.store.engine import QueryEngine, QueryResult
from repro.store.errors import (
    DuplicateShardError,
    DuplicateTermError,
    ManifestParamsError,
    MappedSegmentError,
    ShardLoadError,
    StoreError,
    UnknownShardError,
)
from repro.store.mapped import (
    MappedPostings,
    MappedSegment,
    write_mapped_segment,
)
from repro.store.metrics import LatencyHistogram, StoreMetrics
from repro.store.plan import (
    And,
    Or,
    Query,
    QueryNode,
    ShardPlan,
    Term,
    canonical_key,
    canonicalize,
    compile_shard_plan,
    parse_query,
    query_from_json,
    query_terms,
)
from repro.store.segments import (
    DeltaSegment,
    WritablePostingStore,
    WritableShard,
)
from repro.store.store import (
    PostingStore,
    Shard,
    ShardState,
    migrate_store,
    resolve_codec,
)
from repro.store.wal import WalCorruptionError, WriteAheadLog, replay_wal

__all__ = [
    "PostingStore",
    "Shard",
    "ShardState",
    "WritablePostingStore",
    "WritableShard",
    "DeltaSegment",
    "WriteAheadLog",
    "replay_wal",
    "WalCorruptionError",
    "ManifestParamsError",
    "MappedSegmentError",
    "MappedPostings",
    "MappedSegment",
    "write_mapped_segment",
    "migrate_store",
    "resolve_codec",
    "DecodeCache",
    "DecodeFlight",
    "PlanResultCache",
    "CacheStats",
    "Query",
    "Term",
    "And",
    "Or",
    "QueryNode",
    "parse_query",
    "canonical_key",
    "canonicalize",
    "query_from_json",
    "ShardPlan",
    "ExecStats",
    "compile_shard_plan",
    "query_terms",
    "QueryEngine",
    "QueryResult",
    "StoreMetrics",
    "LatencyHistogram",
    "StoreError",
    "UnknownShardError",
    "DuplicateShardError",
    "DuplicateTermError",
    "ShardLoadError",
]
