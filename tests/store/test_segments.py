"""Writable store: delta discipline, compaction protocol, recovery, GC."""

import glob
import json
import os
import threading

import numpy as np
import pytest

from repro.store.cache import DecodeCache
from repro.store.engine import QueryEngine
from repro.store.errors import ManifestParamsError, StoreError, UnknownShardError
from repro.store.plan import Or, Term, compile_shard_plan
from repro.store.segments import (
    DeltaSegment,
    WritablePostingStore,
    apply_delta,
)
from repro.store.store import PostingStore, manifest_path, verify_codec_params
from repro.store.wal import OP_ADD, OP_DELETE


def _query(store, expr):
    return QueryEngine(store).execute(expr)


# ----------------------------------------------------------------------
# DeltaSegment discipline: adds ∩ dels = ∅, always
# ----------------------------------------------------------------------
def test_delta_add_then_delete_leaves_only_delete():
    d = DeltaSegment()
    d.append("t", [1, 2, 3])
    d.delete("t", [2])
    adds, dels, _rev = d.snapshot("t")
    assert adds.tolist() == [1, 3]
    assert dels.tolist() == [2]


def test_delta_delete_then_add_leaves_only_add():
    d = DeltaSegment()
    d.delete("t", [5])
    d.append("t", [5])
    adds, dels, _rev = d.snapshot("t")
    assert adds.tolist() == [5]
    assert dels.tolist() == []


def test_delta_revision_advances_per_mutation():
    d = DeltaSegment()
    r0 = d.revision
    d.append("t", [1])
    d.delete("t", [1])
    assert d.revision == r0 + 2
    assert d.op_count == 2
    assert d.touches("t") and not d.touches("u")


def test_apply_delta_is_subtract_then_union():
    base = np.array([1, 2, 3, 4], dtype=np.int64)
    adds = np.array([4, 9], dtype=np.int64)
    dels = np.array([2, 9], dtype=np.int64)
    # Deletes hit the base; an id both deleted and re-added survives.
    assert apply_delta(base, adds, dels).tolist() == [1, 3, 4, 9]


# ----------------------------------------------------------------------
# Write path basics
# ----------------------------------------------------------------------
def test_append_is_visible_before_compaction(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [3, 1, 40])
    result = _query(store, "news")
    assert result.ok and result.values.tolist() == [1, 3, 40]
    store.close()


def test_delete_masks_compacted_base(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2, 3])
    store.compact()
    store.delete("s0", "news", [2])
    assert _query(store, "news").values.tolist() == [1, 3]
    store.compact()
    assert _query(store, "news").values.tolist() == [1, 3]
    store.close()


def test_ingest_batch_applies_in_order_and_counts(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    n = store.ingest_batch(
        [
            (OP_ADD, "s0", "a", [1, 2]),
            (OP_ADD, "s0", "b", [7]),
            (OP_DELETE, "s0", "a", [2]),
        ]
    )
    assert n == 3
    assert _query(store, "a").values.tolist() == [1]
    assert _query(store, "b").values.tolist() == [7]
    store.close()


def test_bad_ops_rejected(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    with pytest.raises(UnknownShardError):
        store.append("nope", "t", [1])
    with pytest.raises(StoreError):
        store.append("s0", "t", [-4])
    with pytest.raises(StoreError):
        store.ingest_batch([("xor", "s0", "t", [1])])
    store.close()


def test_closed_store_refuses_writes(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.close()
    with pytest.raises(StoreError):
        store.append("s0", "t", [1])


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_compact_folds_delta_and_preserves_results(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Adaptive", universe=2**16)
    rng = np.random.default_rng(7)
    expect = {}
    for t in range(6):
        vals = sorted({int(v) for v in rng.integers(0, 2**16, size=200)})
        store.append("s0", f"t{t}", vals)
        expect[f"t{t}"] = vals
    before = {t: _query(store, t).values.tolist() for t in expect}
    rewritten = store.compact()
    assert rewritten == 6
    assert store.generation == 1
    assert store.shard("s0").pending_ops() == 0
    after = {t: _query(store, t).values.tolist() for t in expect}
    assert before == after == expect
    store.close()


def test_compact_bumps_term_versions_for_cache_safety(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2, 3])
    store.compact()
    v1 = store.shard("s0").read_state().versions.get("news")
    store.append("s0", "news", [9])
    store.compact()
    v2 = store.shard("s0").read_state().versions.get("news")
    assert v2 != v1


def test_cached_query_sees_post_compaction_writes(tmp_path):
    """A warm decode cache must never serve a pre-compaction list."""
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2, 3])
    store.compact()
    engine = QueryEngine(store, cache=DecodeCache(max_entries=64))
    assert engine.execute("news").values.tolist() == [1, 2, 3]  # warms cache
    store.append("s0", "news", [10])
    assert engine.execute("news").values.tolist() == [1, 2, 3, 10]
    store.compact()
    assert engine.execute("news").values.tolist() == [1, 2, 3, 10]
    store.close()


def test_idle_compaction_is_a_noop(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "t", [1])
    assert store.compact() == 1
    gen = store.generation
    assert store.compact() == 0
    assert store.generation == gen
    store.close()


def test_compact_drops_fully_deleted_terms(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "gone", [1, 2])
    store.compact()
    store.delete("s0", "gone", [1, 2])
    store.compact()
    assert "gone" not in PostingStore.load(tmp_path).shard("s0").postings
    result = _query(store, "gone")
    assert result.values is not None and result.values.tolist() == []
    store.close()


def test_compact_removes_replaced_segment_files(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "t", [1])
    store.compact()
    first_gen = set(glob.glob(str(tmp_path / "s0" / "*.rpro3")))
    store.append("s0", "t", [2])
    store.compact()
    second_gen = set(glob.glob(str(tmp_path / "s0" / "*.rpro3")))
    # The rewritten shard's old generation-stamped segment is gone, not
    # accumulating forever.
    assert len(first_gen) == len(second_gen) == 1
    assert first_gen.isdisjoint(second_gen)
    store.close()


def test_adaptive_codec_reselects_at_compaction(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Adaptive", universe=2**14)
    store.append("s0", "dense", list(range(0, 2**14, 2)))
    store.append("s0", "sparse", [5, 9000])
    store.compact()
    state = store.shard("s0").read_state()
    # Adaptive re-selected per-list representations at compaction time:
    # the wrapper's inner payload records the winning codec.
    dense_pick = state.postings["dense"].payload.codec_name
    sparse_pick = state.postings["sparse"].payload.codec_name
    assert dense_pick != sparse_pick
    store.close()


def test_compaction_under_concurrent_queries_never_changes_results(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=2**14)
    rng = np.random.default_rng(3)
    oracle: dict[str, set] = {f"t{i}": set() for i in range(4)}
    for t, vals in oracle.items():
        add = {int(v) for v in rng.integers(0, 2**14, size=300)}
        vals |= add
        store.append("s0", t, sorted(add))
    engine = QueryEngine(store, cache=DecodeCache(max_entries=64))
    expected = sorted(oracle["t0"] | oracle["t1"])
    stop = threading.Event()
    failures: list[str] = []

    def reader() -> None:
        while not stop.is_set():
            got = engine.execute(Or("t0", "t1"))
            if not got.ok or got.values.tolist() != expected:
                failures.append(f"{got.status}: {got.error}")
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for th in threads:
        th.start()
    for _ in range(5):
        store.compact()
    stop.set()
    for th in threads:
        th.join()
    assert not failures
    store.close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def test_reopen_without_close_replays_wal(tmp_path):
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2, 3])
    store.delete("s0", "news", [2])
    # Simulate a crash: abandon the store without close()/compact().
    del store
    recovered = WritablePostingStore.open(tmp_path, fsync=False)
    assert recovered.recovered_ops >= 3
    assert _query(recovered, "news").values.tolist() == [1, 3]
    recovered.close()
    # A clean reopen after close() serves the compacted segments.
    readonly = PostingStore.load(tmp_path)
    plan = compile_shard_plan(readonly, "s0", Term("news"))
    assert plan.execute().tolist() == [1, 3]


def test_torn_wal_tail_is_dropped_on_reopen(tmp_path):
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2])
    wal_path = store._wal.path
    del store
    with open(wal_path, "ab") as fh:
        fh.write(b"\x99\x00\x00")  # torn record header
    recovered = WritablePostingStore.open(tmp_path, fsync=False)
    assert recovered.recovered_tail_bytes == 3
    assert _query(recovered, "news").values.tolist() == [1, 2]
    recovered.close()


def test_zero_byte_wal_from_pre_first_sync_kill_recovers(tmp_path):
    """A store whose newest WAL never reached its first sync reopens.

    Killing a fresh writable server before any ingest leaves a 0-byte
    ``wal-*.log`` (the header was buffered, never flushed).  Nothing
    acknowledged can live in a file that never synced, so recovery must
    treat it as a torn tail, not corruption — and keep serving whatever
    the older logs and segments hold.
    """
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2])
    store.compact()  # seals into segments, rotates to a fresh WAL
    wal_path = store._wal.path
    del store
    with open(wal_path, "wb"):
        pass  # truncate: the crash-before-first-sync signature
    recovered = WritablePostingStore.open(tmp_path)
    assert _query(recovered, "news").values.tolist() == [1, 2]
    assert recovered.ingest_batch([("add", "s0", "news", [9])]) == 1
    assert _query(recovered, "news").values.tolist() == [1, 2, 9]
    recovered.close()


def test_replay_is_idempotent_over_compacted_base(tmp_path):
    """Crash between manifest commit and WAL truncate re-applies ops."""
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "news", [1, 2, 3])
    store.delete("s0", "news", [2])
    wal_path = store._wal.path
    saved = open(wal_path, "rb").read()
    store.compact()  # manifest now holds the ops' effects; WAL deleted
    del store
    # Resurrect the retired WAL: the crash window where both exist.
    with open(wal_path, "wb") as fh:
        fh.write(saved)
    recovered = WritablePostingStore.open(tmp_path, fsync=False)
    assert _query(recovered, "news").values.tolist() == [1, 3]
    recovered.compact()
    assert _query(recovered, "news").values.tolist() == [1, 3]
    recovered.close()


def test_orphan_segment_files_are_garbage_collected(tmp_path):
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "t", [1])
    store.close()
    debris = [
        tmp_path / "s0" / "segment-g000099.rpro3",  # interrupted compaction
        tmp_path / "s0" / "segment-g000099.rpro3.tmp",  # killed before rename
        tmp_path / "s0" / "g000099-000000.rpro",  # migration killed before unlink
        tmp_path / "manifest.json.tmp",
    ]
    for path in debris:
        path.write_bytes(b"leftover")
    WritablePostingStore.open(tmp_path, fsync=False).close()
    assert not any(path.exists() for path in debris)
    assert len(glob.glob(str(tmp_path / "s0" / "*"))) == 1  # the live segment


def test_recovery_preserves_multi_shard_ops(tmp_path):
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("a", codec="Roaring", universe=4096)
    store.create_shard("b", codec="WAH", universe=4096)
    store.ingest_batch(
        [(OP_ADD, "a", "t", [1, 5]), (OP_ADD, "b", "t", [2, 6])]
    )
    del store
    recovered = WritablePostingStore.open(tmp_path, fsync=False)
    assert _query(recovered, "t").values.tolist() == [1, 2, 5, 6]
    recovered.close()


# ----------------------------------------------------------------------
# Manifest: codec params recorded and verified
# ----------------------------------------------------------------------
def test_manifest_records_codec_params(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "t", [1])
    store.close()
    manifest = json.load(open(manifest_path(tmp_path)))
    assert manifest["version"] == 3
    assert manifest["shards"]["s0"]["params"] == {"array_limit": 4096}


def test_tampered_params_fail_strict_open(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "t", [1])
    store.close()
    path = manifest_path(tmp_path)
    manifest = json.load(open(path))
    manifest["shards"]["s0"]["params"] = {"array_limit": 17}
    json.dump(manifest, open(path, "w"))
    with pytest.raises(ManifestParamsError) as err:
        PostingStore.load(tmp_path)
    assert err.value.codec == "Roaring"
    assert err.value.saved == {"array_limit": 17}
    lenient = PostingStore.load(tmp_path, strict=False)
    assert any(isinstance(e, ManifestParamsError) for e in lenient.load_errors)


def test_verify_codec_params_skips_paramless_manifests():
    from repro.core.registry import get_codec

    # v1 manifests carry no params: nothing to verify.
    verify_codec_params(get_codec("Roaring"), None)
    with pytest.raises(ManifestParamsError):
        verify_codec_params(get_codec("Roaring"), {"array_limit": -1})


def test_all_registered_codecs_report_json_safe_params():
    from repro.core.registry import all_codec_names, get_codec

    for name in all_codec_names():
        params = get_codec(name).params()
        assert params == json.loads(json.dumps(params))
        for v in params.values():
            assert isinstance(v, (int, str)) and not isinstance(v, bool)


def test_write_stats_shape(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.append("s0", "t", [1])
    stats = store.write_stats()
    assert stats["pending_ops"] == 1
    assert stats["wal_records"] >= 2  # shard record + add record
    assert stats["wal_syncs"] >= 2
    store.compact()
    stats = store.write_stats()
    assert stats["generation"] == 1 and stats["compactions"] == 1
    assert stats["pending_ops"] == 0
    store.close()


def test_background_compactor_drains_deltas(tmp_path):
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=4096)
    store.start_compactor(interval_s=0.01)
    store.append("s0", "t", [1, 2, 3])
    deadline = threading.Event()
    for _ in range(500):
        if store.shard("s0").pending_ops() == 0:
            break
        deadline.wait(0.01)
    assert store.shard("s0").pending_ops() == 0
    assert store.generation >= 1
    assert _query(store, "t").values.tolist() == [1, 2, 3]
    store.close()
