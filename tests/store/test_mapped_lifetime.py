"""Lifetime & concurrency for mapped segments under compaction churn.

The hazard a zero-copy read path introduces: a query holds numpy views
over a file that compaction wants to delete.  The refcounted segment
handle must guarantee

* arrays already decoded stay valid after the file is retired (the
  decode chokepoint copies mapped results onto the heap);
* a snapshot taken before a compaction keeps serving the *old* segment
  correctly while the new one is live (no mixed generations);
* disposal with exported buffer views never surfaces a ``BufferError``;
* concurrent readers racing a compacting writer always see a consistent
  value set.
"""

from __future__ import annotations

import gc
import os
import threading

import numpy as np

from repro.core.decode import decode
from repro.core.registry import get_codec
from repro.store.cache import DecodeCache
from repro.store.engine import QueryEngine
from repro.store.mapped import (
    MappedPostings,
    MappedSegment,
    write_mapped_segment,
)
from repro.store.plan import Term, compile_shard_plan
from repro.store.segments import WritablePostingStore

UNIVERSE = 1 << 13


def _write_segment(path, table, codec_name="Roaring"):
    codec = get_codec(codec_name)
    write_mapped_segment(
        path,
        [(t, codec.compress(v, universe=UNIVERSE)) for t, v in table.items()],
    )
    return MappedSegment.open(path)


def test_decoded_arrays_survive_file_retirement(tmp_path):
    table = {"a": np.arange(0, 900, 4, dtype=np.int64)}
    path = tmp_path / "seg.rpro3"
    seg = _write_segment(path, table)
    mp = MappedPostings(seg)
    out = decode(mp["a"])

    assert seg.retire() is True  # POSIX: unlink while mapped succeeds
    assert not os.path.exists(path)
    del mp
    gc.collect()
    # The decode result is a heap copy — correct long after both the
    # file and the mapping are gone.
    assert np.array_equal(out, table["a"])


def test_dispose_with_live_views_raises_no_buffererror(tmp_path):
    table = {"a": np.arange(128, dtype=np.int64)}
    seg = _write_segment(tmp_path / "seg.rpro3", table, codec_name="EWAH")
    cs = MappedPostings(seg)["a"]  # zero-copy views into the map
    assert not cs.payload.flags.owndata

    seg.release()  # refcount hits zero with exported views alive
    assert seg.closed
    # The mapping could not close (views alive) but no error escaped,
    # and the views still read valid pages.
    assert np.array_equal(decode(cs), table["a"])


def test_pin_defers_disposal_until_decode_finishes(tmp_path):
    seg = _write_segment(
        tmp_path / "seg.rpro3", {"a": np.array([1, 2, 3], dtype=np.int64)}
    )
    with seg.pin():
        seg.release()  # last reference dropped mid-decode
        assert not seg.closed  # ...but the pin holds disposal back
    assert seg.closed  # released the moment the pin exits


def test_snapshot_keeps_serving_old_segment_across_compaction(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Roaring", universe=UNIVERSE)
    store.append("s0", "x", list(range(0, 300, 3)))
    store.append("s0", "y", [7, 77, 777])
    store.compact()

    cache = DecodeCache()
    # Compile against the current (mapped, gen-1) snapshot...
    plan = compile_shard_plan(store, "s0", Term("x"), cache=cache)
    # ...then mutate + compact: the gen-1 segment file is retired.
    store.append("s0", "x", [UNIVERSE - 1])
    store.compact()

    # The in-flight plan still evaluates against its snapshot, off the
    # retired map, bit-exact — compaction is invisible mid-query.
    old = plan.execute(cache=cache)
    assert old.tolist() == list(range(0, 300, 3))

    # A fresh compile sees the new generation.
    fresh = compile_shard_plan(store, "s0", Term("x"), cache=cache)
    assert fresh.execute(cache=cache).tolist() == list(range(0, 300, 3)) + [
        UNIVERSE - 1
    ]
    store.close()


def test_exactly_one_segment_file_per_shard_after_churn(tmp_path):
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="Adaptive", universe=UNIVERSE)
    for round_ in range(5):
        store.append("s0", f"t{round_}", [round_, round_ + 100])
        store.compact()
    gc.collect()
    segs = [
        f
        for f in os.listdir(tmp_path / "s0")
        if f.endswith(".rpro3")
    ]
    # Superseded generations were retired (unlinked), not leaked.
    assert len(segs) == 1, segs
    store.close()


def test_concurrent_readers_race_compacting_writer(tmp_path):
    """Readers hammering a stable term while the writer churns other
    terms through ingest + compaction must always see the same values
    and never hit a lifetime error."""
    store = WritablePostingStore.open(tmp_path, fsync=False)
    store.create_shard("s0", codec="Roaring", universe=UNIVERSE)
    stable = sorted(np.random.default_rng(3).choice(2000, 200, replace=False).tolist())
    store.append("s0", "stable", stable)
    store.compact()

    engine = QueryEngine(store, cache=DecodeCache())
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                result = engine.execute(Term("stable"))
                assert result.ok, result.status
                assert result.values.tolist() == stable
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for i in range(12):
            store.append("s0", f"churn{i % 3}", [i * 5, i * 5 + 1])
            store.compact()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
    assert not errors, errors[0]
    engine.close()
    store.close()


def test_reopened_store_never_reuses_stale_cache_arrays(tmp_path):
    """Cache-key epochs: same directory, same term, different mapping —
    a shared cache across a close/reopen must miss, not serve stale."""
    store = WritablePostingStore.open(tmp_path)
    store.create_shard("s0", codec="WAH", universe=UNIVERSE)
    store.append("s0", "a", [1, 2, 3])
    store.compact()
    cache = DecodeCache()
    assert store.decode_term("s0", "a", cache=cache).tolist() == [1, 2, 3]
    key_before = next(iter(cache._data))
    store.append("s0", "a", [4])
    store.compact()
    store.close()

    reopened = WritablePostingStore.open(tmp_path)
    assert reopened.decode_term("s0", "a", cache=cache).tolist() == [1, 2, 3, 4]
    keys = list(cache._data)
    # The reopened store decoded under a new epoch key; the pre-reopen
    # entry is unreachable, not overwritten.
    assert key_before in keys
    assert len(keys) == 2
    reopened.close()
