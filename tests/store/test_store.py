"""PostingStore + Shard: building, decoding, persistence."""

import numpy as np
import pytest

from repro import get_codec
from repro.core.base import IntegerSetCodec
from repro.core.errors import ReproError
from repro.store import (
    DecodeCache,
    DuplicateShardError,
    DuplicateTermError,
    PostingStore,
    StoreMetrics,
    UnknownShardError,
    resolve_codec,
)


def _store() -> PostingStore:
    store = PostingStore()
    shard = store.create_shard("s0", codec="WAH", universe=1_000)
    shard.add("a", np.arange(0, 1_000, 2))
    shard.add("b", np.arange(0, 1_000, 3))
    return store


def test_resolve_codec_forms():
    assert resolve_codec("Roaring").name == "Roaring"
    assert resolve_codec("Adaptive").name == "Adaptive"
    inst = get_codec("VB")
    assert resolve_codec(inst) is inst
    assert isinstance(resolve_codec("EWAH"), IntegerSetCodec)
    with pytest.raises(KeyError):
        resolve_codec("NoSuchCodec")


def test_create_and_duplicate_shard():
    store = _store()
    assert store.shard_names() == ["s0"]
    assert "s0" in store and len(store) == 1
    with pytest.raises(DuplicateShardError):
        store.create_shard("s0")


def test_unknown_shard_and_drop():
    store = _store()
    with pytest.raises(UnknownShardError):
        store.shard("nope")
    store.drop_shard("s0")
    assert len(store) == 0
    with pytest.raises(UnknownShardError):
        store.drop_shard("s0")


def test_duplicate_term_rejected():
    store = _store()
    with pytest.raises(DuplicateTermError):
        store.shard("s0").add("a", [1, 2, 3])


def test_add_compressed_checks_codec():
    store = _store()
    cs = get_codec("VB").compress([1, 2, 3], universe=1_000)
    with pytest.raises(ReproError):
        store.shard("s0").add_compressed("c", cs)
    wah = get_codec("WAH").compress([1, 2, 3], universe=1_000)
    store.shard("s0").add_compressed("c", wah)
    assert store.get("s0", "c") is wah


def test_shard_size_accounting():
    shard = _store().shard("s0")
    assert shard.n_postings == 500 + 334
    assert shard.size_bytes == sum(cs.size_bytes for cs in shard.postings.values())


def test_decode_term_roundtrip_and_missing():
    store = _store()
    assert np.array_equal(store.decode_term("s0", "a"), np.arange(0, 1_000, 2))
    assert store.decode_term("s0", "ghost").size == 0


def test_decode_term_uses_cache_and_observer():
    store = _store()
    cache = DecodeCache()
    metrics = StoreMetrics()
    first = store.decode_term("s0", "a", cache=cache, observer=metrics)
    second = store.decode_term("s0", "a", cache=cache, observer=metrics)
    assert second is first  # served from cache, same read-only array
    assert ("s0", "a", "WAH") in cache
    snap = metrics.snapshot()
    assert snap["decodes_by_codec"]["WAH"]["decodes"] == 1
    assert snap["decodes_by_codec"]["WAH"]["integers"] == 500


def test_adaptive_shard_decodes_and_caches_inner_codec():
    store = PostingStore()
    shard = store.create_shard("s0", codec="Adaptive", universe=2**16)
    dense = np.arange(0, 2**16, 2)
    shard.add("dense", dense)
    cache = DecodeCache()
    out = store.decode_term("s0", "dense", cache=cache)
    assert np.array_equal(out, dense)
    # The cache key carries the *wrapper* name on the store path.
    assert ("s0", "dense", "Adaptive") in cache


def test_stats_shape():
    stats = _store().stats()
    assert stats["shards"]["s0"]["codec"] == "WAH"
    assert stats["shards"]["s0"]["terms"] == 2
    assert stats["total_terms"] == 2
    assert stats["total_size_bytes"] > 0


def test_save_load_roundtrip(tmp_path):
    store = _store()
    store.save(tmp_path / "idx")
    loaded = PostingStore.load(tmp_path / "idx")
    assert loaded.shard_names() == ["s0"]
    sh = loaded.shard("s0")
    assert sh.codec.name == "WAH" and sh.universe == 1_000
    assert np.array_equal(loaded.decode_term("s0", "a"), np.arange(0, 1_000, 2))
    assert np.array_equal(loaded.decode_term("s0", "b"), np.arange(0, 1_000, 3))
    assert not loaded.load_errors


def test_save_load_adaptive_shard(tmp_path):
    store = PostingStore()
    shard = store.create_shard("s0", codec="Adaptive", universe=2**14)
    sparse = np.array([3, 99, 2**14 - 1])
    shard.add("t", sparse)
    store.save(tmp_path / "idx")
    loaded = PostingStore.load(tmp_path / "idx")
    assert loaded.shard("s0").codec.name == "Adaptive"
    assert np.array_equal(loaded.decode_term("s0", "t"), sparse)


def _big_store() -> PostingStore:
    """Several pages per segment, so a torn rewrite cannot hide in page 0."""
    store = PostingStore()
    rng = np.random.default_rng(7)
    for name, codec in (("s0", "Roaring"), ("s1", "SIMDBP128*")):
        shard = store.create_shard(name, codec=codec, universe=1 << 20)
        for t in range(12):
            shard.add(f"t{t:02d}", np.unique(rng.integers(0, 1 << 20, size=4_000)))
    return store


def test_resave_over_the_mapped_directory_is_bit_identical(tmp_path):
    """load(d).save(d) rewrites the very file the store is mapped from."""
    built = _big_store()
    built.save(tmp_path)
    loaded = PostingStore.load(tmp_path)
    loaded.save(tmp_path)
    for reread in (loaded, PostingStore.load(tmp_path)):
        for name in built.shard_names():
            for term in built.shard(name).postings:
                assert np.array_equal(
                    reread.decode_term(name, term), built.decode_term(name, term)
                ), (name, term)
    assert not list(tmp_path.rglob("*.tmp"))


def test_kill_between_segment_write_and_rename_keeps_old_segment(
    tmp_path, monkeypatch
):
    import os

    from repro.store import WritablePostingStore

    built = _big_store()
    built.save(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*.rpro3")}

    def killed(src, dst):
        raise KeyboardInterrupt("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        PostingStore.load(tmp_path).save(tmp_path)
    monkeypatch.undo()

    assert {p: p.read_bytes() for p in tmp_path.rglob("*.rpro3")} == before
    assert list(tmp_path.rglob("*.rpro3.tmp"))  # the torn write's only trace
    reread = PostingStore.load(tmp_path)
    assert np.array_equal(
        reread.decode_term("s0", "t00"), built.decode_term("s0", "t00")
    )
    WritablePostingStore.open(tmp_path).close()  # orphan GC sweeps it
    assert not list(tmp_path.rglob("*.tmp"))


def test_save_keeps_only_the_inert_mapped_keyword(tmp_path):
    store = _store()
    store.save(tmp_path / "a", mapped=True)  # still parses: the benchmark passes it
    with pytest.raises(TypeError, match="mapped"):
        store.save(tmp_path / "b", mapped=False)
    assert not (tmp_path / "b").exists()


def test_loaded_store_is_immutable(tmp_path):
    from repro.store import MappedSegmentError

    _store().save(tmp_path)
    loaded = PostingStore.load(tmp_path)
    with pytest.raises(MappedSegmentError, match="immutable"):
        loaded.shard("s0").add("c", [1, 2, 3])
