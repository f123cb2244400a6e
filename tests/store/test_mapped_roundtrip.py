"""Property-based v3 (memory-mapped) round trips across every codec.

The mapped battery's core invariant: writing random posting sets in the
v3 segment layout and reopening them via ``mmap`` must be **bit-exact**
against two independent references —

* the original in-memory arrays (the numpy differential oracle);
* the cache-aware served decode path (``decode_term``), off the map vs
  off the in-heap store the segment was saved from.

Codecs sweep the whole registry plus ``Adaptive``, so all 24 wire
formats parse off an aligned zero-copy view.  A second suite checks the
zero-copy claim itself: no per-term Python parsing at open (open cost
is independent of term count) and decoded arrays never alias writable
mapped memory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import all_codec_names
from repro.core.decode import decode
from repro.core.registry import get_codec
from repro.core.serialize import dump
from repro.store.mapped import (
    MappedIntegerSet,
    MappedPostings,
    MappedSegment,
    write_mapped_segment,
)
from repro.store.store import (
    PostingStore,
    manifest_dict,
    migrate_store,
    write_manifest,
)

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

UNIVERSE = 1 << 14

ALL_CODECS = sorted(all_codec_names()) + ["Adaptive"]


@st.composite
def posting_tables(draw):
    """term → sorted unique ids, with adversarial shapes mixed in."""
    n_terms = draw(st.integers(1, 6))
    table = {}
    for i in range(n_terms):
        shape = draw(st.sampled_from(["sparse", "dense_run", "edge"]))
        if shape == "sparse":
            vals = draw(
                st.lists(
                    st.integers(0, UNIVERSE - 1),
                    min_size=1,
                    max_size=60,
                    unique=True,
                )
            )
        elif shape == "dense_run":
            start = draw(st.integers(0, UNIVERSE - 200))
            vals = list(range(start, start + draw(st.integers(1, 150))))
        else:
            vals = draw(
                st.sampled_from([[0], [UNIVERSE - 1], [0, UNIVERSE - 1]])
            )
        table[f"term{i:02d}"] = np.array(sorted(vals), dtype=np.int64)
    return table


def _build_store(codec: str, table) -> PostingStore:
    store = PostingStore()
    store.create_shard("s0", codec=codec, universe=UNIVERSE)
    for term, vals in table.items():
        store.add_list("s0", term, vals)
    return store


@pytest.mark.parametrize("codec", ALL_CODECS)
@SETTINGS
@given(table=posting_tables())
def test_mapped_store_is_bit_exact_for_every_codec(codec, table, tmp_path_factory):
    """mapped load == in-heap store == original arrays, for all 24 codecs + Adaptive."""
    tmp = tmp_path_factory.mktemp("mapped")
    store = _build_store(codec, table)
    store.save(tmp)

    mapped = PostingStore.load(tmp)
    assert isinstance(mapped.shard("s0").postings, MappedPostings)

    for term, vals in table.items():
        off_map = mapped.decode_term("s0", term)
        in_heap = store.decode_term("s0", term)
        assert np.array_equal(off_map, vals), (codec, term)
        assert np.array_equal(off_map, in_heap), (codec, term)

    # Aggregate metadata answers off the entry table, not per-term parses.
    assert mapped.shard("s0").n_postings == store.shard("s0").n_postings
    assert mapped.shard("s0").size_bytes == store.shard("s0").size_bytes


def _save_legacy_v2(store: PostingStore, directory) -> None:
    """Lay *store* out as the removed v2 writer did: one ``.rpro`` per
    term.  Codec breadth only — the byte-level guard is the golden
    directory in ``test_legacy_format.py``."""
    manifest = manifest_dict(store)
    manifest["version"] = 2
    for name, spec in manifest["shards"].items():
        (directory / name).mkdir()
        spec["terms"] = {}
        for i, (term, cs) in enumerate(sorted(store.shard(name).postings.items())):
            spec["terms"][term] = f"{name}/{i:06d}.rpro"
            dump(cs, directory / name / f"{i:06d}.rpro")
    write_manifest(str(directory), manifest)


@pytest.mark.parametrize("codec", ["Roaring", "WAH", "GroupVB", "Adaptive"])
@SETTINGS
@given(table=posting_tables())
def test_migration_preserves_every_list(codec, table, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("migrate")
    store = _build_store(codec, table)
    _save_legacy_v2(store, tmp)
    summary = migrate_store(tmp)
    assert not summary["already_mapped"]
    assert summary["terms"] == summary["removed_files"] == len(table)

    reopened = PostingStore.load(tmp)
    assert isinstance(reopened.shard("s0").postings, MappedPostings)
    for term, vals in table.items():
        assert np.array_equal(reopened.decode_term("s0", term), vals)


# ----------------------------------------------------------------------
# Zero-copy contract
# ----------------------------------------------------------------------
def _segment_for(codec_name: str, table, path) -> MappedSegment:
    codec = get_codec(codec_name)
    items = [
        (t, codec.compress(v, universe=UNIVERSE)) for t, v in table.items()
    ]
    write_mapped_segment(path, items)
    return MappedSegment.open(path)


def test_materialized_sets_are_views_over_the_map(tmp_path):
    table = {"a": np.arange(0, 500, 3), "b": np.array([7, 9, UNIVERSE - 1])}
    seg = _segment_for("EWAH", table, tmp_path / "seg.rpro3")
    mp = MappedPostings(seg)
    cs = mp["a"]
    assert isinstance(cs, MappedIntegerSet)
    assert cs.source is seg
    # Payload arrays are zero-copy: read-only views, not heap copies.
    words = cs.payload
    assert isinstance(words, np.ndarray)
    assert not words.flags.owndata
    assert not words.flags.writeable
    # ...but the decode chokepoint hands out an owned array, so results
    # outlive the segment unconditionally.
    out = decode(cs)
    assert out.flags.owndata or out.base is None
    assert np.array_equal(out, table["a"])


def test_open_does_no_per_term_parsing(tmp_path):
    """Opening must not materialise terms; only access does."""
    table = {
        f"t{i:04d}": np.sort(
            np.random.default_rng(i).choice(UNIVERSE, size=50, replace=False)
        )
        for i in range(200)
    }
    seg = _segment_for("Roaring", table, tmp_path / "big.rpro3")
    mp = MappedPostings(seg)
    assert len(mp._materialized) == 0  # nothing parsed at open
    mp["t0100"]
    assert len(mp._materialized) == 1  # exactly the accessed term
    assert mp.total_postings() == 200 * 50  # aggregates stay lazy too
    assert len(mp._materialized) == 1


def test_term_lookup_is_sorted_binary_search(tmp_path):
    """Names are sorted by UTF-8 encoding; find() honours that order."""
    names = ["aa", "ab", "z", "éclair", "中文", "0", "~"]
    table = {n: np.array([1, 2, 3]) for n in names}
    seg = _segment_for("List", table, tmp_path / "names.rpro3")
    stored = [seg.term_at(i) for i in range(seg.term_count)]
    assert stored == sorted(names, key=lambda s: s.encode("utf-8"))
    for n in names:
        assert seg.find(n) is not None, n
    assert seg.find("missing") is None


def test_rewrite_fast_path_is_byte_identical(tmp_path):
    """Copying a mapped term into a new segment reuses the raw blob."""
    table = {"x": np.arange(100), "y": np.array([5, 10, 15])}
    seg = _segment_for("BBC", table, tmp_path / "one.rpro3")
    mp = MappedPostings(seg)
    write_mapped_segment(tmp_path / "two.rpro3", mp.items())
    seg2 = MappedSegment.open(tmp_path / "two.rpro3")
    for term in table:
        a, b = seg.find(term), seg2.find(term)
        assert bytes(seg.raw_blob(a)) == bytes(seg2.raw_blob(b))


def test_mapped_shard_rejects_mutation(tmp_path):
    from repro.store.errors import MappedSegmentError

    seg = _segment_for("WAH", {"a": np.array([1])}, tmp_path / "ro.rpro3")
    mp = MappedPostings(seg)
    with pytest.raises(MappedSegmentError):
        mp["b"] = mp["a"]
    with pytest.raises(MappedSegmentError):
        del mp["a"]
