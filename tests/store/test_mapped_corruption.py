"""Corruption & torn-write matrix for v3 mapped segments.

Mirrors the WAL torn-tail tests: every region of the file — header,
codec table, names, entry table, payload — is damaged by bit flips and
boundary truncations, and the contract is checked both ways:

* **strict** open raises a typed :class:`MappedSegmentError` for any
  structural damage (metadata CRC covers everything before the payload
  region), and strict *access* raises for payload damage (per-term CRC);
* **lenient** open degrades only the affected terms — the rest of the
  shard keeps serving bit-exact, and whole-file damage (bad magic,
  truncation) leaves an empty shard with the error recorded.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.store.errors import MappedSegmentError
from repro.store.mapped import (
    _HEADER,
    ENTRY_DTYPE,
    MappedPostings,
    MappedSegment,
    write_mapped_segment,
)
from repro.store.store import PostingStore

UNIVERSE = 1 << 13
TABLE = {
    "alpha": np.arange(0, 600, 7, dtype=np.int64),
    "beta": np.array([3, 99, 1024, UNIVERSE - 1], dtype=np.int64),
    "gamma": np.arange(2000, 2300, dtype=np.int64),
    "delta": np.array([0], dtype=np.int64),
}


@pytest.fixture
def segment_path(tmp_path):
    from repro.core.registry import get_codec

    codec = get_codec("Roaring")
    path = tmp_path / "seg.rpro3"
    write_mapped_segment(
        path,
        [(t, codec.compress(v, universe=UNIVERSE)) for t, v in TABLE.items()],
    )
    return path


def _header(path):
    with open(path, "rb") as fh:
        return _HEADER.unpack(fh.read(_HEADER.size))


def _flip_bit(path, offset, bit=0x01):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ bit]))


def _truncate(path, length):
    with open(path, "r+b") as fh:
        fh.truncate(length)


def _regions(path):
    """Named (offset, length) spans for every region of the file."""
    (
        _magic, _ver, _flags, _gen, term_count,
        codec_off, names_off, entries_off, payload_off, file_len, _crc,
    ) = _header(path)
    return {
        "header": (0, _HEADER.size),
        "codec_table": (codec_off, names_off - codec_off),
        "names": (names_off, entries_off - names_off),
        "entries": (entries_off, term_count * ENTRY_DTYPE.itemsize),
        "payload": (payload_off, file_len - payload_off),
    }


# ----------------------------------------------------------------------
# Strict open: any metadata damage raises the typed error
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "region", ["header", "codec_table", "names", "entries"]
)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_strict_open_raises_on_metadata_bit_flips(segment_path, region, where):
    off, length = _regions(segment_path)[region]
    at = {
        "first": off,
        "middle": off + length // 2,
        "last": off + length - 1,
    }[where]
    # Flip a low bit mid-field: header fields, codec names, term names
    # and entry records are all under the metadata CRC.
    _flip_bit(segment_path, at)
    with pytest.raises(MappedSegmentError):
        MappedSegment.open(segment_path, strict=True)


def test_strict_open_identifies_bad_magic(segment_path):
    _flip_bit(segment_path, 0, bit=0xFF)
    with pytest.raises(MappedSegmentError, match="magic"):
        MappedSegment.open(segment_path)


def test_strict_open_rejects_unknown_version(segment_path):
    _flip_bit(segment_path, 4, bit=0x40)  # version u16 lives after magic
    with pytest.raises(MappedSegmentError, match="version"):
        MappedSegment.open(segment_path)


@pytest.mark.parametrize("cut", ["header", "entries", "payload_boundary", "one_byte"])
def test_any_truncation_is_detected_at_open(segment_path, cut):
    """Torn writes: the recorded file length catches every truncation."""
    hdr = _header(segment_path)
    payload_off, file_len = hdr[8], hdr[9]
    length = {
        "header": _HEADER.size - 4,
        "entries": _regions(segment_path)["entries"][0] + 17,
        "payload_boundary": payload_off,
        "one_byte": file_len - 1,
    }[cut]
    _truncate(segment_path, length)
    for strict in (True, False):
        with pytest.raises(MappedSegmentError):
            MappedSegment.open(segment_path, strict=strict)


# ----------------------------------------------------------------------
# Payload damage: lazy, per-term, strict-raise vs lenient-degrade
# ----------------------------------------------------------------------
def _flip_payload_of(path, term):
    seg = MappedSegment.open(path)
    idx = seg.find(term)
    entry = seg._entries[idx]
    payload_off = _header(path)[8]
    at = payload_off + int(entry["payload_off"]) + int(entry["payload_len"]) // 2
    seg.release()
    _flip_bit(path, at)


def test_strict_access_raises_on_payload_flip(segment_path):
    _flip_payload_of(segment_path, "gamma")
    seg = MappedSegment.open(segment_path, strict=True)  # meta intact
    mp = MappedPostings(seg, strict=True)
    with pytest.raises(MappedSegmentError, match="gamma"):
        mp["gamma"]
    # Other terms are untouched — damage is localised to the blob.
    from repro.core.decode import decode

    assert np.array_equal(decode(mp["alpha"]), TABLE["alpha"])


def test_lenient_access_degrades_only_the_flipped_term(segment_path):
    _flip_payload_of(segment_path, "beta")
    failed: dict[str, str] = {}
    seg = MappedSegment.open(segment_path, strict=False)
    mp = MappedPostings(seg, strict=False, failed_sink=failed)
    from repro.core.decode import decode

    assert mp.get("beta") is None  # degraded, reported absent
    assert "beta" in failed and "CRC" in failed["beta"]
    for term in ("alpha", "gamma", "delta"):
        assert np.array_equal(decode(mp[term]), TABLE[term]), term


@pytest.mark.parametrize("boundary", ["first_byte", "last_byte"])
def test_payload_flips_at_blob_boundaries_are_caught(segment_path, boundary):
    seg = MappedSegment.open(segment_path)
    idx = seg.find("alpha")
    entry = seg._entries[idx]
    payload_off = _header(segment_path)[8]
    start = payload_off + int(entry["payload_off"])
    at = start if boundary == "first_byte" else start + int(entry["payload_len"]) - 1
    seg.release()
    _flip_bit(segment_path, at)

    mp = MappedPostings(MappedSegment.open(segment_path), strict=True)
    with pytest.raises(MappedSegmentError):
        mp["alpha"]


def test_verify_sweep_lists_exactly_the_damaged_terms(segment_path):
    _flip_payload_of(segment_path, "gamma")
    _flip_payload_of(segment_path, "delta")
    seg = MappedSegment.open(segment_path)
    failures = seg.verify()
    assert set(failures) == {"gamma", "delta"}


# ----------------------------------------------------------------------
# Entry-record damage under a lenient open
# ----------------------------------------------------------------------
def test_lenient_open_premarks_out_of_bounds_entries(segment_path):
    seg = MappedSegment.open(segment_path)
    idx = seg.find("alpha")
    entries_off = _regions(segment_path)["entries"][0]
    # Blast the payload_off field (u8 at byte 40 of the 64-byte record)
    # to a huge value: strictly out of bounds.
    field_at = entries_off + idx * ENTRY_DTYPE.itemsize + 40
    seg.release()
    _flip_bit(segment_path, field_at + 6, bit=0xFF)  # high-order byte

    # Strict open refuses: the metadata CRC trips before (and regardless
    # of) the vectorised bounds check.
    with pytest.raises(MappedSegmentError, match="CRC|out of bounds"):
        MappedSegment.open(segment_path, strict=True)

    failed: dict[str, str] = {}
    lenient = MappedSegment.open(segment_path, strict=False)
    mp = MappedPostings(lenient, strict=False, failed_sink=failed)
    assert "alpha" in failed
    assert mp.get("alpha") is None
    from repro.core.decode import decode

    for term in ("beta", "gamma", "delta"):
        assert np.array_equal(decode(mp[term]), TABLE[term]), term


# ----------------------------------------------------------------------
# Store-level contract
# ----------------------------------------------------------------------
def _mapped_store_dir(tmp_path):
    store = PostingStore()
    store.create_shard("s0", codec="WAH", universe=UNIVERSE)
    for term, vals in TABLE.items():
        store.add_list("s0", term, vals)
    store.save(tmp_path)
    return os.path.join(tmp_path, "s0", "segment-g000000.rpro3")


def test_store_load_strict_raises_lenient_serves_partial(tmp_path):
    seg_file = _mapped_store_dir(tmp_path)
    # Damage one term's payload.
    seg = MappedSegment.open(seg_file)
    entry = seg._entries[seg.find("alpha")]
    payload_off = _header(seg_file)[8]
    seg.release()
    _flip_bit(seg_file, payload_off + int(entry["payload_off"]) + 3)

    lenient = PostingStore.load(tmp_path, strict=False)
    assert np.array_equal(lenient.decode_term("s0", "beta"), TABLE["beta"])
    # Strict load opens fine (payload damage is lazy) but the term raises.
    strict = PostingStore.load(tmp_path, strict=True)
    with pytest.raises(MappedSegmentError):
        strict.decode_term("s0", "alpha")
    # Lenient: degraded term reads as absent, recorded on the shard.
    assert lenient.decode_term("s0", "alpha").size == 0
    assert "alpha" in lenient.shard("s0").failed_terms


def test_store_load_whole_file_damage(tmp_path):
    seg_file = _mapped_store_dir(tmp_path)
    _flip_bit(seg_file, 0, bit=0xFF)  # magic

    with pytest.raises(MappedSegmentError):
        PostingStore.load(tmp_path, strict=True)

    lenient = PostingStore.load(tmp_path, strict=False)
    assert lenient.load_errors  # recorded, not raised
    assert len(lenient.shard("s0").postings) == 0  # empty, still serveable
    assert lenient.decode_term("s0", "alpha").size == 0
