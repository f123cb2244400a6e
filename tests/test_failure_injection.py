"""Failure injection: corrupted payloads must raise library errors (or
at worst decode to *something*) — never crash the interpreter or hang.

The study's Appendix B motivates this: the authors rejected existing
open-source codec implementations partly because of crashes on their
data.  These tests pin down that our decoders validate what they parse.
"""

import numpy as np
import pytest
from dataclasses import replace

from repro import get_codec
from repro.core.errors import (
    CodecError,
    CorruptPayloadError,
    DomainOverflowError,
    InvalidInputError,
    ReproError,
    UnknownCodecError,
)
from tests.conftest import corrupt_term_payload


def test_error_hierarchy():
    assert issubclass(CodecError, ReproError)
    assert issubclass(InvalidInputError, CodecError)
    assert issubclass(InvalidInputError, ValueError)
    assert issubclass(DomainOverflowError, InvalidInputError)
    assert issubclass(CorruptPayloadError, CodecError)
    assert issubclass(UnknownCodecError, KeyError)


def test_ewah_truncated_literals():
    codec = get_codec("EWAH")
    cs = codec.compress([0, 40, 80], universe=100)
    broken = replace(cs, payload=cs.payload[:1])
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_bbc_garbage_header():
    codec = get_codec("BBC")
    cs = codec.compress([0], universe=8)
    broken = replace(cs, payload=np.array([0x03], dtype=np.uint8))
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_bbc_header_overruns_stream():
    codec = get_codec("BBC")
    cs = codec.compress([0], universe=8)
    # Pattern-1 header announcing 5 literal bytes, stream ends after 1.
    broken = replace(
        cs, payload=np.array([0x85, 0x01], dtype=np.uint8)
    )
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_bbc_truncated_vb_counter():
    codec = get_codec("BBC")
    cs = codec.compress([0], universe=8)
    # Pattern-3 header whose VB counter never terminates.
    broken = replace(cs, payload=np.array([0x20, 0x80], dtype=np.uint8))
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_vb_truncated_stream():
    from repro.invlists.vb import vb_decode_array

    with pytest.raises(CorruptPayloadError):
        vb_decode_array(np.array([0x80, 0x80], dtype=np.uint8), 1)


def test_wah_zero_count_fill():
    codec = get_codec("WAH")
    cs = codec.compress([0], universe=62)
    broken = replace(
        cs, payload=np.array([1 << 31], dtype=np.uint32)  # fill, count 0
    )
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_sbh_zero_length_fill():
    codec = get_codec("SBH")
    cs = codec.compress([0], universe=14)
    broken = replace(cs, payload=np.array([0x80], dtype=np.uint8))
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_pef_wrong_mark_count():
    codec = get_codec("PEF")
    cs = codec.compress([1, 5, 9], universe=100)
    # Claim 3 elements but zero out the high bitvector.
    stream = cs.payload.stream.copy()
    stream[1:] = 0
    broken = replace(cs, payload=replace(cs.payload, stream=stream))
    with pytest.raises(CorruptPayloadError):
        codec.decompress(broken)


def test_simple9_stream_too_short():
    from repro.invlists.simple_family import s9_decode

    with pytest.raises(CorruptPayloadError):
        s9_decode(np.empty(0, dtype=np.uint32), 5)


def test_pfordelta_broken_exception_chain():
    from repro.invlists.bitpack import unpack_bits_scalar
    from repro.invlists.pfordelta import decode_pfor_block

    # Header claims one exception but a 0xFF (none) chain head.
    header = np.array([1 | (1 << 8) | (0xFF << 16)], dtype=np.uint32)
    slots = np.zeros(4, dtype=np.uint32)
    with pytest.raises(CorruptPayloadError):
        decode_pfor_block(np.concatenate((header, slots)), 0, 128, unpack_bits_scalar)


def test_groupvb_truncated_block():
    codec = get_codec("GroupVB")
    cs = codec.compress(np.arange(200, dtype=np.int64))
    broken = replace(cs, payload=replace(cs.payload, stream=cs.payload.stream[:10]))
    with pytest.raises((CorruptPayloadError, IndexError)):
        codec.decompress(broken)


# ----------------------------------------------------------------------
# Store load path: corruption must degrade, never crash the server
# ----------------------------------------------------------------------
def _saved_store(tmp_path):
    from repro.store import PostingStore

    store = PostingStore()
    shard = store.create_shard("s0", codec="WAH", universe=4_000)
    shard.add("good", np.arange(0, 3_000, 3))
    shard.add("doomed", np.arange(0, 3_000, 7))
    directory = tmp_path / "index"
    store.save(directory)
    return directory


def test_store_load_strict_raises_on_truncated_list(tmp_path):
    """A truncated segment fails the strict load; a damaged list inside
    an intact segment opens (payload checks are lazy) and raises, naming
    the term, on first touch."""
    from repro.store import MappedSegmentError, PostingStore

    directory = _saved_store(tmp_path)
    corrupt_term_payload(directory, "s0", "doomed")
    store = PostingStore.load(directory)
    with pytest.raises(MappedSegmentError) as exc_info:
        store.decode_term("s0", "doomed")
    assert exc_info.value.term == "doomed"
    assert store.decode_term("s0", "good").size == 1_000

    segment = next((directory / "s0").glob("*.rpro3"))
    segment.write_bytes(segment.read_bytes()[: segment.stat().st_size // 2])
    with pytest.raises(MappedSegmentError, match="truncation"):
        PostingStore.load(directory)


def test_store_load_lenient_records_and_serves(tmp_path):
    """strict=False: the corrupt term is skipped and recorded; queries
    touching it come back flagged partial, everything else still serves."""
    from repro.store import Or, PostingStore, QueryEngine

    directory = _saved_store(tmp_path)
    corrupt_term_payload(directory, "s0", "doomed")
    store = PostingStore.load(directory, strict=False)

    engine = QueryEngine(store)
    healthy = engine.execute("good")
    assert healthy.ok and healthy.values.size == 1_000

    hurt = engine.execute(Or("good", "doomed"))
    assert hurt.partial and not hurt.ok
    assert hurt.degraded_terms == ("doomed",)
    assert hurt.values.size == 1_000  # the surviving leaf still answers
    assert "doomed" in store.shard("s0").failed_terms  # recorded at first touch


def test_store_load_rejects_bad_manifest_version(tmp_path):
    import json

    from repro.store import PostingStore, StoreError

    directory = _saved_store(tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="version 99"):
        PostingStore.load(directory)


def test_engine_survives_poisoned_payload():
    """A shard whose payload raises at decode time fails that shard only."""
    from repro.store import PostingStore, QueryEngine

    store = PostingStore()
    healthy = store.create_shard("ok", codec="EWAH", universe=200)
    healthy.add("t", np.arange(0, 200, 2))
    poisoned = store.create_shard("bad", codec="EWAH", universe=200)
    cs = poisoned.codec.compress(np.arange(0, 200, 5), universe=200)
    poisoned.postings["t"] = replace(cs, payload=cs.payload[:1])

    result = QueryEngine(store).execute("t")
    assert result.partial and not result.timed_out
    assert result.failed_shards == ("bad",)
    assert "CorruptPayloadError" in result.error
    assert np.array_equal(result.values, np.arange(0, 200, 2))
