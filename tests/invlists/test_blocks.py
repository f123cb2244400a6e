"""Blocked storage: skip pointers, partial blocks, probe paths."""

import numpy as np
import pytest

from repro import get_codec
from repro.invlists.blocks import (
    DEFAULT_BLOCK_SIZE,
    SKIP_POINTER_BYTES,
    SVS_RATIO_THRESHOLD,
    BlockedInvListCodec,
)
from repro.invlists.vb import VBCodec

from tests.conftest import sorted_unique


def test_default_block_size_is_128():
    """Footnote 5: 'several existing works suggest 128 as the block size'."""
    assert DEFAULT_BLOCK_SIZE == 128


def test_skip_pointer_is_8_bytes():
    """Section 5: 32-bit offset + 32-bit start value per block."""
    assert SKIP_POINTER_BYTES == 8


def test_skip_pointers_add_8_bytes_per_block(rng):
    values = sorted_unique(rng, 1280, 100_000)
    with_skips = VBCodec(skip_pointers=True).compress(values)
    without = VBCodec(skip_pointers=False).compress(values)
    assert with_skips.size_bytes - without.size_bytes == 8 * 10


def test_skip_pointer_firsts_are_block_starts(rng):
    values = sorted_unique(rng, 300, 100_000)
    cs = VBCodec().compress(values)
    firsts = cs.payload.firsts
    assert firsts.tolist() == [values[0], values[128], values[256]]


def test_partial_last_block_roundtrips(rng):
    codec = get_codec("VB")
    for n in (1, 127, 128, 129, 255, 257):
        values = sorted_unique(rng, n, 1_000_000)
        assert np.array_equal(codec.roundtrip(values), values)


def test_custom_block_size(rng):
    codec = VBCodec(block_size=32)
    values = sorted_unique(rng, 100, 10_000)
    cs = codec.compress(values)
    assert cs.payload.offsets.size == 4  # ceil(100 / 32)
    assert np.array_equal(codec.decompress(cs), values)


def test_invalid_block_size():
    with pytest.raises(ValueError):
        VBCodec(block_size=0)


def test_noskip_probe_equals_skip_probe(rng):
    values = sorted_unique(rng, 5_000, 1_000_000)
    probes = sorted_unique(rng, 100, 1_000_000)
    skip = VBCodec(skip_pointers=True)
    noskip = VBCodec(skip_pointers=False)
    cs_s = skip.compress(values)
    cs_n = noskip.compress(values)
    assert np.array_equal(
        skip.intersect_with_array(cs_s, probes),
        noskip.intersect_with_array(cs_n, probes),
    )


def test_svs_kicks_in_above_ratio(rng, monkeypatch):
    """Very unequal sizes go through the skip-probing path."""
    codec = get_codec("VB")
    short = sorted_unique(rng, 10, 1_000_000)
    long_ = sorted_unique(rng, 10 * SVS_RATIO_THRESHOLD + 100, 1_000_000)
    cs_short = codec.compress(short, universe=1_000_000)
    cs_long = codec.compress(long_, universe=1_000_000)
    probed = {}
    original = type(codec).intersect_with_array

    def spy(self, cs, values):
        probed["called"] = True
        return original(self, cs, values)

    monkeypatch.setattr(type(codec), "intersect_with_array", spy)
    got = codec.intersect(cs_short, cs_long)
    assert probed.get("called")
    assert np.array_equal(got, np.intersect1d(short, long_))


def test_merge_path_for_similar_sizes(rng, monkeypatch):
    codec = get_codec("VB")
    a = sorted_unique(rng, 1_000, 1_000_000)
    b = sorted_unique(rng, 1_500, 1_000_000)
    ca = codec.compress(a, universe=1_000_000)
    cb = codec.compress(b, universe=1_000_000)

    def fail(self, cs, values):  # pragma: no cover - should not run
        raise AssertionError("similar sizes must merge, not probe")

    monkeypatch.setattr(type(codec), "intersect_with_array", fail)
    assert np.array_equal(codec.intersect(ca, cb), np.intersect1d(a, b))


def test_probe_values_below_first_block(rng):
    codec = get_codec("VB")
    values = np.arange(1_000, 2_000, dtype=np.int64)
    cs = codec.compress(values, universe=10_000)
    probes = np.array([0, 5, 999], dtype=np.int64)
    assert codec.intersect_with_array(cs, probes).size == 0


@pytest.mark.parametrize("name", ["Simple9", "Simple16", "Simple8b", "GroupVB"])
def test_batched_decoder_replaces_scalar_block_loop(name, rng, monkeypatch):
    """These codecs decode whole lists in one vectorised pass; the
    generic block-by-block loop must never run for them."""

    def scalar_loop(self, payload, n):  # pragma: no cover - should not run
        raise AssertionError(f"{name} fell back to the scalar block loop")

    monkeypatch.setattr(BlockedInvListCodec, "_decode_all", scalar_loop)
    codec = get_codec(name)
    values = sorted_unique(rng, 1_000, 1_000_000)  # 7 full blocks + a partial
    assert np.array_equal(codec.roundtrip(values), values)


def test_every_blocked_codec_decodes_single_block(invlist_codec, rng):
    if not isinstance(invlist_codec, BlockedInvListCodec):
        pytest.skip("not a blocked codec")
    values = sorted_unique(rng, 300, 500_000)
    cs = invlist_codec.compress(values, universe=500_000)
    block1 = invlist_codec._decode_one_block(cs, 1)
    assert np.array_equal(block1, values[128:256])
