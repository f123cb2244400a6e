"""VALWAH — Variable-Aligned Length WAH (Guzun et al., 2014).

Paper Section 2.5.  WAH wastes its 30-bit fill counter when runs are
short; VALWAH instead picks a per-bitmap segment length
``s = 2^i * (b - 1)`` (alignment factor b, word size w; with the paper's
w = 32, b = 8 the candidates are s ∈ {7, 14, 28}) and encodes the bitmap
at that granularity.  Different bitmaps may therefore disagree on s, and
every operation between them first has to *re-segment* one side to the
finer granularity — the "segment alignment issue" the paper identifies as
the reason VALWAH is much slower than WAH despite its smaller size.

Simplification vs. the original system: each encoded unit is ``s + 1``
bits (flag + payload) packed contiguously and padded to 32-bit words,
rather than the original's intra-word segment packing; the per-bitmap
segment-length selection, the size/speed trade-off it creates, and the
cross-segment realignment cost — the properties the paper measures — are
preserved.  The original's λ tuning knob corresponds to restricting
``candidate_segments``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.bitmaps.rle_base import split_runs
from repro.bitmaps.rle_ops import (
    FILL1,
    LITERAL,
    RunStream,
    build_runstream,
    groups_from_positions,
    resegment,
    runstream_and,
    runstream_from_groups,
    runstream_or,
    runstream_positions,
    runstream_probe,
)
from repro.core.base import Capability, CompressedIntegerSet, IntegerSetCodec
from repro.core.registry import register_codec

#: s = 2^i * (b - 1) with w = 32, b = 8, i in 0..log2(w/b): {7, 14, 28}.
DEFAULT_SEGMENTS = (7, 14, 28)


@dataclass(frozen=True)
class VALWAHPayload:
    """Bit-packed unit stream plus the segment length it was encoded at."""

    segment_bits: int
    n_units: int
    packed: np.ndarray  # uint8 bitstream, little-endian bit order


@register_codec
class VALWAHCodec(IntegerSetCodec):
    """Variable-aligned WAH with per-bitmap segment-length selection."""

    name = "VALWAH"
    family = "bitmap"
    year = 2014

    CAPABILITIES = frozenset({Capability.INTERSECT_WITH_ARRAY})

    def __init__(self, candidate_segments: tuple[int, ...] = DEFAULT_SEGMENTS):
        self.candidate_segments = tuple(sorted(candidate_segments))
        for small, big in zip(self.candidate_segments, self.candidate_segments[1:]):
            if big % small:
                raise ValueError(
                    "candidate segment lengths must be pairwise divisible "
                    f"for realignment; got {candidate_segments}"
                )

    def params(self) -> dict[str, int | str]:
        return {
            "candidate_segments": ",".join(map(str, self.candidate_segments))
        }

    # ------------------------------------------------------------------
    def compress(
        self, values: Iterable[int] | np.ndarray, universe: int | None = None
    ) -> CompressedIntegerSet:
        arr, universe = self._prepare(values, universe)
        best: VALWAHPayload | None = None
        best_bytes = -1
        for s in self.candidate_segments:
            groups = groups_from_positions(arr, universe, s)
            rs = runstream_from_groups(groups, s)
            payload = _encode_units(rs, s)
            nbytes = _payload_bytes(payload)
            # Prefer smaller size; on ties, the larger segment (faster ops).
            if best is None or nbytes <= best_bytes:
                best, best_bytes = payload, nbytes
        assert best is not None
        return CompressedIntegerSet(
            self.name, best, int(arr.size), universe, best_bytes
        )

    def decompress(self, cs: CompressedIntegerSet) -> np.ndarray:
        return runstream_positions(_decode_units(cs.payload))

    def intersect(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        ra, rb = self._aligned_streams(a, b)
        return runstream_and(ra, rb)

    def union(self, a: CompressedIntegerSet, b: CompressedIntegerSet) -> np.ndarray:
        ra, rb = self._aligned_streams(a, b)
        return runstream_or(ra, rb)

    def intersect_with_array(
        self, cs: CompressedIntegerSet, values: np.ndarray
    ) -> np.ndarray:
        """Probe candidates against the unit stream without extracting
        positions (same run-probe as the WAH family)."""
        if values.size == 0 or cs.n == 0:
            return np.empty(0, dtype=np.int64)
        return runstream_probe(_decode_units(cs.payload), values)

    def size_in_bytes(self, cs: CompressedIntegerSet) -> int:
        return cs.size_bytes

    @staticmethod
    def _aligned_streams(
        a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> tuple[RunStream, RunStream]:
        """Decode both payloads and realign to the finer segment length."""
        ra = _decode_units(a.payload)
        rb = _decode_units(b.payload)
        if ra.group_bits != rb.group_bits:
            target = min(ra.group_bits, rb.group_bits)
            ra = resegment(ra, target)
            rb = resegment(rb, target)
        return ra, rb


# ----------------------------------------------------------------------
# Unit stream wire format
# ----------------------------------------------------------------------
def _encode_units(rs: RunStream, s: int) -> VALWAHPayload:
    """Serialise a run stream as (s+1)-bit units.

    Unit layout (bit 0 first): flag bit (1 = fill), then for fills the
    polarity bit and an (s-1)-bit run counter; for literals the s group
    bits.
    """
    max_fill = (1 << (s - 1)) - 1
    unit_vals: list[np.ndarray] = []
    lit = 0
    for kind, count in zip(rs.kinds, rs.counts):
        count = int(count)
        if kind == LITERAL:
            groups = rs.literals[lit : lit + count].astype(np.uint64)
            lit += count
            unit_vals.append(groups << np.uint64(1))  # flag 0
        else:
            polarity = np.uint64(2) if kind == FILL1 else np.uint64(0)
            chunks = np.array(split_runs(count, max_fill), dtype=np.uint64)
            unit_vals.append(np.uint64(1) | polarity | (chunks << np.uint64(2)))
    values = (
        np.concatenate(unit_vals) if unit_vals else np.empty(0, dtype=np.uint64)
    )
    unit_bits = s + 1
    if values.size == 0:
        return VALWAHPayload(s, 0, np.empty(0, dtype=np.uint8))
    bitmat = (
        (values[:, None] >> np.arange(unit_bits, dtype=np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    packed = np.packbits(bitmat.reshape(-1), bitorder="little")
    return VALWAHPayload(s, int(values.size), packed)


def _decode_units(payload: VALWAHPayload) -> RunStream:
    s = payload.segment_bits
    unit_bits = s + 1
    if payload.n_units == 0:
        return build_runstream(
            s,
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
        )
    bits = np.unpackbits(payload.packed, bitorder="little")
    bits = bits[: payload.n_units * unit_bits].reshape(payload.n_units, unit_bits)
    powers = np.uint64(1) << np.arange(unit_bits, dtype=np.uint64)
    values = bits.astype(np.uint64) @ powers

    is_fill = (values & np.uint64(1)) != 0
    polarity = ((values >> np.uint64(1)) & np.uint64(1)).astype(np.int8)
    counts = np.ones(values.size, dtype=np.int64)
    counts[is_fill] = (values[is_fill] >> np.uint64(2)).astype(np.int64)
    kinds = np.full(values.size, LITERAL, dtype=np.int8)
    kinds[is_fill] = polarity[is_fill]
    litvals = (values >> np.uint64(1)).astype(np.uint64)
    litvals[is_fill] = 0
    return build_runstream(s, kinds, counts, litvals)


def _payload_bytes(payload: VALWAHPayload) -> int:
    """Wire size: unit bits padded up to whole 32-bit words."""
    total_bits = payload.n_units * (payload.segment_bits + 1)
    return ((total_bits + 31) // 32) * 4
