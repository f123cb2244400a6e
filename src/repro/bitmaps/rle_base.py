"""Base class shared by the run-length-encoded bitmap codecs.

A concrete codec chooses a group size and a wire format by implementing
``_encode`` (RunStream → payload) and ``_decode`` (payload → RunStream).
Compression, decompression, the AND/OR over the compressed form and the
bitmap-vs-list probe then come for free from :mod:`repro.bitmaps.rle_ops`.

Per the paper's methodology (Section 4.3), the result of ``intersect`` and
``union`` is a plain uncompressed integer array, and no bitmap codec builds
skip pointers.  ``_encode`` runs in ``compress`` only: no query-time
operation serialises its result back to the wire format.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Iterable

import numpy as np

from repro.bitmaps.rle_ops import (
    RunStream,
    groups_from_positions,
    runstream_and,
    runstream_andnot,
    runstream_from_groups,
    runstream_or,
    runstream_positions,
    runstream_probe,
    runstream_xor,
)
from repro.core.base import Capability, CompressedIntegerSet, IntegerSetCodec


class RLEBitmapCodec(IntegerSetCodec):
    """Shared machinery for WAH, EWAH, CONCISE, PLWAH, VALWAH, SBH, BBC."""

    family: ClassVar[str] = "bitmap"
    #: Bits per RLE group; VALWAH overrides group selection per bitmap.
    group_bits: ClassVar[int]

    CAPABILITIES: ClassVar[frozenset[Capability]] = frozenset(
        {Capability.INTERSECT_WITH_ARRAY}
    )

    # ------------------------------------------------------------------
    # Wire format hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _encode(self, rs: RunStream) -> Any:
        """Serialise a run stream into the codec's wire payload."""

    @abc.abstractmethod
    def _decode(self, payload: Any) -> RunStream:
        """Parse the wire payload back into a run stream."""

    @abc.abstractmethod
    def _payload_bytes(self, payload: Any) -> int:
        """Wire size of the payload in bytes."""

    # ------------------------------------------------------------------
    # Codec contract
    # ------------------------------------------------------------------
    def compress(
        self, values: Iterable[int] | np.ndarray, universe: int | None = None
    ) -> CompressedIntegerSet:
        arr, universe = self._prepare(values, universe)
        rs = self._runstream_from_values(arr, universe)
        payload = self._encode(rs)
        return CompressedIntegerSet(
            codec_name=self.name,
            payload=payload,
            n=int(arr.size),
            universe=universe,
            size_bytes=self._payload_bytes(payload),
        )

    def decompress(self, cs: CompressedIntegerSet) -> np.ndarray:
        return runstream_positions(self._decode(cs.payload))

    def intersect(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        return runstream_and(self._decode(a.payload), self._decode(b.payload))

    def union(self, a: CompressedIntegerSet, b: CompressedIntegerSet) -> np.ndarray:
        return runstream_or(self._decode(a.payload), self._decode(b.payload))

    def difference(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        """ANDNOT directly on the compressed run streams."""
        return runstream_andnot(self._decode(a.payload), self._decode(b.payload))

    def symmetric_difference(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        """XOR directly on the compressed run streams."""
        return runstream_xor(self._decode(a.payload), self._decode(b.payload))

    def intersect_with_array(
        self, cs: CompressedIntegerSet, values: np.ndarray
    ) -> np.ndarray:
        """Bitmap-vs-list intersection via :func:`runstream_probe` (no
        position extraction; shared with VALWAH)."""
        if values.size == 0 or cs.n == 0:
            return np.empty(0, dtype=np.int64)
        return runstream_probe(self._decode(cs.payload), values)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _runstream_from_values(self, arr: np.ndarray, universe: int) -> RunStream:
        groups = groups_from_positions(arr, universe, self.group_bits)
        return runstream_from_groups(groups, self.group_bits)


def split_runs(count: int, limit: int) -> list[int]:
    """Split a run of *count* groups into chunks of at most *limit*."""
    chunks = [limit] * (count // limit)
    rem = count % limit
    if rem:
        chunks.append(rem)
    return chunks
