"""Shared run-length machinery for the word/byte-aligned bitmap codecs.

Every RLE bitmap codec in the paper (BBC, WAH, EWAH, PLWAH, CONCISE,
VALWAH, SBH) is a wire format over the same logical structure: a sequence
of *groups* of ``group_bits`` bits, where maximal runs of all-0 or all-1
groups are collapsed and literal (mixed) groups are stored verbatim.  This
module defines that logical structure (:class:`RunStream`) plus the three
operations the paper performs *directly on the compressed form*:

* :func:`runstream_positions` — decompression (extract the 1-positions),
* :func:`runstream_and` — intersection without decompression,
* :func:`runstream_or` — union without decompression.

The AND/OR engines have one output shape: sorted positions, the paper's
measured operation (Section 4.3: compressed operands in, uncompressed
result out).  There is no run-stream-out variant: chaining one would mean
re-serialising each result into the codec's wire format for the next
operator to parse again, which on literal-heavy operands (short runs —
every served corpus and the paper's SSB/TPCH lists) costs more than
emitting positions, so the family declares no
``Capability.INTERSECT_COMPRESSED`` / ``UNION_COMPRESSED``.  The price is
paid on fill-dominated operands, where a run-stream result is O(runs) and
positions are O(n); ``docs/query_engine.md`` tabulates it.

The AND/OR engines walk runs the way the paper describes for WAH
(Section 2.1): each bitmap keeps an "active" run; fills are consumed in
O(1) regardless of length; literal-vs-literal stretches are combined with
bitwise ops over whole slices at once (our NumPy stand-in for the word-wise
bitwise instructions the C++ code uses).

Codecs translate their wire format to/from a :class:`RunStream`; the cost
of that translation is part of each codec's measured operation time, just
as parsing compressed words was part of the C++ implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitutils import group_classify, unpack_groups
from repro.core.errors import CorruptPayloadError

#: Run kinds.
FILL0, FILL1, LITERAL = 0, 1, 2


@dataclass
class RunStream:
    """Logical run-length view of a bitmap.

    Attributes:
        group_bits: bits per group (31 for WAH, 32 for EWAH, 8 for BBC, ...).
        kinds: int8 array, one of FILL0 / FILL1 / LITERAL per run.
        counts: int64 array, number of groups in each run.  Adjacent
            literal groups are merged into a single LITERAL run.
        literals: uint64 array of the literal group payloads, flattened in
            stream order (``counts`` of LITERAL runs sum to its length).
    """

    group_bits: int
    kinds: np.ndarray
    counts: np.ndarray
    literals: np.ndarray

    @property
    def n_groups(self) -> int:
        """Total number of groups represented."""
        return int(self.counts.sum()) if self.counts.size else 0

    def validate(self) -> None:
        """Structural sanity check; raises CorruptPayloadError on mismatch."""
        n_lit = int(self.counts[self.kinds == LITERAL].sum()) if self.counts.size else 0
        if n_lit != self.literals.size:
            raise CorruptPayloadError(
                f"literal count mismatch: runs say {n_lit}, "
                f"payload has {self.literals.size}"
            )
        if self.counts.size and (self.counts <= 0).any():
            raise CorruptPayloadError("non-positive run count")


def groups_from_positions(
    positions: np.ndarray, universe: int, group_bits: int
) -> np.ndarray:
    """Build the group array of a bitmap from its set-bit positions.

    O(n) in the number of positions (plus the size of the group array);
    never materialises the bit-level bitmap.
    """
    n_groups = (universe + group_bits - 1) // group_bits if universe > 0 else 0
    groups = np.zeros(n_groups, dtype=np.uint64)
    if positions.size == 0:
        return groups
    gidx = positions // group_bits
    bitvals = np.uint64(1) << (positions % group_bits).astype(np.uint64)
    # positions are sorted, so equal group indices are contiguous: OR-reduce
    # each segment in one vectorised pass.
    boundaries = np.empty(gidx.size, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = gidx[1:] != gidx[:-1]
    starts = np.flatnonzero(boundaries)
    groups[gidx[starts]] = np.bitwise_or.reduceat(bitvals, starts)
    return groups


def runstream_from_groups(groups: np.ndarray, group_bits: int) -> RunStream:
    """Run-length encode a group array (merging adjacent literals)."""
    kinds_per_group = group_classify(groups, group_bits)
    if kinds_per_group.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return RunStream(group_bits, empty.astype(np.int8), empty,
                         np.empty(0, dtype=np.uint64))
    change = np.empty(kinds_per_group.size, dtype=bool)
    change[0] = True
    change[1:] = kinds_per_group[1:] != kinds_per_group[:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, kinds_per_group.size)).astype(np.int64)
    kinds = kinds_per_group[starts]
    literals = groups[kinds_per_group == LITERAL].astype(np.uint64, copy=False)
    return RunStream(group_bits, kinds, counts, literals)


def build_runstream(
    group_bits: int,
    unit_kinds: np.ndarray,
    unit_counts: np.ndarray,
    unit_litvals: np.ndarray,
) -> RunStream:
    """Assemble a RunStream from per-unit decode output, merging runs.

    Decoders produce one *unit* per decoded word/byte/marker item:
    ``unit_kinds[i]`` ∈ {FILL0, FILL1, LITERAL}, ``unit_counts[i]`` groups,
    and ``unit_litvals[i]`` the literal payload (ignored for fills; literal
    units always have count 1).  Adjacent units of the same kind are merged
    so the AND/OR engines see maximal runs.
    """
    if unit_kinds.size == 0:
        return RunStream(
            group_bits,
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
        )
    change = np.empty(unit_kinds.size, dtype=bool)
    change[0] = True
    change[1:] = unit_kinds[1:] != unit_kinds[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], unit_kinds.size)
    cum = np.concatenate(([0], np.cumsum(unit_counts)))
    counts = (cum[ends] - cum[starts]).astype(np.int64)
    kinds = unit_kinds[starts].astype(np.int8)
    literals = unit_litvals[unit_kinds == LITERAL].astype(np.uint64, copy=False)
    return RunStream(group_bits, kinds, counts, literals)


def merge_runs(
    group_bits: int,
    kinds: np.ndarray,
    counts: np.ndarray,
    literals: np.ndarray,
) -> RunStream:
    """Assemble a RunStream from run-level decode output.

    Like :func:`build_runstream`, but the input is already run-shaped
    (literal runs may have counts > 1, with their words flattened into
    *literals* in order); adjacent same-kind runs are merged.
    """
    if kinds.size == 0:
        return RunStream(
            group_bits,
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
        )
    change = np.empty(kinds.size, dtype=bool)
    change[0] = True
    change[1:] = kinds[1:] != kinds[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], kinds.size)
    cum = np.concatenate(([0], np.cumsum(counts)))
    merged_counts = (cum[ends] - cum[starts]).astype(np.int64)
    return RunStream(
        group_bits,
        kinds[starts].astype(np.int8),
        merged_counts,
        literals.astype(np.uint64, copy=False),
    )


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering [starts[i], starts[i] + lengths[i]) per i."""
    total = int(lengths.sum())
    ramp = np.arange(total, dtype=np.int64)
    seg_start = np.cumsum(lengths) - lengths
    return np.repeat(starts, lengths) + (ramp - np.repeat(seg_start, lengths))


def runstream_positions(rs: RunStream) -> np.ndarray:
    """Decompress a run stream into sorted set-bit positions."""
    gb = rs.group_bits
    if rs.kinds.size == 0:
        return np.empty(0, dtype=np.int64)
    run_starts = np.concatenate(([0], np.cumsum(rs.counts)[:-1]))

    parts: list[np.ndarray] = []
    # 1-fill runs expand to dense ranges (few runs: cheap Python loop).
    for start, count in zip(
        run_starts[rs.kinds == FILL1], rs.counts[rs.kinds == FILL1]
    ):
        lo = int(start) * gb
        parts.append(np.arange(lo, lo + int(count) * gb, dtype=np.int64))

    # All literal groups are expanded in one vectorised batch.
    lit_mask = rs.kinds == LITERAL
    if lit_mask.any():
        lit_counts = rs.counts[lit_mask]
        lit_starts = run_starts[lit_mask]
        # Group index of every literal word, in stream order.
        gidx = np.repeat(lit_starts, lit_counts) + _within_run_offsets(lit_counts)
        flat = np.flatnonzero(unpack_groups(rs.literals, gb))
        rows = flat // gb
        cols = flat - rows * gb
        parts.append(gidx[rows] * gb + cols)

    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate(parts)
    out.sort()
    return out


def _within_run_offsets(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for run lengths *counts* (vectorised)."""
    total = int(counts.sum())
    ramp = np.arange(total, dtype=np.int64)
    run_start_in_ramp = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return ramp - np.repeat(run_start_in_ramp, counts)


@dataclass
class _Segments:
    """Aligned view of two run streams.

    The union of both streams' run boundaries cuts the group axis into
    segments within which each stream's run kind is constant — the
    vectorised analogue of the paper's "active word" walk: every segment
    is one (kind_a, kind_b) case, and same-case segments are processed
    together in batch.
    """

    starts: np.ndarray  # segment start group index
    lengths: np.ndarray  # groups per segment
    ka: np.ndarray  # stream A's run kind per segment
    kb: np.ndarray
    a: RunStream
    b: RunStream
    lit_at_a: np.ndarray  # A's literal cursor at each segment start
    lit_at_b: np.ndarray


def _align(a: RunStream, b: RunStream, n_groups: int) -> _Segments:
    ends_a = np.cumsum(a.counts)
    ends_b = np.cumsum(b.counts)
    # Both boundary arrays are sorted; merge + dedupe beats hashing.
    bounds = np.concatenate((ends_a, ends_b))
    bounds.sort(kind="mergesort")
    if bounds.size > 1:
        bounds = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    bounds = bounds[bounds <= n_groups]
    if bounds.size == 0 or bounds[-1] != n_groups:
        bounds = np.append(bounds, n_groups)
    starts = np.concatenate(([0], bounds[:-1]))
    lengths = bounds - starts
    ia = np.searchsorted(ends_a, starts, side="right")
    ib = np.searchsorted(ends_b, starts, side="right")
    ka = _kinds_at(a, ia, ends_a)
    kb = _kinds_at(b, ib, ends_b)
    lit_at_a = _literal_cursor(a, ia, ends_a, starts)
    lit_at_b = _literal_cursor(b, ib, ends_b, starts)
    return _Segments(starts, lengths, ka, kb, a, b, lit_at_a, lit_at_b)


def _kinds_at(rs: RunStream, run_idx: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Run kind per segment; positions past the stream's end are 0-fills."""
    kinds = np.full(run_idx.shape, FILL0, dtype=np.int8)
    inside = run_idx < rs.kinds.size
    kinds[inside] = rs.kinds[run_idx[inside]]
    return kinds


def _literal_cursor(
    rs: RunStream, run_idx: np.ndarray, ends: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Index into ``rs.literals`` of each segment's first group (only
    meaningful for segments inside a literal run)."""
    if rs.kinds.size == 0:
        return np.zeros(run_idx.shape, dtype=np.int64)
    lit_counts = np.where(rs.kinds == LITERAL, rs.counts, 0)
    lit_begin = np.cumsum(lit_counts) - lit_counts
    run_begin = np.concatenate(([0], ends[:-1]))
    idx = np.clip(run_idx, 0, rs.kinds.size - 1)
    return lit_begin[idx] + (starts - run_begin[idx])


def runstream_and(a: RunStream, b: RunStream) -> np.ndarray:
    """Intersect two run streams of equal group_bits → sorted positions.

    Streams may cover different numbers of groups; the shorter stream's
    missing tail is an implicit 0-fill (so it just truncates the AND).
    """
    _check_compatible(a, b)
    gb = a.group_bits
    n_common = min(_total_groups(a), _total_groups(b))
    if n_common == 0:
        return np.empty(0, dtype=np.int64)
    seg = _align(a, b, n_common)
    fill_mask = (seg.ka == FILL1) & (seg.kb == FILL1)
    both_lit = (seg.ka == LITERAL) & (seg.kb == LITERAL)
    a_lit = (seg.ka == LITERAL) & (seg.kb == FILL1)
    b_lit = (seg.ka == FILL1) & (seg.kb == LITERAL)

    words_parts: list[np.ndarray] = []
    gidx_parts: list[np.ndarray] = []
    if both_lit.any():
        wa = seg.a.literals[gather_ranges(seg.lit_at_a[both_lit], seg.lengths[both_lit])]
        wb = seg.b.literals[gather_ranges(seg.lit_at_b[both_lit], seg.lengths[both_lit])]
        words_parts.append(wa & wb)
        gidx_parts.append(gather_ranges(seg.starts[both_lit], seg.lengths[both_lit]))
    if a_lit.any():
        words_parts.append(
            seg.a.literals[gather_ranges(seg.lit_at_a[a_lit], seg.lengths[a_lit])]
        )
        gidx_parts.append(gather_ranges(seg.starts[a_lit], seg.lengths[a_lit]))
    if b_lit.any():
        words_parts.append(
            seg.b.literals[gather_ranges(seg.lit_at_b[b_lit], seg.lengths[b_lit])]
        )
        gidx_parts.append(gather_ranges(seg.starts[b_lit], seg.lengths[b_lit]))

    return _materialise(
        gb,
        fill_starts=seg.starts[fill_mask],
        fill_lengths=seg.lengths[fill_mask],
        words=words_parts,
        gidx=gidx_parts,
    )


def runstream_or(a: RunStream, b: RunStream) -> np.ndarray:
    """Union of two run streams of equal group_bits → sorted positions."""
    _check_compatible(a, b)
    gb = a.group_bits
    n_total = max(_total_groups(a), _total_groups(b))
    if n_total == 0:
        return np.empty(0, dtype=np.int64)
    seg = _align(a, b, n_total)
    fill_mask = (seg.ka == FILL1) | (seg.kb == FILL1)
    both_lit = (seg.ka == LITERAL) & (seg.kb == LITERAL)
    a_lit = (seg.ka == LITERAL) & (seg.kb == FILL0)
    b_lit = (seg.ka == FILL0) & (seg.kb == LITERAL)

    words_parts: list[np.ndarray] = []
    gidx_parts: list[np.ndarray] = []
    if both_lit.any():
        wa = seg.a.literals[gather_ranges(seg.lit_at_a[both_lit], seg.lengths[both_lit])]
        wb = seg.b.literals[gather_ranges(seg.lit_at_b[both_lit], seg.lengths[both_lit])]
        words_parts.append(wa | wb)
        gidx_parts.append(gather_ranges(seg.starts[both_lit], seg.lengths[both_lit]))
    if a_lit.any():
        words_parts.append(
            seg.a.literals[gather_ranges(seg.lit_at_a[a_lit], seg.lengths[a_lit])]
        )
        gidx_parts.append(gather_ranges(seg.starts[a_lit], seg.lengths[a_lit]))
    if b_lit.any():
        words_parts.append(
            seg.b.literals[gather_ranges(seg.lit_at_b[b_lit], seg.lengths[b_lit])]
        )
        gidx_parts.append(gather_ranges(seg.starts[b_lit], seg.lengths[b_lit]))

    return _materialise(
        gb,
        fill_starts=seg.starts[fill_mask],
        fill_lengths=seg.lengths[fill_mask],
        words=words_parts,
        gidx=gidx_parts,
    )


def runstream_andnot(a: RunStream, b: RunStream) -> np.ndarray:
    """a AND NOT b over run streams of equal group_bits → positions."""
    _check_compatible(a, b)
    gb = a.group_bits
    full = np.uint64((1 << gb) - 1)
    n_total = _total_groups(a)
    if n_total == 0:
        return np.empty(0, dtype=np.int64)
    # Beyond b's end everything in a passes through: align over a's span,
    # treating b's missing tail as 0-fill (exactly what _align does).
    seg = _align(a, b, n_total)
    fill_mask = (seg.ka == FILL1) & (seg.kb == FILL0)
    pass_a = (seg.ka == LITERAL) & (seg.kb == FILL0)
    not_b = (seg.ka == FILL1) & (seg.kb == LITERAL)
    both_lit = (seg.ka == LITERAL) & (seg.kb == LITERAL)

    words_parts: list[np.ndarray] = []
    gidx_parts: list[np.ndarray] = []
    if pass_a.any():
        words_parts.append(
            seg.a.literals[gather_ranges(seg.lit_at_a[pass_a], seg.lengths[pass_a])]
        )
        gidx_parts.append(gather_ranges(seg.starts[pass_a], seg.lengths[pass_a]))
    if not_b.any():
        wb = seg.b.literals[gather_ranges(seg.lit_at_b[not_b], seg.lengths[not_b])]
        words_parts.append(~wb & full)
        gidx_parts.append(gather_ranges(seg.starts[not_b], seg.lengths[not_b]))
    if both_lit.any():
        wa = seg.a.literals[gather_ranges(seg.lit_at_a[both_lit], seg.lengths[both_lit])]
        wb = seg.b.literals[gather_ranges(seg.lit_at_b[both_lit], seg.lengths[both_lit])]
        words_parts.append(wa & ~wb & full)
        gidx_parts.append(gather_ranges(seg.starts[both_lit], seg.lengths[both_lit]))
    return _materialise(
        gb,
        fill_starts=seg.starts[fill_mask],
        fill_lengths=seg.lengths[fill_mask],
        words=words_parts,
        gidx=gidx_parts,
    )


def runstream_xor(a: RunStream, b: RunStream) -> np.ndarray:
    """Symmetric difference over run streams of equal group_bits."""
    _check_compatible(a, b)
    gb = a.group_bits
    full = np.uint64((1 << gb) - 1)
    n_total = max(_total_groups(a), _total_groups(b))
    if n_total == 0:
        return np.empty(0, dtype=np.int64)
    seg = _align(a, b, n_total)
    opposite_fills = ((seg.ka == FILL1) & (seg.kb == FILL0)) | (
        (seg.ka == FILL0) & (seg.kb == FILL1)
    )
    pass_a = (seg.ka == LITERAL) & (seg.kb == FILL0)
    pass_b = (seg.ka == FILL0) & (seg.kb == LITERAL)
    inv_a = (seg.ka == LITERAL) & (seg.kb == FILL1)
    inv_b = (seg.ka == FILL1) & (seg.kb == LITERAL)
    both_lit = (seg.ka == LITERAL) & (seg.kb == LITERAL)

    words_parts: list[np.ndarray] = []
    gidx_parts: list[np.ndarray] = []

    def emit(mask: np.ndarray, words: np.ndarray) -> None:
        words_parts.append(words)
        gidx_parts.append(gather_ranges(seg.starts[mask], seg.lengths[mask]))

    if pass_a.any():
        emit(pass_a, seg.a.literals[gather_ranges(seg.lit_at_a[pass_a], seg.lengths[pass_a])])
    if pass_b.any():
        emit(pass_b, seg.b.literals[gather_ranges(seg.lit_at_b[pass_b], seg.lengths[pass_b])])
    if inv_a.any():
        wa = seg.a.literals[gather_ranges(seg.lit_at_a[inv_a], seg.lengths[inv_a])]
        emit(inv_a, ~wa & full)
    if inv_b.any():
        wb = seg.b.literals[gather_ranges(seg.lit_at_b[inv_b], seg.lengths[inv_b])]
        emit(inv_b, ~wb & full)
    if both_lit.any():
        wa = seg.a.literals[gather_ranges(seg.lit_at_a[both_lit], seg.lengths[both_lit])]
        wb = seg.b.literals[gather_ranges(seg.lit_at_b[both_lit], seg.lengths[both_lit])]
        emit(both_lit, wa ^ wb)
    return _materialise(
        gb,
        fill_starts=seg.starts[opposite_fills],
        fill_lengths=seg.lengths[opposite_fills],
        words=words_parts,
        gidx=gidx_parts,
    )


def runstream_probe(rs: RunStream, values: np.ndarray) -> np.ndarray:
    """Bitmap-vs-list intersection on the run stream (Appendix B.1's
    second input combination): each sorted candidate is located in the
    stream — O(log runs) per probe — and bit-tested, without extracting
    the bitmap's positions."""
    if values.size == 0 or rs.kinds.size == 0:
        return np.empty(0, dtype=np.int64)
    gb = rs.group_bits
    ends = np.cumsum(rs.counts)
    groups = values // gb
    run = np.searchsorted(ends, groups, side="right")
    inside = run < rs.kinds.size
    values, groups, run = values[inside], groups[inside], run[inside]
    kinds = rs.kinds[run]
    keep = kinds == FILL1
    lit_mask = kinds == LITERAL
    if lit_mask.any():
        lit_counts = np.where(rs.kinds == LITERAL, rs.counts, 0)
        lit_begin = np.cumsum(lit_counts) - lit_counts
        run_begin = ends - rs.counts
        lit_run = run[lit_mask]
        word = rs.literals[
            lit_begin[lit_run] + (groups[lit_mask] - run_begin[lit_run])
        ]
        bit = (word >> (values[lit_mask] % gb).astype(np.uint64)) & np.uint64(1)
        keep[lit_mask] = bit.astype(bool)
    return values[keep]


def _total_groups(rs: RunStream) -> int:
    return int(rs.counts.sum()) if rs.counts.size else 0


def _materialise(
    gb: int,
    fill_starts: np.ndarray,
    fill_lengths: np.ndarray,
    words: list[np.ndarray],
    gidx: list[np.ndarray],
) -> np.ndarray:
    """Turn 1-fill group ranges + literal words into sorted positions."""
    parts: list[np.ndarray] = []
    if fill_starts.size:
        parts.append(gather_ranges(fill_starts * gb, fill_lengths * gb))
    if words:
        all_words = words[0] if len(words) == 1 else np.concatenate(words)
        all_gidx = gidx[0] if len(gidx) == 1 else np.concatenate(gidx)
        # AND output is typically sparse: most combined words are zero,
        # so filter them before the bit-level expansion.
        nz = all_words != 0
        all_words = all_words[nz]
        all_gidx = all_gidx[nz]
        if all_words.size:
            bitmat = unpack_groups(all_words, gb).reshape(all_words.size, gb)
            rows, cols = np.nonzero(bitmat)
            parts.append(all_gidx[rows] * gb + cols)
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        out = parts[0]
        # A single source can still be out of order when its segments
        # come from different masks concatenated above.
        if out.size > 1 and not _is_sorted(out):
            out = np.sort(out)
        return out.astype(np.int64, copy=False)
    out = np.concatenate(parts)
    out.sort()
    return out.astype(np.int64, copy=False)


def _is_sorted(arr: np.ndarray) -> bool:
    return bool((arr[1:] >= arr[:-1]).all())


def resegment(rs: RunStream, new_bits: int) -> RunStream:
    """Re-express a run stream with a smaller group size.

    ``rs.group_bits`` must be an integer multiple of *new_bits*.  Used by
    VALWAH when two bitmaps picked different segment lengths — the paper's
    "segment alignment issue" that makes VALWAH slow: this realignment work
    happens on every mismatched operation.
    """
    old = rs.group_bits
    if old == new_bits:
        return rs
    if old % new_bits:
        raise ValueError(f"cannot resegment {old}-bit groups to {new_bits}")
    factor = old // new_bits
    kinds_out: list[np.ndarray] = []
    counts_out: list[np.ndarray] = []
    lit_cursor = 0
    lits_out: list[np.ndarray] = []
    mask = np.uint64((1 << new_bits) - 1)
    for kind, count in zip(rs.kinds, rs.counts):
        if kind != LITERAL:
            kinds_out.append(np.array([kind], dtype=np.int8))
            counts_out.append(np.array([int(count) * factor], dtype=np.int64))
            continue
        words = rs.literals[lit_cursor : lit_cursor + int(count)]
        lit_cursor += int(count)
        # Split every old word into `factor` new words (low part first).
        shifts = (np.arange(factor, dtype=np.uint64) * np.uint64(new_bits))
        pieces = ((words[:, None] >> shifts) & mask).reshape(-1)
        lits_out.append(pieces)
        kinds_out.append(np.full(1, LITERAL, dtype=np.int8))
        counts_out.append(np.array([pieces.size], dtype=np.int64))
    if not kinds_out:
        return RunStream(new_bits, rs.kinds, rs.counts, rs.literals)
    out = RunStream(
        new_bits,
        np.concatenate(kinds_out),
        np.concatenate(counts_out),
        np.concatenate(lits_out) if lits_out else np.empty(0, dtype=np.uint64),
    )
    # Sub-words of a literal may themselves be fills; renormalise so the
    # AND/OR fast paths (fill skipping) still apply.
    return _renormalise(out)


def _renormalise(rs: RunStream) -> RunStream:
    """Re-classify literal words that are actually fills and re-merge runs."""
    groups = _expand_to_groups(rs)
    return runstream_from_groups(groups, rs.group_bits)


def _expand_to_groups(rs: RunStream) -> np.ndarray:
    """Materialise the full group array of a stream (helper; small inputs)."""
    out = np.zeros(rs.n_groups, dtype=np.uint64)
    pos = 0
    lit = 0
    full = np.uint64((1 << rs.group_bits) - 1)
    for kind, count in zip(rs.kinds, rs.counts):
        count = int(count)
        if kind == FILL1:
            out[pos : pos + count] = full
        elif kind == LITERAL:
            out[pos : pos + count] = rs.literals[lit : lit + count]
            lit += count
        pos += count
    return out


def _literal_positions(words: np.ndarray, gb: int, group_start: int) -> np.ndarray:
    """Set-bit positions of consecutive literal words starting at a group."""
    if words.size == 0:
        return np.empty(0, dtype=np.int64)
    bitmat = unpack_groups(words, gb).reshape(words.size, gb)
    rows, cols = np.nonzero(bitmat)
    return (group_start + rows) * gb + cols


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0].astype(np.int64, copy=False)
    return np.concatenate(parts).astype(np.int64, copy=False)


def _check_compatible(a: RunStream, b: RunStream) -> None:
    if a.group_bits != b.group_bits:
        raise ValueError(
            f"incompatible group sizes: {a.group_bits} vs {b.group_bits}"
        )
