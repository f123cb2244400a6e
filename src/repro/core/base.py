"""Abstract base classes every compression codec implements.

The paper frames both bitmap compression and inverted list compression as
solutions to one problem: *store a set of sorted integers in as few bits as
possible, and answer intersection/union as fast as possible*.  This module
defines that contract.

Every codec turns a validated posting array into a
:class:`CompressedIntegerSet` and back, reports its wire size, and answers
``intersect``/``union`` between two of its own compressed sets.  Following
the paper (Section 4.3), ``intersect``/``union`` return an *uncompressed*
integer array so the result can be returned to the user or fed into the
next operator of a query plan.

Beyond that baseline, a codec *declares* which operations it supports
directly on the compressed form via the :class:`Capability` protocol:
``CAPABILITIES`` is a statically-readable class attribute (the
``repro.analysis`` REPRO008 rule cross-checks it against the overridden
methods) and :meth:`IntegerSetCodec.capabilities` is the instance-level
accessor (instances may restrict it — e.g. blocked lists built without
skip pointers).  Codecs declaring ``INTERSECT_COMPRESSED`` /
``UNION_COMPRESSED`` additionally implement
:meth:`IntegerSetCodec.intersect_compressed` /
:meth:`IntegerSetCodec.union_compressed`, which stay *in* the compressed
domain: compressed sets in, compressed set out, so a query plan can chain
operators without ever materialising intermediate posting arrays.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, ClassVar, Iterable

import numpy as np

from repro.core.validation import as_posting_array


class Capability(enum.Enum):
    """An operation a codec supports directly on its compressed form.

    Declaring a capability is a *performance contract*, not just an API
    marker: the plan compiler routes queries through the corresponding
    method only when the capability is declared, so a codec that declares
    one must implement it better than the decode-everything fallback.
    A fold must not re-serialise its result: Roaring's containers and
    Bitset's words are their operating form, an RLE wire format is not,
    which is why the RLE bitmaps declare no ``*_COMPRESSED`` capability
    (their fold lost on literal-heavy operands and won only on long
    fills; ``docs/query_engine.md`` has both sets of numbers).

    Members:
        INTERSECT_COMPRESSED: :meth:`IntegerSetCodec.intersect_compressed`
            ANDs two compressed sets into a new compressed set without
            materialising either operand (Roaring container AND, Bitset
            word AND).
        UNION_COMPRESSED: :meth:`IntegerSetCodec.union_compressed`, the
            OR counterpart.
        INTERSECT_WITH_ARRAY: :meth:`IntegerSetCodec.intersect_with_array`
            probes the compressed set with a sorted candidate array
            sub-linearly (skip pointers, container lookup) instead of the
            default full decompression.
        RANK_SELECT_SKIP: :meth:`IntegerSetCodec.rank` and
            :meth:`IntegerSetCodec.select` run off per-block metadata
            without a full decode.
    """

    INTERSECT_COMPRESSED = "intersect_compressed"
    UNION_COMPRESSED = "union_compressed"
    INTERSECT_WITH_ARRAY = "intersect_with_array"
    RANK_SELECT_SKIP = "rank_select_skip"


@dataclass(frozen=True)
class CompressedIntegerSet:
    """A compressed representation of a sorted integer set.

    Attributes:
        codec_name: registry name of the codec that produced the payload.
        payload: codec-specific compressed data (opaque to callers).
        n: number of integers in the original set.
        universe: exclusive upper bound on the values (the bitmap length /
            the paper's "domain size").
        size_bytes: size of the compressed payload on the wire, excluding
            Python object overhead.  This is the paper's "space overhead"
            metric.
    """

    codec_name: str
    payload: Any
    n: int
    universe: int
    size_bytes: int

    def __len__(self) -> int:
        return self.n


class IntegerSetCodec(abc.ABC):
    """Base class for every bitmap and inverted-list compression codec.

    Subclasses set the class attributes and implement :meth:`compress`,
    :meth:`decompress`, :meth:`intersect`, and :meth:`union`.

    Class attributes:
        name: unique registry name, matching the paper's legend labels
            (e.g. ``"WAH"``, ``"SIMDBP128*"``).
        family: ``"bitmap"`` or ``"invlist"`` — which side of the study
            the codec belongs to.
        year: publication year, used only for the Figure-1 style history
            metadata.
    """

    name: ClassVar[str]
    family: ClassVar[str]
    year: ClassVar[int]

    #: Declared compressed-domain capabilities.  Kept as a plain class
    #: attribute (not a property) so the static analyzer can read the
    #: declaration without importing the codec; REPRO008 enforces that a
    #: declared capability has a matching override and vice versa.
    CAPABILITIES: ClassVar[frozenset[Capability]] = frozenset()

    # ------------------------------------------------------------------
    # Core contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def compress(
        self, values: Iterable[int] | np.ndarray, universe: int | None = None
    ) -> CompressedIntegerSet:
        """Compress a strictly increasing sequence of non-negative ints.

        Args:
            values: the posting list.
            universe: exclusive upper bound on values.  Bitmap codecs use
                it as the uncompressed bitmap length; when omitted it
                defaults to ``max(values) + 1`` (or 1 for an empty list).
        """

    @abc.abstractmethod
    def decompress(self, cs: CompressedIntegerSet) -> np.ndarray:
        """Recover the original posting list as an ``int64`` array."""

    @abc.abstractmethod
    def intersect(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        """AND two compressed sets, returning an uncompressed array."""

    @abc.abstractmethod
    def union(self, a: CompressedIntegerSet, b: CompressedIntegerSet) -> np.ndarray:
        """OR two compressed sets, returning an uncompressed array."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def params(self) -> dict[str, int | str]:
        """This instance's tunable configuration (block size, thresholds).

        Codecs with constructor knobs override this; the store manifest
        records it so a saved index can be verified against — not just
        assumed to match — the configuration that will decode it.
        Parameter-free codecs return ``{}``.
        """
        return {}

    def size_in_bytes(self, cs: CompressedIntegerSet) -> int:
        """Wire size of a compressed set (the space-overhead metric)."""
        return cs.size_bytes

    # ------------------------------------------------------------------
    # Capability protocol
    # ------------------------------------------------------------------
    def capabilities(self) -> frozenset[Capability]:
        """The compressed-domain operations *this instance* supports.

        Defaults to the class-level declaration; codecs whose support
        depends on construction parameters (e.g. blocked lists without
        skip pointers) override this to return a restricted set.  The
        query planner consults this — never ``hasattr`` probing — when
        deciding whether an operator can stay in the compressed domain.
        """
        return self.CAPABILITIES

    def intersect_compressed(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> CompressedIntegerSet:
        """AND two compressed sets into a *compressed* result.

        Only meaningful for codecs declaring
        :attr:`Capability.INTERSECT_COMPRESSED`; the base implementation
        refuses so a silent fallback-to-decode can never masquerade as a
        compressed-domain kernel.
        """
        raise NotImplementedError(
            f"{self.name} does not declare Capability.INTERSECT_COMPRESSED"
        )

    def union_compressed(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> CompressedIntegerSet:
        """OR two compressed sets into a *compressed* result (see
        :meth:`intersect_compressed`)."""
        raise NotImplementedError(
            f"{self.name} does not declare Capability.UNION_COMPRESSED"
        )

    def intersect_many(self, sets: list[CompressedIntegerSet]) -> np.ndarray:
        """Intersect k compressed sets, shortest-first (SvS ordering).

        Per the paper's Appendix B.1: the first two sets are intersected on
        their compressed forms; the running (uncompressed) result is then
        intersected against each remaining compressed set via
        :meth:`intersect_with_array`.  Codecs declaring
        :attr:`Capability.INTERSECT_COMPRESSED` instead chain the whole
        fold in the compressed domain and materialise only the final
        (smallest) result.
        """
        if not sets:
            return np.empty(0, dtype=np.int64)
        ordered = sorted(sets, key=len)
        if len(ordered) == 1:
            return self.decompress(ordered[0])
        if Capability.INTERSECT_COMPRESSED in self.capabilities():
            acc = ordered[0]
            for cs in ordered[1:]:
                if acc.n == 0:
                    break
                acc = self.intersect_compressed(acc, cs)
            return self.decompress(acc)
        result = self.intersect(ordered[0], ordered[1])
        for cs in ordered[2:]:
            if result.size == 0:
                break
            result = self.intersect_with_array(cs, result)
        return result

    def intersect_with_array(
        self, cs: CompressedIntegerSet, values: np.ndarray
    ) -> np.ndarray:
        """Intersect a compressed set with an uncompressed sorted array.

        The default decompresses and merges; codecs with random access
        (Roaring, PEF, blocked lists with skip pointers) override this to
        probe without full decompression.
        """
        if values.size == 0:
            return values
        mine = self.decompress(cs)
        return intersect_sorted_arrays(mine, values)

    def rank(self, cs: CompressedIntegerSet, value: int) -> int:
        """Number of stored elements ≤ *value*.

        Default implementation decompresses; random-access codecs
        (blocked lists, Roaring) override with sub-linear versions.
        """
        arr = self.decompress(cs)
        return int(np.searchsorted(arr, value, side="right"))

    def select(self, cs: CompressedIntegerSet, index: int) -> int:
        """The *index*-th smallest stored element (0-based).

        Raises IndexError outside ``[0, n)``.
        """
        if index < 0 or index >= cs.n:
            raise IndexError(f"select index {index} out of range [0, {cs.n})")
        return int(self.decompress(cs)[index])

    def difference(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        """ANDNOT: elements of *a* absent from *b* (uncompressed result).

        Not one of the paper's measured operations, but standard in
        production bitmap libraries; bitmap codecs override this to run
        on the compressed form.
        """
        return difference_sorted_arrays(self.decompress(a), self.decompress(b))

    def symmetric_difference(
        self, a: CompressedIntegerSet, b: CompressedIntegerSet
    ) -> np.ndarray:
        """XOR: elements in exactly one of the two sets."""
        return xor_sorted_arrays(self.decompress(a), self.decompress(b))

    def union_many(self, sets: list[CompressedIntegerSet]) -> np.ndarray:
        """Union k compressed sets via pairwise folding.

        Codecs declaring :attr:`Capability.UNION_COMPRESSED` fold in the
        compressed domain and materialise once at the end.
        """
        if not sets:
            return np.empty(0, dtype=np.int64)
        if len(sets) == 1:
            return self.decompress(sets[0])
        if Capability.UNION_COMPRESSED in self.capabilities():
            acc = sets[0]
            for cs in sets[1:]:
                acc = self.union_compressed(acc, cs)
            return self.decompress(acc)
        result = self.union(sets[0], sets[1])
        for cs in sets[2:]:
            result = union_sorted_arrays(result, self.decompress(cs))
        return result

    # Convenience wrappers -------------------------------------------------
    def roundtrip(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        """Compress then decompress, for testing and sanity checks."""
        return self.decompress(self.compress(values))

    @staticmethod
    def _prepare(
        values: Iterable[int] | np.ndarray, universe: int | None
    ) -> tuple[np.ndarray, int]:
        """Validate input and resolve the universe bound."""
        arr = as_posting_array(values)
        if universe is None:
            universe = int(arr[-1]) + 1 if arr.size else 1
        elif arr.size and universe <= int(arr[-1]):
            raise ValueError(
                f"universe {universe} too small for max value {int(arr[-1])}"
            )
        return arr, int(universe)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} family={self.family!r}>"


def intersect_sorted_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted-unique int arrays (vectorised merge).

    A stable sort of the concatenation is a linear two-run merge
    (timsort detects the pre-sorted runs), after which duplicates mark
    the common elements — much cheaper than hash-based set ops.
    """
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    aux = np.concatenate((a, b))
    aux.sort(kind="stable")
    return aux[:-1][aux[1:] == aux[:-1]].astype(np.int64, copy=False)


def union_sorted_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted-unique int arrays (vectorised merge)."""
    if a.size == 0:
        return b.astype(np.int64, copy=False)
    if b.size == 0:
        return a.astype(np.int64, copy=False)
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    keep[1:] = out[1:] != out[:-1]
    return out[keep].astype(np.int64, copy=False)


def difference_sorted_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a \\ b for sorted-unique int arrays (binary-search membership)."""
    if a.size == 0 or b.size == 0:
        return a.astype(np.int64, copy=False)
    idx = np.searchsorted(b, a)
    idx[idx == b.size] = b.size - 1
    return a[b[idx] != a].astype(np.int64, copy=False)


def xor_sorted_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric difference for sorted-unique int arrays.

    In the sorted concatenation, shared elements appear exactly twice and
    adjacent; singletons are the answer.
    """
    if a.size == 0:
        return b.astype(np.int64, copy=False)
    if b.size == 0:
        return a.astype(np.int64, copy=False)
    aux = np.concatenate((a, b))
    aux.sort(kind="stable")
    keep = np.ones(aux.size, dtype=bool)
    dup = aux[1:] == aux[:-1]
    keep[1:] &= ~dup
    keep[:-1] &= ~dup
    return aux[keep].astype(np.int64, copy=False)
