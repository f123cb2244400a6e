"""The one-import facade: ``from repro import api``.

Everything a downstream user needs for the common paths — compress a
posting list, combine compressed lists, open a saved store and query it
with the typed AST — without learning the package layout.  Each name
here is a thin re-export or a small convenience wrapper; the underlying
modules (:mod:`repro.core`, :mod:`repro.ops`, :mod:`repro.store`,
:mod:`repro.server`) remain the real implementation and keep their own
import paths for internal use.

Quickstart::

    import numpy as np
    from repro import api

    a = api.compress(np.array([2, 5, 10, 1_000_000]), codec="Roaring")
    b = api.compress(np.arange(0, 2_000_000, 2), codec="Roaring")
    both = api.intersect(a, b)          # -> np.ndarray of shared values
    either = api.union(a, b)

    with api.connect("/data/index") as t:               # local store
        r = t.query(api.And(api.Or("news", "sports"), "2024"))
        print(r.status, r.values)

    with api.connect("http://10.0.0.5:8080") as t:      # server OR cluster
        r = t.query(api.And(api.Or("news", "sports"), "2024"))

    with api.connect("/data/index", writable=True) as t:
        t.ingest([("add", "shard00", "news", [42, 99])])  # durable ack

:func:`connect` is the one serving entrypoint — it returns the same
:class:`QueryTarget` surface over a local store, a single
:mod:`repro.server` process, and a :mod:`repro.cluster` router, and its
``query()`` results are bit-identical across the three (see
``docs/api.md``).

Error taxonomy: every exception the library raises roots at
:class:`api.ReproError`; the full tree — codec, store, serving, and
cluster tiers, each annotated with the ``retryable`` bit the cluster
router's failover keys off — is re-exported as one import surface by
:mod:`repro.api.errors`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import (
    Capability,
    CompressedIntegerSet,
    IntegerSetCodec,
    all_codec_names,
    get_codec,
)
from repro.ops.intersection import svs_intersect
from repro.ops.union import merge_union

# The unified error tree (single source: repro.api.errors).
from repro.api import errors
from repro.api.errors import (
    BackendUnavailableError,
    ClusterError,
    CodecError,
    CorruptPayloadError,
    DomainOverflowError,
    InvalidInputError,
    ManifestParamsError,
    MappedSegmentError,
    NoReplicaAvailableError,
    ProtocolError,
    QueryRejectedError,
    ReproError,
    ServerUnavailableError,
    ShardLoadError,
    ShardMapError,
    ShardMapStaleError,
    StoreError,
    UnknownCodecError,
    UnknownShardError,
    WalCorruptionError,
    is_retryable,
)
from repro.api.targets import (
    LocalTarget,
    QueryTarget,
    RemoteTarget,
    connect,
)
from repro.store.engine import QueryEngine, QueryResult
from repro.store.plan import And, Or, Query, Term, parse_query, query_from_json
from repro.store.segments import WritablePostingStore
from repro.store.store import PostingStore, migrate_store

__all__ = [
    # Compression
    "compress",
    "decompress",
    "get_codec",
    "all_codec_names",
    "codec_capabilities",
    "Capability",
    "CompressedIntegerSet",
    "IntegerSetCodec",
    # Set operations
    "intersect",
    "union",
    # Query AST
    "Term",
    "And",
    "Or",
    "Query",
    "parse_query",
    "query_from_json",
    # Serving targets (the one entrypoint + its protocol surface)
    "connect",
    "QueryTarget",
    "LocalTarget",
    "RemoteTarget",
    # Store
    "migrate_store",
    "PostingStore",
    "WritablePostingStore",
    "QueryEngine",
    "QueryResult",
    # Errors (full tree: repro.api.errors)
    "errors",
    "is_retryable",
    "ReproError",
    "CodecError",
    "InvalidInputError",
    "CorruptPayloadError",
    "DomainOverflowError",
    "UnknownCodecError",
    "StoreError",
    "ShardLoadError",
    "UnknownShardError",
    "WalCorruptionError",
    "ManifestParamsError",
    "MappedSegmentError",
    "ProtocolError",
    "QueryRejectedError",
    "ServerUnavailableError",
    "ClusterError",
    "ShardMapError",
    "ShardMapStaleError",
    "BackendUnavailableError",
    "NoReplicaAvailableError",
]

#: Facade default: the study's all-round best bitmap codec.
DEFAULT_CODEC = "Roaring"


def compress(
    values: np.ndarray | Sequence[int],
    codec: str = DEFAULT_CODEC,
    *,
    universe: int | None = None,
) -> CompressedIntegerSet:
    """Compress a sorted posting list under the named codec.

    Args:
        values: strictly increasing non-negative integers (array-like).
        codec: registry name, e.g. ``"Roaring"``, ``"WAH"``, ``"PforDelta"``.
        universe: value-domain bound; defaults to ``max(values) + 1``.
    """
    return get_codec(codec).compress(np.asarray(values), universe=universe)


def decompress(cs: CompressedIntegerSet) -> np.ndarray:
    """Exact inverse of :func:`compress` (codec resolved from the set)."""
    return get_codec(cs.codec_name).decompress(cs)


def codec_capabilities(name: str) -> frozenset[Capability]:
    """The :class:`Capability` set a registered codec declares.

    This is the feature-detection entry point for the compressed-domain
    execution protocol: a codec listing
    :attr:`Capability.INTERSECT_COMPRESSED` /
    :attr:`Capability.UNION_COMPRESSED` evaluates same-codec AND/OR
    operators without materialising either operand (see
    ``docs/query_engine.md``).  Bitset, Roaring and List declare them;
    the RLE bitmaps (WAH, EWAH, PLWAH, CONCISE, SBH, BBC, VALWAH) do not
    — their operators emit positions — and list
    :attr:`Capability.INTERSECT_WITH_ARRAY` only.  Raises
    :class:`UnknownCodecError` for names outside the registry.
    """
    return get_codec(name).capabilities()


def intersect(*sets: CompressedIntegerSet) -> np.ndarray:
    """Intersect compressed sets (one codec per call), SvS-ordered."""
    return svs_intersect(list(sets))


def union(*sets: CompressedIntegerSet) -> np.ndarray:
    """Union compressed sets (one codec per call)."""
    return merge_union(list(sets))
