"""In-memory posting store: named shards of compressed term lists.

A shard is a named partition of the document space holding one
compressed posting list per term, all under one codec (any registry
member, or an unregistered wrapper like
:class:`repro.hybrid.AdaptiveCodec`).  The layout mirrors how a sharded
search tier deploys the paper's codecs: the universe is split across
shards, queries scatter over shards and gather partial results, and
every decode funnels through :func:`repro.core.decode` so the engine's
cache and metrics see all of it.

Persistence is one memory-mapped ``.rpro3`` segment per shard
(:mod:`repro.store.mapped`) plus a JSON manifest.  A store loaded from
disk is therefore immutable — ``Shard.add`` on it raises
:class:`MappedSegmentError`; mutation goes through
``connect(dir, writable=True).ingest``.  Loading is strict by default;
with ``strict=False`` a corrupt list is skipped and recorded (shard
stays serveable, queries touching the lost term come back flagged
partial) instead of taking the whole store down.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, MutableMapping, NamedTuple

import numpy as np

from repro.core.base import CompressedIntegerSet, IntegerSetCodec
from repro.core.decode import ArrayCache, DecodeObserver, decode
from repro.core.errors import ReproError
from repro.core.registry import get_codec
from repro.core.serialize import load
from repro.store.errors import (
    DuplicateShardError,
    DuplicateTermError,
    ManifestParamsError,
    MappedSegmentError,
    ShardLoadError,
    StoreError,
    UnknownShardError,
)

_MANIFEST = "manifest.json"
#: The one manifest version written and read: per shard, codec name +
#: ``params`` + ``universe`` + the relative path of its ``segment`` file.
#: Versions 1 and 2 (one ``.rpro`` file per term) are understood only by
#: :func:`migrate_store`.
_MANIFEST_VERSION = 3
_LEGACY_MANIFEST_VERSIONS = (1, 2)


def resolve_codec(spec: str | IntegerSetCodec) -> IntegerSetCodec:
    """A codec instance from a registry name, ``"Adaptive"``, or instance."""
    if isinstance(spec, IntegerSetCodec):
        return spec
    if spec == "Adaptive":
        # The adaptive hybrid is deliberately unregistered (it would
        # double-count its inner codecs in every sweep) but is a
        # first-class store codec.
        from repro.hybrid import AdaptiveCodec

        return AdaptiveCodec()
    return get_codec(spec)


class ShardState(NamedTuple):
    """An atomic read snapshot of one shard.

    ``versions`` maps term → monotonic rewrite counter (absent = 0);
    compaction bumps it for every term it re-encodes, and the query plan
    folds it into decode-cache keys so a rewritten list can never be
    served from its predecessor's cached array.
    """

    postings: Mapping[str, CompressedIntegerSet]
    #: Pending :class:`repro.store.segments.DeltaSegment`\ s, oldest first.
    deltas: tuple
    versions: Mapping[str, int]


_NO_VERSIONS: Mapping[str, int] = {}


@dataclass
class Shard:
    """One partition: term → compressed list, all under one codec."""

    name: str
    codec: IntegerSetCodec
    universe: int | None = None
    #: A plain dict for shards built in memory; a lazy, immutable
    #: :class:`repro.store.mapped.MappedPostings` for ones loaded from disk.
    postings: MutableMapping[str, CompressedIntegerSet] = field(
        default_factory=dict
    )
    #: Terms lost to corruption during a lenient load: term → reason.
    failed_terms: dict[str, str] = field(default_factory=dict)

    def add(
        self,
        term: str,
        values: Iterable[int] | np.ndarray,
        universe: int | None = None,
    ) -> CompressedIntegerSet:
        """Compress and store one posting list under *term*."""
        if term in self.postings:
            raise DuplicateTermError(
                f"term {term!r} already present in shard {self.name!r}"
            )
        cs = self.codec.compress(values, universe=universe or self.universe)
        self.postings[term] = cs
        return cs

    def add_compressed(self, term: str, cs: CompressedIntegerSet) -> None:
        """Store an already-compressed list (must match the shard codec)."""
        if term in self.postings:
            raise DuplicateTermError(
                f"term {term!r} already present in shard {self.name!r}"
            )
        if cs.codec_name != self.codec.name:
            raise ReproError(
                f"shard {self.name!r} holds {self.codec.name!r} lists, "
                f"got {cs.codec_name!r}"
            )
        self.postings[term] = cs

    @property
    def size_bytes(self) -> int:
        # Mapped shards answer from the entry table (vectorised, no
        # materialisation); summing over a MappedPostings would parse
        # every term and defeat the lazy open.
        fast = getattr(self.postings, "total_size_bytes", None)
        if fast is not None:
            return fast()
        return sum(cs.size_bytes for cs in self.postings.values())

    @property
    def n_postings(self) -> int:
        fast = getattr(self.postings, "total_postings", None)
        if fast is not None:
            return fast()
        return sum(cs.n for cs in self.postings.values())

    # ------------------------------------------------------------------
    # Read-path hook the writable subclass overrides
    # ------------------------------------------------------------------
    def read_state(self) -> "ShardState":
        """One consistent snapshot of (base postings, deltas, versions).

        A read-only shard has no deltas and no rewrites, so the live
        dict is the snapshot.  :class:`repro.store.segments.WritableShard`
        overrides this to hand out the base map, the pending delta
        chain, and the per-term rewrite counters *atomically* (one lock
        covers the triple, and compaction swaps all three references
        under the same lock) — which is what makes compaction invisible
        to in-flight queries: a plan never mixes a new base with old
        versions or vice versa.
        """
        return ShardState(self.postings, (), _NO_VERSIONS)


class PostingStore:
    """Named shards plus the cache-aware decode path over them."""

    def __init__(self) -> None:
        self._shards: dict[str, Shard] = {}
        #: Errors swallowed by the last lenient :meth:`load` (corrupt
        #: lists as :class:`ShardLoadError`, codec-configuration drift as
        #: :class:`ManifestParamsError`).
        self.load_errors: list[StoreError] = []
        #: Compaction generation recorded in the manifest (0 = as-built).
        self.generation = 0
        #: Build-path mutation counter (shards created/dropped, lists
        #: added through the store); feeds :meth:`read_version`.
        self._mutations = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def create_shard(
        self,
        name: str,
        codec: str | IntegerSetCodec = "Roaring",
        universe: int | None = None,
    ) -> Shard:
        if name in self._shards:
            raise DuplicateShardError(f"shard {name!r} already exists")
        shard = Shard(name=name, codec=resolve_codec(codec), universe=universe)
        self._shards[name] = shard
        self._mutations += 1
        return shard

    def add_list(
        self,
        shard: str,
        term: str,
        values: Iterable[int] | np.ndarray,
        universe: int | None = None,
    ) -> CompressedIntegerSet:
        cs = self.shard(shard).add(term, values, universe=universe)
        self._mutations += 1
        return cs

    def drop_shard(self, name: str) -> None:
        if name not in self._shards:
            raise UnknownShardError(f"unknown shard {name!r}")
        del self._shards[name]
        self._mutations += 1

    def read_version(self) -> tuple[int, ...]:
        """A hashable version tag that changes whenever read results could.

        Components: the compaction generation, the build-path mutation
        counter, and the total term count (which also catches lists added
        directly on a :class:`Shard`, bypassing :meth:`add_list`).  The
        plan-result cache embeds this tag in its keys, which is what makes
        its invalidation free: any store change moves every key, so stale
        entries become unreachable and age out of the LRU.
        :class:`~repro.store.segments.WritablePostingStore` extends the
        tag with its ingest counter so delta writes shift it too.
        """
        total_terms = sum(len(s.postings) for s in self._shards.values())
        return (self.generation, self._mutations, total_terms)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard(self, name: str) -> Shard:
        try:
            return self._shards[name]
        except KeyError:
            known = ", ".join(sorted(self._shards)) or "<none>"
            raise UnknownShardError(
                f"unknown shard {name!r}; known: {known}"
            ) from None

    def shard_names(self) -> list[str]:
        return list(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    def get(self, shard: str, term: str) -> CompressedIntegerSet | None:
        """The compressed list for (shard, term), or None when absent."""
        return self.shard(shard).postings.get(term)

    def stats(self) -> dict:
        """JSON-able inventory: shards, terms, postings, wire bytes."""
        return {
            "shards": {
                s.name: {
                    "codec": s.codec.name,
                    "terms": len(s.postings),
                    "postings": s.n_postings,
                    "size_bytes": s.size_bytes,
                    "failed_terms": sorted(s.failed_terms),
                }
                for s in self._shards.values()
            },
            "total_terms": sum(len(s.postings) for s in self._shards.values()),
            "total_size_bytes": sum(s.size_bytes for s in self._shards.values()),
        }

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_term(
        self,
        shard: str,
        term: str,
        *,
        cache: ArrayCache | None = None,
        observer: DecodeObserver | None = None,
    ) -> np.ndarray:
        """Materialise one term's postings through the cache-aware path.

        A term absent from the shard decodes to an empty array — the
        standard IR convention for partitioned indexes, where each shard
        holds only the terms its documents mention.

        The cache key folds the term's rewrite generation into the codec
        slot (the same ``codec#gN`` scheme as ``plan.versioned``): a
        term compaction re-encodes under the *same* codec must never be
        served from its predecessor's cached array.
        """
        sh = self.shard(shard)
        state = sh.read_state()
        cs = state.postings.get(term)
        if cs is None:
            return np.empty(0, dtype=np.int64)
        slot = cs.codec_name
        epoch = getattr(state.postings, "cache_epoch", None)
        if epoch is not None:
            # Mapped shard: the epoch distinguishes one mapping of a
            # directory from any other (reopen, migration), mirroring
            # ``plan.versioned`` — same key, same cached array.
            slot = f"{slot}@m{epoch}"
        ver = state.versions.get(term, 0)
        versioned_codec = slot if not ver else f"{slot}#g{ver}"
        return decode(
            cs,
            codec=sh.codec,
            cache=cache,
            key=(shard, term, versioned_codec),
            observer=observer,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | os.PathLike, *, mapped: bool = True) -> None:
        """Write every shard under *directory* (manifest + segment files).

        One ``.rpro3`` segment per shard, openable with zero per-term
        parsing (:mod:`repro.store.mapped`, ``docs/segment_format.md``).
        The manifest records each shard codec's full configuration via
        :meth:`IntegerSetCodec.params`, and is written atomically (temp
        file + rename) so a reader never observes a half-written
        manifest.
        """
        # Inert: pinned by benchmarks/e2e/targets.py:75 (`save(directory,
        # mapped=True)`); drop the keyword when that line goes.
        if mapped is not True:
            raise TypeError("save() writes the mapped layout only; drop mapped=")
        from repro.store.mapped import MAPPED_SUFFIX, write_mapped_segment

        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        manifest = manifest_dict(self)
        for shard in self._shards.values():
            os.makedirs(os.path.join(directory, shard.name), exist_ok=True)
            rel = os.path.join(
                shard.name, f"segment-g{self.generation:06d}{MAPPED_SUFFIX}"
            )
            write_mapped_segment(
                os.path.join(directory, rel),
                shard.postings.items(),
                generation=self.generation,
            )
            manifest["shards"][shard.name]["segment"] = rel
        write_manifest(directory, manifest)

    @classmethod
    def load(
        cls, directory: str | os.PathLike, *, strict: bool = True
    ) -> "PostingStore":
        """Rebuild a store written by :meth:`save`.

        Args:
            directory: the save directory.
            strict: when True (default) a damaged segment raises
                :class:`MappedSegmentError` (structure at load, a list's
                payload at first touch), and a shard whose manifest
                codec params disagree with the registry's configuration
                raises :class:`ManifestParamsError`; when False both are
                recorded (``store.load_errors``, the owning shard's
                ``failed_terms``) and the rest keeps serving.
        """
        store = cls()
        load_manifest_into(store, directory, strict=strict)
        return store


# ----------------------------------------------------------------------
# Manifest plumbing (shared with repro.store.segments)
# ----------------------------------------------------------------------
def manifest_dict(store: PostingStore) -> dict:
    """The store's manifest skeleton — per-shard ``segment`` filled by callers."""
    return {
        "version": _MANIFEST_VERSION,
        "generation": store.generation,
        "shards": {
            shard.name: {
                "codec": shard.codec.name,
                "params": shard.codec.params(),
                "universe": shard.universe,
                "terms": {},  # v2 leftover, always empty: keeps v3 manifests byte-stable
            }
            for shard in (store.shard(n) for n in store.shard_names())
        },
    }


def write_manifest(directory: str, manifest: dict) -> None:
    """Atomically replace the manifest: temp file + rename + dir fsync."""
    from repro.store.wal import _fsync_dir

    path = os.path.join(directory, _MANIFEST)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory)


def manifest_path(directory: str | os.PathLike) -> str:
    return os.path.join(os.fspath(directory), _MANIFEST)


def verify_codec_params(
    codec: IntegerSetCodec, manifest_params: Mapping | None
) -> None:
    """Raise :class:`ManifestParamsError` when the saved configuration
    disagrees with how the registry (or Adaptive) instantiates the codec.

    Version-1 manifests (seen only by :func:`migrate_store`) carry no
    params (``None``): nothing to verify.
    """
    if manifest_params is None:
        return
    actual = codec.params()
    if dict(manifest_params) != actual:
        raise ManifestParamsError(codec.name, dict(manifest_params), actual)


def _declare_shard(
    store: PostingStore, name: str, spec: Mapping, *, strict: bool
) -> Shard:
    """Create the shard a manifest entry names and check its codec params."""
    shard = store.create_shard(name, codec=spec["codec"], universe=spec["universe"])
    try:
        verify_codec_params(shard.codec, spec.get("params"))
    except ManifestParamsError as err:
        if strict:
            raise
        store.load_errors.append(err)
    return shard


def load_manifest_into(
    store: PostingStore, directory: str | os.PathLike, *, strict: bool = True
) -> dict:
    """Populate *store* from a saved manifest; returns the manifest dict.

    Shared by :meth:`PostingStore.load` and the writable store's
    recovery path (which replays the WAL on top afterwards).
    """
    directory = os.fspath(directory)
    with open(manifest_path(directory)) as fh:
        manifest = json.load(fh)
    if manifest.get("version") != _MANIFEST_VERSION:
        raise StoreError(
            f"{directory}: store manifest version {manifest.get('version')!r} "
            f"is not readable (this build reads version {_MANIFEST_VERSION} "
            "only); a legacy v1/v2 store upgrades in place with "
            f"`python -m repro.store migrate {directory}`"
        )
    store.generation = int(manifest.get("generation", 0))
    for name, spec in manifest["shards"].items():
        shard = _declare_shard(store, name, spec, strict=strict)
        _attach_mapped_shard(store, shard, directory, spec, strict=strict)
    return manifest


def _attach_mapped_shard(
    store: PostingStore,
    shard: Shard,
    directory: str,
    spec: Mapping,
    *,
    strict: bool,
) -> None:
    """Mount one shard: map the segment, install the lazy postings view.

    No per-term work happens here — :class:`repro.store.mapped.MappedSegment`
    validates structure (and, strict, the metadata CRC) in O(file) C-speed
    passes, and terms materialise lazily on first access.  A lenient open
    of a damaged segment degrades only the affected terms (pre-marked
    bounds failures land in ``failed_terms`` now; payload damage lands
    there at first touch); whole-file damage leaves the shard empty with
    the error recorded.
    """
    from repro.store.mapped import MappedPostings, MappedSegment

    path = os.path.join(directory, spec["segment"])
    try:
        segment = MappedSegment.open(path, strict=strict)
    except MappedSegmentError as err:
        if strict:
            raise
        store.load_errors.append(err)
        return
    shard.postings = MappedPostings(
        segment,
        strict=strict,
        cache_epoch=segment.generation,
        failed_sink=shard.failed_terms,
    )
    for term, reason in shard.failed_terms.items():
        store.load_errors.append(
            ShardLoadError(shard.name, term, path, MappedSegmentError(path, reason, term=term))
        )


def _load_legacy(directory: str, manifest: Mapping, *, strict: bool) -> PostingStore:
    """The v1/v2 reader (one ``.rpro`` per term), kept for :func:`migrate_store` only."""
    store = PostingStore()
    store.generation = int(manifest.get("generation", 0))
    for name, spec in manifest["shards"].items():
        shard = _declare_shard(store, name, spec, strict=strict)
        for term, rel in spec.get("terms", {}).items():
            path = os.path.join(directory, rel)
            try:
                shard.postings[term] = load(path)
            except Exception as exc:
                if strict:
                    raise ShardLoadError(name, term, path, exc) from exc
    return store


def _files_with_suffix(directory: str, suffix: str) -> list[str]:
    return [
        os.path.join(root, f)
        for root, _dirs, files in os.walk(directory)
        for f in files
        if f.endswith(suffix)
    ]


def migrate_store(directory: str | os.PathLike, *, strict: bool = True) -> dict:
    """One-shot, in-place migration of a legacy (v1/v2) store to v3.

    The per-term lists are rewritten as mapped segments under a v3
    manifest and the legacy ``.rpro`` files deleted; pending WAL files (a
    writable store closed mid-stream) are then folded in by one
    compaction, so no acknowledged write is lost (replay over the
    migrated base is idempotent, so a crash anywhere is re-runnable).
    With ``strict=False`` corrupt lists are dropped instead of failing
    the migration.  Idempotent: migrating a v3 store is a no-op.
    Returns a summary dict (``shards``, ``terms``, ``segment_bytes``,
    ``removed_files``).
    """
    directory = os.fspath(directory)
    with open(manifest_path(directory)) as fh:
        manifest = json.load(fh)
    legacy: list[str] = []
    if manifest.get("version") in _LEGACY_MANIFEST_VERSIONS:
        _load_legacy(directory, manifest, strict=strict).save(directory)
        legacy = _files_with_suffix(directory, ".rpro")
        for path in legacy:
            os.unlink(path)
        if any(fname.startswith("wal-") for fname in os.listdir(directory)):
            from repro.store.segments import WritablePostingStore

            WritablePostingStore.open(directory, strict=strict).close(compact=True)
    # Anything else that is not v3 (an unknown version) is refused here.
    store = PostingStore.load(directory, strict=strict)
    already = manifest.get("version") == _MANIFEST_VERSION
    return {
        "already_mapped": already,
        "shards": len(store),
        "terms": sum(len(store.shard(n).postings) for n in store.shard_names()),
        "segment_bytes": 0 if already else sum(
            os.path.getsize(p) for p in _files_with_suffix(directory, ".rpro3")
        ),
        "removed_files": len(legacy),
    }
