"""Mutable posting store: delta segments, WAL durability, compaction.

This is the write path the paper's static benchmark index lacks.  The
architecture is the standard one for maintained inverted indexes (see
Pibiri & Venturini's maintenance survey): mutations land in a small
*uncompressed in-memory delta segment* and a write-ahead log; reads
merge the sealed compressed segments with the delta at query time; a
background *compaction* seals the delta and re-encodes only the terms
it touched, re-running per-list codec selection (so an ``Adaptive``
shard may move a term between Roaring and SIMDPforDelta* as its density
drifts), then atomically replaces the manifest.

Concurrency model (three locks, strictly ordered write → state):

* ``_write_lock`` — serialises mutations, WAL rotation, and the seal
  step of compaction.  Queries never take it.
* per-shard ``state_lock`` — guards the *references* a query snapshots
  (:meth:`WritableShard.read_state`): base postings dict, delta chain,
  per-term version map.  Compaction commit swaps all three under it;
  holders only copy three references, so it is never held long.
* each :class:`DeltaSegment` has its own lock so queries can snapshot a
  term's overlay while writers mutate other terms.

Crash safety is the WAL's job (:mod:`repro.store.wal`): every
acknowledged batch is fsynced before the ack, replay is idempotent over
an already-compacted base (the delta discipline keeps ``adds`` and
``dels`` disjoint, and both are *overlays* — re-adding a value the base
already holds is a no-op), and the compaction commit protocol only
deletes a WAL file after the manifest that contains its effects has been
atomically renamed into place.  ``docs/write_path.md`` walks every crash
window.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.runtime_witness import maybe_witness
from repro.core.base import (
    CompressedIntegerSet,
    IntegerSetCodec,
    difference_sorted_arrays,
    union_sorted_arrays,
)
from repro.store.errors import DuplicateShardError, StoreError, UnknownShardError
from repro.store.mapped import (
    MAPPED_SUFFIX,
    MappedPostings,
    MappedSegment,
    write_mapped_segment,
)
from repro.store.store import (
    PostingStore,
    Shard,
    ShardState,
    load_manifest_into,
    manifest_dict,
    manifest_path,
    resolve_codec,
    write_manifest,
)
from repro.store.wal import (
    OP_ADD,
    OP_DELETE,
    OP_SHARD,
    WalReplay,
    WriteAheadLog,
    replay_wal,
)

_WAL_RE = re.compile(r"^wal-(\d{6})\.log$")
#: Files subject to orphan GC: ``.rpro3`` segments, their ``.tmp``
#: write-ahead copies, and legacy per-term ``.rpro`` files a migration
#: crashed before unlinking.
_RPRO_RE = re.compile(r"\.rpro3?(\.tmp)?$")


def _wal_name(seq: int) -> str:
    return f"wal-{seq:06d}.log"


def _as_value_list(values: Iterable[int] | np.ndarray) -> list[int]:
    """Validate and normalise one op's doc ids for WAL/delta use."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    out = [int(v) for v in values]
    for v in out:
        if v < 0:
            raise StoreError(f"negative doc id {v}")
    return out


class DeltaSegment:
    """Uncompressed in-memory overlay: term → (added ids, deleted ids).

    The discipline that makes WAL replay idempotent: an append removes
    the value from ``dels`` then puts it in ``adds``; a delete removes
    it from ``adds`` then puts it in ``dels``.  The two sets are always
    disjoint, ops applied in order are last-writer-wins, and applying
    the same op stream twice yields the same overlay.

    The effective posting list for a term is
    ``(base − dels) ∪ adds`` — see :func:`apply_delta`.
    """

    def __init__(self) -> None:
        self._terms: dict[str, tuple[set[int], set[int]]] = {}
        self._lock = maybe_witness("DeltaSegment._lock", threading.Lock())
        #: Bumped on every mutation; folded into overlay cache keys so a
        #: cached merged array can never outlive the state it reflects.
        self.revision = 0
        self.op_count = 0

    def _entry(self, term: str) -> tuple[set[int], set[int]]:
        entry = self._terms.get(term)
        if entry is None:
            entry = (set(), set())
            self._terms[term] = entry
        return entry

    def append(self, term: str, values: Iterable[int]) -> None:
        with self._lock:
            adds, dels = self._entry(term)
            for v in values:
                dels.discard(v)
                adds.add(v)
            self.revision += 1
            self.op_count += 1

    def delete(self, term: str, values: Iterable[int]) -> None:
        with self._lock:
            adds, dels = self._entry(term)
            for v in values:
                adds.discard(v)
                dels.add(v)
            self.revision += 1
            self.op_count += 1

    def terms(self) -> list[str]:
        with self._lock:
            return list(self._terms)

    def snapshot(self, term: str) -> tuple[np.ndarray, np.ndarray, int]:
        """(sorted added ids, sorted deleted ids, revision) for one term."""
        with self._lock:
            entry = self._terms.get(term)
            if entry is None:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, self.revision
            adds = np.fromiter(entry[0], dtype=np.int64, count=len(entry[0]))
            dels = np.fromiter(entry[1], dtype=np.int64, count=len(entry[1]))
            adds.sort()
            dels.sort()
            return adds, dels, self.revision

    def touches(self, term: str) -> bool:
        with self._lock:
            return term in self._terms

    @property
    def is_empty(self) -> bool:
        with self._lock:
            return not self._terms


def apply_delta(
    base: np.ndarray, adds: np.ndarray, dels: np.ndarray
) -> np.ndarray:
    """``(base − dels) ∪ adds`` over sorted int64 arrays."""
    out = base
    if dels.size:
        out = difference_sorted_arrays(out, dels)
    if adds.size:
        out = union_sorted_arrays(out, adds)
    return out


class WritableShard(Shard):
    """A shard whose read state is an atomic (base, deltas, versions) triple."""

    def __init__(
        self,
        name: str,
        codec: IntegerSetCodec,
        universe: int | None = None,
    ) -> None:
        super().__init__(name=name, codec=codec, universe=universe)
        self.state_lock = maybe_witness(
            "WritableShard.state_lock", threading.Lock()
        )
        #: Pending overlays, oldest first; the last one is the active
        #: segment new writes land in.
        self.deltas: tuple[DeltaSegment, ...] = (DeltaSegment(),)
        #: term → rewrite generation (absent = 0); replaced, never
        #: mutated, so a snapshotted map stays internally consistent.
        self.versions: Mapping[str, int] = {}

    @property
    def active_delta(self) -> DeltaSegment:
        return self.deltas[-1]

    def read_state(self) -> ShardState:
        with self.state_lock:
            return ShardState(self.postings, self.deltas, self.versions)

    def pending_ops(self) -> int:
        return sum(d.op_count for d in self.deltas)


class WritablePostingStore(PostingStore):
    """A :class:`PostingStore` with an acknowledged-write ingest path.

    Use :meth:`open` (or ``repro.api.connect(dir, writable=True)``);
    the constructor alone builds an in-memory store with no durability.

    Writes go through :meth:`append` / :meth:`delete` /
    :meth:`ingest_batch`; a batch is acknowledged only after its WAL
    records are fsynced.  :meth:`compact` (or the background thread from
    :meth:`start_compactor`) folds pending deltas into the compressed
    segments and truncates the log.
    """

    def __init__(
        self, directory: str | os.PathLike | None = None, *, fsync: bool = True
    ) -> None:
        super().__init__()
        self.directory = os.fspath(directory) if directory is not None else None
        self._fsync = fsync
        self._write_lock = maybe_witness(
            "WritablePostingStore._write_lock", threading.RLock()
        )
        self._compact_lock = maybe_witness(
            "WritablePostingStore._compact_lock", threading.Lock()
        )
        self._wal: WriteAheadLog | None = None
        self._wal_seq = 0
        #: WAL files whose ops live in sealed (or recovered) deltas; safe
        #: to delete only after a compaction persists those effects.
        self._retired_wals: list[str] = []
        #: Ops recovered from WALs by the last :meth:`open` replay.
        self.recovered_ops = 0
        #: Torn-tail bytes discarded across recovered WALs (crash debris).
        self.recovered_tail_bytes = 0
        self.compactions = 0
        #: Shard → segment file (relative) of the manifest on disk.
        self._manifest_segments: dict[str, str] = {}
        #: Damage policy inherited by segments mapped after compaction.
        self._strict = True
        self._compactor: threading.Thread | None = None
        self._stop = threading.Event()
        self._closed = False
        #: Acknowledged ingest batches since open; feeds :meth:`read_version`
        #: so delta writes shift the plan-cache version tag.
        self._ingests = 0

    # ------------------------------------------------------------------
    # Opening / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        *,
        strict: bool = True,
        fsync: bool = True,
    ) -> "WritablePostingStore":
        """Open (creating if absent) a writable store at *directory*.

        Recovery order: load the manifest's compressed segments, replay
        every WAL file oldest-first into fresh delta segments, garbage-
        collect orphan files from interrupted compactions, then rotate
        to a new WAL (recovered logs are retired, not appended to, so a
        discarded torn tail can never precede a live record).  A legacy
        (v1/v2) manifest raises :class:`StoreError` naming the
        ``python -m repro.store migrate`` upgrade, before anything is
        written.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        store = cls(directory, fsync=fsync)
        store._strict = strict
        if os.path.exists(manifest_path(directory)):
            manifest = load_manifest_into(store, directory, strict=strict)
            store._manifest_segments = {
                name: spec["segment"] for name, spec in manifest["shards"].items()
            }
        wal_paths = store._existing_wals()
        for path in wal_paths:
            replay = replay_wal(path, strict=strict)
            store._absorb_replay(replay)
        store._gc_orphans()
        # Freeze the recovered overlay: new writes go to fresh deltas
        # backed by a fresh log, old logs wait for the next compaction.
        for shard in store._writable_shards():
            if not shard.active_delta.is_empty:
                with shard.state_lock:
                    shard.deltas = shard.deltas + (DeltaSegment(),)
        store._retired_wals.extend(wal_paths)
        store._wal_seq = (
            max((store._wal_seq_of(p) for p in wal_paths), default=0) + 1
        )
        store._open_wal()
        return store

    def _existing_wals(self) -> list[str]:
        assert self.directory is not None
        out = []
        for entry in sorted(os.listdir(self.directory)):
            if _WAL_RE.match(entry):
                out.append(os.path.join(self.directory, entry))
        return out

    @staticmethod
    def _wal_seq_of(path: str) -> int:
        m = _WAL_RE.match(os.path.basename(path))
        return int(m.group(1)) if m else 0

    def _open_wal(self) -> None:
        assert self.directory is not None
        self._wal = WriteAheadLog(
            os.path.join(self.directory, _wal_name(self._wal_seq)),
            fsync=self._fsync,
        )

    def _absorb_replay(self, replay: WalReplay) -> None:
        # Recovery runs before the store is handed out, but open() is not
        # the only conceivable caller — hold the write lock (reentrant)
        # so the recovery counters follow the same discipline as every
        # other mutation.
        with self._write_lock:
            self.recovered_tail_bytes += replay.dropped_tail_bytes
            if replay.error is not None:
                self.load_errors.append(
                    StoreError(f"WAL {replay.path}: {replay.error}")
                )
            for op in replay.ops:
                self._apply_op(op)
            self.recovered_ops += len(replay.ops)

    def _apply_op(self, op: dict) -> None:
        """Apply one WAL op to in-memory state (no logging — replay path)."""
        kind = op["op"]
        if kind == OP_SHARD:
            # Idempotent over a manifest that already holds the shard.
            if op["shard"] not in self:
                self.create_shard(
                    op["shard"],
                    codec=op.get("codec", "Roaring"),
                    universe=op.get("universe"),
                )
            return
        shard = self._writable(op["shard"])
        if kind == OP_ADD:
            shard.active_delta.append(op["term"], op["values"])
        elif kind == OP_DELETE:
            shard.active_delta.delete(op["term"], op["values"])

    def _gc_orphans(self) -> None:
        """Delete files from interrupted compactions/saves.

        Any segment file (or ``.tmp`` of one) that the manifest does not
        reference, plus stale ``manifest.json.tmp``, is debris from a
        crash between writing segment files and the atomic manifest
        rename — the manifest is the single source of truth.
        """
        assert self.directory is not None
        referenced = set(self._manifest_segments.values())
        for root, _dirs, files in os.walk(self.directory):
            for fname in files:
                full = os.path.join(root, fname)
                rel = os.path.relpath(full, self.directory)
                if fname.endswith(".tmp") and fname.startswith("manifest"):
                    os.unlink(full)
                elif _RPRO_RE.search(fname) and rel not in referenced:
                    os.unlink(full)

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------
    def create_shard(
        self,
        name: str,
        codec: str | IntegerSetCodec = "Roaring",
        universe: int | None = None,
    ) -> WritableShard:
        """Create a shard; logged to the WAL when the store is open.

        During recovery (manifest load, WAL replay) the WAL is not yet
        open, so re-creation is never re-logged.
        """
        with self._write_lock:
            if name in self:
                raise DuplicateShardError(f"shard {name!r} already exists")
            shard = WritableShard(
                name=name, codec=resolve_codec(codec), universe=universe
            )
            self._shards[name] = shard
            if self._wal is not None:
                codec_name = shard.codec.name
                self._wal.append(
                    {
                        "op": OP_SHARD,
                        "shard": name,
                        "codec": codec_name,
                        "universe": universe,
                    }
                )
                self._wal.sync()
            return shard

    def _writable(self, name: str) -> WritableShard:
        shard = self.shard(name)
        if not isinstance(shard, WritableShard):
            raise UnknownShardError(f"shard {name!r} is not writable")
        return shard

    def _writable_shards(self) -> list[WritableShard]:
        return [s for s in self._shards.values() if isinstance(s, WritableShard)]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, shard: str, term: str, values: Iterable[int]) -> None:
        """Add doc ids to a term's list; durable once the call returns."""
        self.ingest_batch([(OP_ADD, shard, term, values)])

    def delete(self, shard: str, term: str, values: Iterable[int]) -> None:
        """Remove doc ids from a term's list; durable once the call returns."""
        self.ingest_batch([(OP_DELETE, shard, term, values)])

    def ingest_batch(
        self, ops: Iterable[tuple[str, str, str, Iterable[int]]]
    ) -> int:
        """Apply a batch of ``(op, shard, term, values)`` atomically-ish.

        Every op is WAL-logged and applied to the shard's active delta;
        the WAL is fsynced once, at the end — the acknowledgement
        barrier.  Returns the number of ops applied.  A bad op (unknown
        shard, negative id) raises before the sync, leaving earlier ops
        of the batch unacknowledged in the delta; they are still
        replay-consistent because the WAL holds exactly what the delta
        holds.
        """
        if self._closed:
            raise StoreError("store is closed")
        count = 0
        with self._write_lock:
            for kind, shard_name, term, values in ops:
                if kind not in (OP_ADD, OP_DELETE):
                    raise StoreError(f"unknown ingest op {kind!r}")
                shard = self._writable(shard_name)
                vals = _as_value_list(values)
                op = {
                    "op": kind,
                    "shard": shard_name,
                    "term": term,
                    "values": vals,
                }
                if self._wal is not None:
                    self._wal.append(op)
                if kind == OP_ADD:
                    shard.active_delta.append(term, vals)
                else:
                    shard.active_delta.delete(term, vals)
                count += 1
            if self._wal is not None:
                self._wal.sync()
            if count:
                self._ingests += 1
        return count

    def pending_ops(self) -> int:
        """Ops acknowledged but not yet compacted (across all shards)."""
        return sum(s.pending_ops() for s in self._writable_shards())

    def read_version(self) -> tuple[int, ...]:
        """The base tag extended with the ingest-batch counter, so every
        acknowledged delta write moves the plan-cache keys as well."""
        return (*super().read_version(), self._ingests)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Synonym for one compaction round; returns terms rewritten."""
        return self.compact()

    def compact(self) -> int:
        """Seal pending deltas and fold them into compressed segments.

        Protocol (every step crash-safe; see ``docs/write_path.md``):

        1. *Seal* (write lock): push a fresh active delta onto every
           shard and rotate the WAL, so sealed overlays and their log
           files are frozen.
        2. *Merge* (no locks): for each sealed term, decode the base
           list, apply ``(base − dels) ∪ adds``, and re-compress with
           the shard codec — ``Adaptive`` re-selects the representation.
        3. *Persist*: write each changed shard's new ``.rpro3`` segment
           under a generation-stamped name (never clobbering files the
           live manifest references), fsync, then atomically replace
           the manifest.
        4. *Commit* (state lock, per shard): swap in the new postings
           map, drop the sealed deltas, bump rewritten terms' versions.
        5. *Truncate*: delete the retired WAL files — their effects are
           in the manifest now, and replaying them would be a no-op
           anyway (idempotent overlay), so a crash between 3 and 5 is
           harmless.

        Returns the number of term lists rewritten.
        """
        if self._closed:
            raise StoreError("store is closed")
        with self._compact_lock:
            # -- 1. seal ------------------------------------------------
            with self._write_lock:
                sealed: dict[str, tuple[DeltaSegment, ...]] = {}
                dirty = False
                for shard in self._writable_shards():
                    pending = shard.deltas
                    if any(not d.is_empty for d in pending):
                        dirty = True
                    with shard.state_lock:
                        shard.deltas = shard.deltas + (DeltaSegment(),)
                        sealed[shard.name] = shard.deltas[:-1]
                if not dirty:
                    # Nothing to fold; undo the stacking to keep the
                    # delta chain from growing on idle compactions.
                    for shard in self._writable_shards():
                        with shard.state_lock:
                            shard.deltas = (shard.active_delta,)
                    return 0
                retiring = list(self._retired_wals)
                if self._wal is not None:
                    self._wal.close()
                    retiring.append(self._wal.path)
                    self._wal_seq += 1
                    self._open_wal()
            gen = self.generation + 1

            # -- 2. merge (no locks held) -------------------------------
            new_postings: dict[str, dict[str, CompressedIntegerSet]] = {}
            changed: dict[str, list[str]] = {}
            for shard in self._writable_shards():
                segs = sealed.get(shard.name, ())
                terms_touched: set[str] = set()
                for seg in segs:
                    terms_touched.update(seg.terms())
                if not terms_touched:
                    continue
                base_map = dict(shard.postings)
                rewritten = []
                for term in sorted(terms_touched):
                    base_cs = base_map.get(term)
                    base = (
                        shard.codec.decompress(base_cs)
                        if base_cs is not None
                        else np.empty(0, dtype=np.int64)
                    )
                    merged = base
                    for seg in segs:
                        adds, dels, _rev = seg.snapshot(term)
                        merged = apply_delta(merged, adds, dels)
                    universe = shard.universe or (
                        base_cs.universe if base_cs is not None else None
                    )
                    if merged.size == 0 and base_cs is None:
                        continue
                    if merged.size == 0:
                        del base_map[term]
                        rewritten.append(term)
                        continue
                    base_map[term] = shard.codec.compress(
                        merged, universe=universe
                    )
                    rewritten.append(term)
                new_postings[shard.name] = base_map
                changed[shard.name] = rewritten

            # -- 3. persist ---------------------------------------------
            new_segments: dict[str, str] = {}
            if self.directory is not None:
                new_segments = self._persist_mapped(gen, new_postings)

            # -- 4. commit ----------------------------------------------
            total = 0
            retired_postings: list[MappedPostings] = []
            for shard in self._writable_shards():
                fresh: MappedPostings | None = None
                seg_path = new_segments.get(shard.name)
                if seg_path is not None:
                    # Reopen the just-written segment; carry the cache
                    # epoch forward so unchanged terms keep their warm
                    # decode-cache entries (changed terms moved via the
                    # per-term version bump below).
                    segment = MappedSegment.open(seg_path, strict=self._strict)
                    old_epoch = getattr(shard.postings, "cache_epoch", None)
                    fresh = MappedPostings(
                        segment,
                        strict=self._strict,
                        cache_epoch=(
                            old_epoch if old_epoch is not None
                            else segment.generation
                        ),
                        failed_sink=shard.failed_terms,
                    )
                with shard.state_lock:
                    if fresh is not None:
                        if isinstance(shard.postings, MappedPostings):
                            retired_postings.append(shard.postings)
                        shard.postings = fresh
                    elif shard.name in new_postings:
                        shard.postings = new_postings[shard.name]
                    if shard.name in changed:
                        versions = dict(shard.versions)
                        for term in changed[shard.name]:
                            versions[term] = versions.get(term, 0) + 1
                        shard.versions = versions
                    # Sealed (even empty) deltas leave the chain either way.
                    shard.deltas = tuple(
                        d
                        for d in shard.deltas
                        if d not in sealed.get(shard.name, ())
                    )
                total += len(changed.get(shard.name, ()))
            self.generation = gen
            self.compactions += 1
            # Retire superseded mapped segments: unlink now where the
            # platform allows deleting a mapped file; in-flight queries
            # holding the old snapshot keep reading valid pages, and the
            # mapping closes when the last snapshot is released.
            for old in retired_postings:
                old.retire()

            # -- 5. truncate --------------------------------------------
            if self.directory is not None:
                for path in retiring:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            self._retired_wals = [
                p for p in self._retired_wals if p not in retiring
            ]
            return total

    def _persist_mapped(
        self,
        gen: int,
        new_postings: dict[str, dict[str, CompressedIntegerSet]],
    ) -> dict[str, str]:
        """Write whole-shard segments for every changed shard + manifest.

        Unchanged shards keep their existing segment file (the manifest
        re-references it); changed shards get a fresh
        ``segment-g{gen}.rpro3`` holding the full merged term set —
        terms the compaction did not touch are copied byte-for-byte off
        the old map (the ``raw_blob`` fast path), not re-serialised.

        Returns shard → absolute path of newly written segments; the
        *old* files are never unlinked here — commit retires them via
        the refcounted handle so live query snapshots keep valid views.
        """
        assert self.directory is not None
        manifest = manifest_dict(self)
        manifest["generation"] = gen
        new_segments: dict[str, str] = {}
        for shard in self._writable_shards():
            spec = manifest["shards"][shard.name]
            old_rel = self._manifest_segments.get(shard.name)
            if shard.name not in new_postings and old_rel is not None:
                spec["segment"] = old_rel
                continue
            items = new_postings.get(shard.name)
            if items is None:
                # First persist of a shard compaction never touched
                # (created this session).
                items = dict(shard.postings)
            os.makedirs(os.path.join(self.directory, shard.name), exist_ok=True)
            rel = os.path.join(
                shard.name, f"segment-g{gen:06d}{MAPPED_SUFFIX}"
            )
            full = os.path.join(self.directory, rel)
            write_mapped_segment(
                full, items.items(), generation=gen, fsync=self._fsync
            )
            spec["segment"] = rel
            new_segments[shard.name] = full
        write_manifest(self.directory, manifest)
        self._manifest_segments = {
            name: spec["segment"] for name, spec in manifest["shards"].items()
        }
        return new_segments

    # ------------------------------------------------------------------
    # Background compactor
    # ------------------------------------------------------------------
    def start_compactor(self, interval_s: float = 0.5) -> None:
        """Run :meth:`compact` every *interval_s* seconds until closed."""
        if self._compactor is not None:
            return

        def loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self.compact()
                except StoreError:
                    return  # store closed under us

        self._stop.clear()
        self._compactor = threading.Thread(
            target=loop, name="repro-compactor", daemon=True
        )
        self._compactor.start()

    def stop_compactor(self, timeout_s: float = 5.0) -> None:
        if self._compactor is None:
            return
        self._stop.set()
        self._compactor.join(timeout=timeout_s)
        self._compactor = None

    def close(self, *, compact: bool = True) -> None:
        """Stop the compactor, optionally compact once more, close the WAL."""
        if self._closed:
            return
        self.stop_compactor()
        if compact and self.directory is not None:
            self.compact()
        if self._wal is not None:
            self._wal.close()
        self._closed = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def write_stats(self) -> dict:
        """JSON-able write-path counters (merged into ``/metrics``).

        Lock-free on purpose (the event loop calls this; it must not
        park behind a WAL fsync): ``self._wal`` is read once, so the
        three WAL figures describe one file even while compaction
        rotates it, and they are plain counters that stay readable
        after that file is closed.
        """
        wal = self._wal
        return {
            "generation": self.generation,
            "compactions": self.compactions,
            "pending_ops": self.pending_ops(),
            "recovered_ops": self.recovered_ops,
            "recovered_tail_bytes": self.recovered_tail_bytes,
            "wal_records": wal.records_written if wal else 0,
            "wal_syncs": wal.syncs if wal else 0,
            "wal_bytes": wal.size_bytes() if wal else 0,
        }
