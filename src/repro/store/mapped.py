"""Zero-copy memory-mapped (v3) segment format — the store's one layout.

In the spirit of the ds2i/2i_bench length-prefixed binary collections:
one segment file per shard, openable via ``mmap`` with **no per-term
parse step**, so opening is flat in term count and the OS page cache
becomes an L2 under the decode cache.

Byte-level layout (little-endian throughout; full walk-through in
``docs/segment_format.md``)::

    header     magic "RPS3", version u16, flags u16, generation u64,
               term_count u64, five section offsets u64, file_len u64,
               meta_crc u32 (CRC-32 of everything before the payload
               region, with this field zeroed)
    codec tbl  u32 count, then per codec: u16 len + UTF-8 name
    names      the UTF-8 term names, concatenated in sorted order
    entries    term_count fixed 64-byte records (a numpy structured
               array view straight off the map): name_off/len, codec_id,
               n, universe, size_bytes, payload_off/len, payload_crc
    payload    one aligned (version-2) ``repro.core.serialize`` blob per
               term, each starting at an 8-byte boundary

Opening maps the file and builds exactly three views — the entry table,
the names blob, and the payload region.  Term lookup is a binary search
over the sorted names; materialising a term parses its blob *lazily*
into a :class:`MappedIntegerSet` whose numpy arrays are zero-copy views
over the map (``repro.core.serialize.loads_view``), checked against the
entry's CRC-32 on first touch.

Lifetime: the segment handle is refcounted.  Readers that snapshot a
shard keep the owning :class:`MappedPostings` (and so the segment)
alive; compaction *retires* the file — unlinked immediately where the
platform allows unlinking mapped files (POSIX), deferred to the last
release otherwise — and the mapping itself is only closed when no
exported buffer views remain (a ``BufferError`` from ``mmap.close`` is
absorbed and the close retried at the final release).
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, MutableMapping

import numpy as np

from repro.core.base import CompressedIntegerSet
from repro.core.serialize import dumps, loads_view
from repro.store.errors import MappedSegmentError
from repro.store.wal import _fsync_dir

MAPPED_SUFFIX = ".rpro3"

_MAGIC = b"RPS3"
_FORMAT_VERSION = 1
#: header: magic, version, flags, generation, term_count,
#: codec_table_off, names_off, entries_off, payload_off, file_len, crc
_HEADER = struct.Struct("<4sHHQQQQQQQI")
_ALIGN = 8

#: One fixed-size record per term, sorted by (UTF-8 encoded) name —
#: mapped directly as a numpy structured array, so open never loops
#: over terms in Python.
ENTRY_DTYPE = np.dtype(
    [
        ("name_off", "<u8"),
        ("name_len", "<u4"),
        ("codec_id", "<u4"),
        ("n", "<u8"),
        ("universe", "<u8"),
        ("size_bytes", "<u8"),
        ("payload_off", "<u8"),
        ("payload_len", "<u8"),
        ("payload_crc", "<u4"),
        ("reserved", "<u4"),
    ]
)
assert ENTRY_DTYPE.itemsize == 64


@dataclass(frozen=True)
class MappedIntegerSet(CompressedIntegerSet):
    """A compressed set whose payload arrays view a mapped segment.

    ``source`` is the owning :class:`MappedSegment` (``pin()`` blocks
    disposal for the duration of a decode); ``raw_blob`` is the term's
    serialised bytes on the map, letting compaction copy an unchanged
    term into a new segment without re-serialising it.
    """

    source: Any = None
    raw_blob: Any = None


def _attach_source(
    cs: CompressedIntegerSet, source: "MappedSegment", raw_blob=None
) -> MappedIntegerSet:
    """Rewrap a parsed set (and any nested wrapper payload) with its source."""
    payload = cs.payload
    if isinstance(payload, CompressedIntegerSet):
        payload = _attach_source(payload, source)
    return MappedIntegerSet(
        cs.codec_name, payload, cs.n, cs.universe, cs.size_bytes,
        source=source, raw_blob=raw_blob,
    )


def _pad_len(pos: int) -> int:
    return -pos % _ALIGN


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_mapped_segment(
    path: str | os.PathLike,
    items: Iterable[tuple[str, CompressedIntegerSet]],
    *,
    generation: int = 0,
    fsync: bool = True,
) -> int:
    """Write one v3 segment file holding *items*; returns bytes written.

    Terms are sorted by UTF-8 encoding (== code-point order, which is
    what the lazy binary search assumes).  A term whose set is a
    :class:`MappedIntegerSet` with an intact ``raw_blob`` is copied
    byte-for-byte off its old map — the compaction fast path for
    unchanged terms.

    The bytes land in ``<path>.tmp`` and are renamed into place, so
    *path* is never torn and may be the very file *items* are mapped
    from (``PostingStore.load(d).save(d)``).
    """
    path = os.fspath(path)
    encoded: list[tuple[bytes, str, CompressedIntegerSet]] = sorted(
        (term.encode("utf-8"), term, cs) for term, cs in items
    )

    codec_ids: dict[str, int] = {}
    blobs: list[bytes | memoryview] = []
    names = bytearray()
    entries = np.zeros(len(encoded), dtype=ENTRY_DTYPE)
    payload_pos = 0
    for i, (name_b, _term, cs) in enumerate(encoded):
        raw = getattr(cs, "raw_blob", None)
        blob = raw if raw is not None else dumps(cs, aligned=True)
        codec_id = codec_ids.setdefault(cs.codec_name, len(codec_ids))
        payload_pos += _pad_len(payload_pos)
        entries[i] = (
            len(names), len(name_b), codec_id,
            cs.n, cs.universe, cs.size_bytes,
            payload_pos, len(blob), zlib.crc32(blob), 0,
        )
        names += name_b
        blobs.append(blob)
        payload_pos += len(blob)

    codec_table = bytearray(struct.pack("<I", len(codec_ids)))
    for codec_name in codec_ids:  # insertion order == id order
        nb = codec_name.encode("utf-8")
        codec_table += struct.pack("<H", len(nb))
        codec_table += nb

    codec_table_off = _HEADER.size
    names_off = codec_table_off + len(codec_table)
    entries_off = names_off + len(names)
    entries_off += _pad_len(entries_off)
    entry_bytes = entries.tobytes()
    payload_off = entries_off + len(entry_bytes)
    payload_off += _pad_len(payload_off)
    file_len = payload_off + payload_pos

    def header(crc: int) -> bytes:
        return _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, 0, generation, len(encoded),
            codec_table_off, names_off, entries_off, payload_off,
            file_len, crc,
        )

    meta = bytearray(header(0))
    meta += codec_table
    meta += names
    meta += b"\0" * (entries_off - len(meta))
    meta += entry_bytes
    meta += b"\0" * (payload_off - len(meta))
    crc = zlib.crc32(meta)
    meta[: _HEADER.size] = header(crc)

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(meta)
        pos = 0
        for blob in blobs:
            pad = _pad_len(pos)
            if pad:
                fh.write(b"\0" * pad)
                pos += pad
            fh.write(blob)
            pos += len(blob)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path))
    return file_len


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class MappedSegment:
    """A refcounted, lazily-parsed handle on one v3 segment file.

    Opening validates structure only — magic, version, recorded vs
    actual file length, section offsets, and (strict) the CRC-32 over
    header + codec table + names + entry table, so a bit flip anywhere
    outside the payload region is caught before a single term is
    served.  Payload damage is caught per term on first materialisation
    via the entry's CRC.  With ``strict=False``, entries whose metadata
    is out of bounds are pre-marked bad (``bad_entries``) and everything
    else still serves.
    """

    def __init__(self) -> None:  # use MappedSegment.open()
        self.path = ""
        self.generation = 0
        self.term_count = 0
        self.codec_names: list[str] = []
        self.bad_entries: dict[int, str] = {}
        self._mm: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._entries: np.ndarray | None = None
        self._names_off = 0
        self._payload_off = 0
        self._payload_len = 0
        self._lock = threading.Lock()
        self._refs = 1
        self._pins = 0
        self._unlink_on_dispose = False
        self._disposed = False

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike, *, strict: bool = True) -> "MappedSegment":
        path = os.fspath(path)
        seg = cls()
        seg.path = path
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise MappedSegmentError(path, f"cannot open: {exc}") from exc
        try:
            size = os.fstat(fh.fileno()).st_size
            if size < _HEADER.size:
                raise MappedSegmentError(
                    path, f"file too short for a segment header ({size} bytes)"
                )
            seg._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        finally:
            fh.close()
        seg._view = memoryview(seg._mm)
        try:
            seg._validate(strict=strict, actual_size=size)
        except MappedSegmentError:
            seg.release()
            raise
        return seg

    def _validate(self, *, strict: bool, actual_size: int) -> None:
        view = self._view
        assert view is not None
        (
            magic, version, _flags, generation, term_count,
            codec_table_off, names_off, entries_off, payload_off,
            file_len, crc,
        ) = _HEADER.unpack(bytes(view[: _HEADER.size]))
        if magic != _MAGIC:
            raise MappedSegmentError(self.path, "bad magic (not a v3 segment)")
        if version != _FORMAT_VERSION:
            raise MappedSegmentError(
                self.path, f"unsupported segment format version {version}"
            )
        if file_len != actual_size:
            raise MappedSegmentError(
                self.path,
                f"recorded length {file_len} != actual size {actual_size} "
                "(torn write or truncation)",
            )
        offsets = (codec_table_off, names_off, entries_off, payload_off)
        if any(o > actual_size for o in offsets) or sorted(offsets) != list(offsets):
            raise MappedSegmentError(self.path, "section offsets out of order/bounds")
        if entries_off % _ALIGN or payload_off % _ALIGN:
            raise MappedSegmentError(self.path, "misaligned section offsets")
        if payload_off - entries_off < term_count * ENTRY_DTYPE.itemsize:
            raise MappedSegmentError(
                self.path,
                f"entry table too small for {term_count} terms "
                "(header/table corruption)",
            )
        if strict:
            meta = bytearray(view[:payload_off])
            meta[: _HEADER.size] = _HEADER.pack(
                magic, version, _flags, generation, term_count,
                codec_table_off, names_off, entries_off, payload_off,
                file_len, 0,
            )
            if zlib.crc32(meta) != crc:
                raise MappedSegmentError(
                    self.path,
                    "metadata CRC mismatch (header, codec table, names, or "
                    "entry table corrupted)",
                )

        self.generation = int(generation)
        self.term_count = int(term_count)
        self._names_off = names_off
        self._payload_off = payload_off
        self._payload_len = file_len - payload_off

        try:
            (n_codecs,) = struct.unpack(
                "<I", bytes(view[codec_table_off : codec_table_off + 4])
            )
            pos = codec_table_off + 4
            for _ in range(n_codecs):
                (ln,) = struct.unpack("<H", bytes(view[pos : pos + 2]))
                pos += 2
                if pos + ln > names_off:
                    raise ValueError("codec name overruns table")
                self.codec_names.append(  # repro: noqa[REPRO107] -- _validate runs inside open() before the handle is published; codec_names is immutable after init
                    bytes(view[pos : pos + ln]).decode("utf-8")
                )
                pos += ln
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            raise MappedSegmentError(
                self.path, f"corrupt codec table: {exc}"
            ) from exc

        self._entries = np.frombuffer(
            view, dtype=ENTRY_DTYPE, count=self.term_count, offset=entries_off
        )
        # Vectorised bounds validation — O(terms) at numpy speed, no
        # Python loop.  Strict mode raises on the first inconsistency;
        # lenient mode pre-marks the offending entries and serves the
        # rest.
        e = self._entries
        names_len = entries_off - names_off
        bad = (
            (e["name_off"] + e["name_len"] > names_len)
            | (e["codec_id"] >= max(1, len(self.codec_names)))
            | (e["payload_off"] + e["payload_len"] > self._payload_len)
            | (e["payload_off"] % _ALIGN != 0)
        )
        if bad.any():
            indices = np.flatnonzero(bad)
            if strict:
                raise MappedSegmentError(
                    self.path,
                    f"{indices.size} entry record(s) out of bounds "
                    f"(first at index {int(indices[0])})",
                )
            for i in indices:
                self.bad_entries[int(i)] = "entry record out of bounds"  # repro: noqa[REPRO107] -- _validate runs inside open() before the handle is published; bad_entries is immutable after init

    # ------------------------------------------------------------------
    # Lookup / materialisation
    # ------------------------------------------------------------------
    def _name_at(self, idx: int) -> bytes:
        e = self._entries[idx]
        off = self._names_off + int(e["name_off"])
        return bytes(self._view[off : off + int(e["name_len"])])

    def term_at(self, idx: int) -> str:
        return self._name_at(idx).decode("utf-8")

    def find(self, term: str) -> int | None:
        """Binary search over the sorted names; ``None`` when absent."""
        needle = term.encode("utf-8")
        lo, hi = 0, self.term_count
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self._name_at(mid)
            if probe == needle:
                return mid
            if probe < needle:
                lo = mid + 1
            else:
                hi = mid
        return None

    def iter_terms(self) -> Iterator[str]:
        for i in range(self.term_count):
            if i not in self.bad_entries:
                yield self.term_at(i)

    def raw_blob(self, idx: int) -> memoryview:
        e = self._entries[idx]
        start = self._payload_off + int(e["payload_off"])
        return self._view[start : start + int(e["payload_len"])]

    def materialize(self, idx: int) -> MappedIntegerSet:
        """Parse entry *idx* into a zero-copy set, CRC-checked.

        Raises :class:`MappedSegmentError` on payload damage or on
        entry/blob metadata disagreement (a bit flip in an in-bounds
        entry field).
        """
        pre = self.bad_entries.get(idx)
        if pre is not None:
            raise MappedSegmentError(self.path, pre, term=f"<entry {idx}>")
        e = self._entries[idx]
        blob = self.raw_blob(idx)
        term = self.term_at(idx)
        if zlib.crc32(blob) != int(e["payload_crc"]):
            raise MappedSegmentError(
                self.path, "payload CRC mismatch", term=term
            )
        try:
            cs = loads_view(blob)
        except Exception as exc:
            raise MappedSegmentError(
                self.path, f"payload parse failed: {exc}", term=term
            ) from exc
        codec_name = self.codec_names[int(e["codec_id"])]
        if (
            cs.n != int(e["n"])
            or cs.universe != int(e["universe"])
            or cs.codec_name != codec_name
        ):
            raise MappedSegmentError(
                self.path,
                "entry metadata disagrees with payload blob "
                f"(entry n={int(e['n'])} universe={int(e['universe'])} "
                f"codec={codec_name!r}; blob n={cs.n} universe={cs.universe} "
                f"codec={cs.codec_name!r})",
                term=term,
            )
        return _attach_source(cs, self, raw_blob=blob)

    def verify(self) -> dict[str, str]:
        """Full payload sweep: term → reason for every damaged entry."""
        failures: dict[str, str] = {}
        for i in range(self.term_count):
            try:
                self.materialize(i)
            except MappedSegmentError as exc:
                failures[exc.term or f"<entry {i}>"] = exc.detail
        return failures

    # ------------------------------------------------------------------
    # Aggregate metadata (vectorised off the entry table)
    # ------------------------------------------------------------------
    def total_size_bytes(self) -> int:
        if self._entries is None or not self.term_count:
            return 0
        return int(self._entries["size_bytes"].sum())

    def total_postings(self) -> int:
        if self._entries is None or not self.term_count:
            return 0
        return int(self._entries["n"].sum())

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def incref(self) -> None:
        with self._lock:
            self._refs += 1

    def release(self) -> None:
        """Drop one reference; the last release disposes the mapping."""
        with self._lock:
            self._refs -= 1
            if self._refs > 0 or self._pins:
                return
        self._dispose()

    @contextmanager
    def pin(self):
        """Block disposal for the duration of a decode off this map."""
        with self._lock:
            self._pins += 1
        try:
            yield self
        finally:
            dispose = False
            with self._lock:
                self._pins -= 1
                if self._pins == 0 and self._refs <= 0:
                    dispose = True
            if dispose:
                self._dispose()

    def retire(self) -> bool:
        """Mark the backing file for deletion; unlink now when possible.

        POSIX allows unlinking a mapped file (pages stay valid until the
        last unmap), so the common case deletes immediately and returns
        True.  Platforms that forbid it (Windows) defer the unlink to
        disposal time and return False — the file lingers until the last
        reader releases, never dangling a live view.
        """
        with self._lock:
            self._unlink_on_dispose = True
            if self._disposed:
                return self._try_unlink()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        except OSError:
            return False  # deferred to _dispose()
        with self._lock:
            self._unlink_on_dispose = False
        return True

    def _try_unlink(self) -> bool:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        except OSError:
            return False
        return True

    def _dispose(self) -> None:
        """Close the mapping; absorb ``BufferError`` from live views.

        When decoded views are still exported the mmap cannot close yet;
        Python's GC closes it once the last view dies.  Either way no
        caller ever sees a ``BufferError``.
        """
        with self._lock:
            if self._disposed:
                return
            self._disposed = True
            unlink = self._unlink_on_dispose
        self._entries = None
        self._view = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass  # exported views keep the pages alive; GC finishes
            self._mm = None
        if unlink:
            self._try_unlink()

    @property
    def closed(self) -> bool:
        return self._disposed


# ----------------------------------------------------------------------
# Mapping facade the store plugs into a Shard
# ----------------------------------------------------------------------
class MappedPostings(MutableMapping):
    """Lazy ``term → MappedIntegerSet`` view over one segment.

    Implements the mapping surface :class:`repro.store.store.Shard`
    expects from its ``postings`` dict, but materialises sets on demand
    (memoised — views are a few hundred bytes each) and rejects
    mutation: a mapped shard is immutable by construction; writes go
    through the delta overlay of a writable store.

    ``strict`` selects the damage policy for lazy materialisation:
    strict raises the :class:`MappedSegmentError`; lenient records the
    term in *failed_sink* (the owning shard's ``failed_terms``) and
    reports the term absent, which the plan compiler turns into a
    *degraded* (partial) query.

    ``cache_epoch`` is folded into decode-cache keys by the plan
    compiler so arrays cached against one mapped generation can never
    be served for another store/open of the same directory.
    """

    def __init__(
        self,
        segment: MappedSegment,
        *,
        strict: bool = True,
        cache_epoch: int = 0,
        failed_sink: dict[str, str] | None = None,
    ) -> None:
        self.segment = segment
        self.strict = strict
        self.cache_epoch = cache_epoch
        self.failed_sink = failed_sink if failed_sink is not None else {}
        self._materialized: dict[str, MappedIntegerSet] = {}
        self._failed: set[str] = set()
        for idx, reason in segment.bad_entries.items():
            # Bounds-invalid entries found by a lenient open: their names
            # may themselves be garbage, so fall back to the index.
            try:
                name = segment.term_at(idx)
            except Exception:  # repro: noqa[REPRO106] -- name bytes are part of the damage; the synthetic label keeps the failure addressable
                name = f"<entry {idx}>"
            self._failed.add(name)
            self.failed_sink.setdefault(name, reason)

    # -- Mapping protocol ----------------------------------------------
    def __getitem__(self, term: str) -> MappedIntegerSet:
        cs = self._materialized.get(term)
        if cs is not None:
            return cs
        if term in self._failed:
            raise KeyError(term)
        idx = self.segment.find(term)
        if idx is None:
            raise KeyError(term)
        try:
            cs = self.segment.materialize(idx)
        except MappedSegmentError as exc:
            if self.strict:
                raise
            self._failed.add(term)
            self.failed_sink.setdefault(term, exc.detail)
            raise KeyError(term) from exc
        self._materialized[term] = cs
        return cs

    def __contains__(self, term) -> bool:
        if term in self._materialized:
            return True
        if not isinstance(term, str) or term in self._failed:
            return False
        return self.segment.find(term) is not None

    def __iter__(self) -> Iterator[str]:
        return self.segment.iter_terms()

    def __len__(self) -> int:
        return self.segment.term_count

    def __setitem__(self, term, cs) -> None:
        raise MappedSegmentError(
            self.segment.path,
            "mapped segments are immutable; ingest through a writable store",
        )

    def __delitem__(self, term) -> None:
        raise MappedSegmentError(
            self.segment.path,
            "mapped segments are immutable; ingest through a writable store",
        )

    # -- Fast aggregates (Shard.size_bytes / n_postings hooks) ---------
    def total_size_bytes(self) -> int:
        return self.segment.total_size_bytes()

    def total_postings(self) -> int:
        return self.segment.total_postings()

    def retire(self) -> bool:
        """Retire the backing file (see :meth:`MappedSegment.retire`)."""
        return self.segment.retire()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        seg = getattr(self, "segment", None)
        if seg is not None:
            seg.release()
