"""Write-ahead log for the mutable posting store.

Every mutation the writable store acknowledges — shard creation, posting
appends, posting deletes — is first appended here, so a crash (including
``kill -9`` mid-batch) loses nothing that was acknowledged: on reopen the
store replays the log over the last compacted segments and arrives at
exactly the state a never-crashed process would serve.

File format (little-endian)::

    header:  magic ``RWAL`` + format version (u8)
    record:  u32 payload length | u32 CRC-32 of payload | payload bytes

The payload is a UTF-8 JSON object describing one operation::

    {"op": "shard", "shard": "s0", "codec": "Roaring", "universe": 65536}
    {"op": "add",   "shard": "s0", "term": "news", "values": [3, 17, 40]}
    {"op": "del",   "shard": "s0", "term": "news", "values": [17]}

Durability contract:

* :meth:`WriteAheadLog.append` buffers; :meth:`WriteAheadLog.sync`
  flushes and ``fsync``\\ s.  The store calls ``sync`` on *batch
  boundaries*, and only then acknowledges the batch — so "acknowledged"
  always means "on disk".
* A process killed mid-write leaves a *prefix* of the record stream: the
  torn tail record fails the length or CRC check and is discarded by
  :func:`replay_wal` (it was never acknowledged).  A record that is
  bit-corrupted *within* the readable stream is a real storage fault and
  raises :class:`WalCorruptionError` instead of being silently skipped.
* Replaying a log over a base that already contains its effects is
  idempotent (appends and deletes are set operations applied in order),
  which is what makes the compaction commit protocol crash-safe — see
  ``docs/write_path.md``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

from repro.store.errors import StoreError

_MAGIC = b"RWAL"
_WAL_VERSION = 1
_HEADER_LEN = len(_MAGIC) + 1
#: u32 length + u32 crc32.
_RECORD_HEADER = struct.Struct("<II")
#: Sanity bound on a single record; a "length" beyond this is corruption.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Operation kinds a WAL record may carry.
OP_SHARD = "shard"
OP_ADD = "add"
OP_DELETE = "del"
_KNOWN_OPS = frozenset({OP_SHARD, OP_ADD, OP_DELETE})


class WalCorruptionError(StoreError):
    """A WAL record inside the readable stream failed its integrity check.

    Torn *tail* records (the normal crash signature) never raise this —
    they are discarded as unacknowledged.  This error means bytes that
    were once durable no longer verify: a storage fault, not a crash.
    """

    def __init__(self, path: str, offset: int, reason: str) -> None:
        super().__init__(f"{path} @ byte {offset}: {reason}")
        self.path = path
        self.offset = offset
        self.reason = reason


def encode_record(op: dict) -> bytes:
    """Frame one operation dict as a length-prefixed, CRC-checked record."""
    payload = json.dumps(op, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only writer for one WAL file.

    Args:
        path: file to create (an existing file is never appended to —
            recovery always rotates to a fresh file so a discarded torn
            tail can never be written after; see
            :meth:`WritablePostingStore.open`).
        fsync: when False, ``sync`` flushes without ``os.fsync`` — only
            for tests and benchmarks that do not care about durability.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self._fh = open(self.path, "xb")
        #: Bytes handed to the file so far (header + every record).
        self._bytes = self._fh.write(_MAGIC + bytes([_WAL_VERSION]))
        self._pending = 0
        self.records_written = 0
        self.syncs = 0
        self._closed = False
        _fsync_dir(os.path.dirname(self.path))

    # ------------------------------------------------------------------
    def append(self, op: dict) -> None:
        """Buffer one operation record (durable only after :meth:`sync`)."""
        if self._closed:
            raise StoreError(f"WAL {self.path} is closed")
        self._bytes += self._fh.write(encode_record(op))
        self._pending += 1
        self.records_written += 1

    def sync(self) -> None:
        """Flush buffered records and fsync: the acknowledgement barrier."""
        if self._closed:
            raise StoreError(f"WAL {self.path} is closed")
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self.syncs += 1
        self._pending = 0

    @property
    def pending_records(self) -> int:
        """Records appended since the last ``sync`` (not yet acknowledged)."""
        return self._pending

    def size_bytes(self) -> int:
        """File size once everything appended is flushed.

        Counted, not ``flush`` + ``stat``: readers (``write_stats``
        behind ``GET /metrics``) call this from other threads while the
        owner appends, syncs, or — during compaction — closes the file.
        """
        return self._bytes

    def close(self) -> None:
        if not self._closed:
            self.sync()
            self._fh.close()
            self._closed = True


@dataclass
class WalReplay:
    """Outcome of replaying one WAL file."""

    path: str
    ops: list[dict] = field(default_factory=list)
    #: Bytes discarded at the end of the file (torn tail from a crash).
    dropped_tail_bytes: int = 0
    #: Set when a lenient replay stopped at mid-stream corruption.
    error: str | None = None


def replay_wal(path: str | os.PathLike, *, strict: bool = True) -> WalReplay:
    """Read every intact record of a WAL file, in write order.

    A trailing record that is incomplete (the crash signature: the file
    is a prefix of the record stream) is dropped and counted in
    ``dropped_tail_bytes``.  That includes a file shorter than the
    header itself when its bytes are a prefix of the header — a process
    killed between creating the file and its first ``sync`` leaves an
    empty (or partial-header) log, and nothing acknowledged can be in
    a file that never synced.  A record that is *complete* but fails
    its CRC, or carries an unparseable payload, is corruption: raised
    as :class:`WalCorruptionError` when ``strict``, otherwise recorded
    in ``error`` and replay stops there (everything before it is
    returned).
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    result = WalReplay(path=path)
    if len(data) < _HEADER_LEN:
        header = _MAGIC + bytes([_WAL_VERSION])
        if header.startswith(data):  # torn at birth: crash before first sync
            result.dropped_tail_bytes = len(data)
            return result
        raise WalCorruptionError(path, 0, "missing WAL header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise WalCorruptionError(path, 0, "missing WAL header")
    if data[len(_MAGIC)] != _WAL_VERSION:
        raise WalCorruptionError(
            path, len(_MAGIC), f"unsupported WAL version {data[len(_MAGIC)]}"
        )
    pos = _HEADER_LEN
    end = len(data)

    def fail(offset: int, reason: str) -> WalReplay:
        if strict:
            raise WalCorruptionError(path, offset, reason)
        result.error = f"byte {offset}: {reason}"
        return result

    while pos < end:
        if pos + _RECORD_HEADER.size > end:
            result.dropped_tail_bytes = end - pos
            break
        length, crc = _RECORD_HEADER.unpack_from(data, pos)
        body_start = pos + _RECORD_HEADER.size
        if length > MAX_RECORD_BYTES:
            # A torn length word can decode to garbage; only a record
            # whose claimed extent fits the file is "complete".
            result.dropped_tail_bytes = end - pos
            break
        if body_start + length > end:
            result.dropped_tail_bytes = end - pos
            break
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            return fail(pos, "CRC mismatch on a complete record")
        try:
            op = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return fail(pos, f"unparseable record payload: {exc}")
        if not isinstance(op, dict) or op.get("op") not in _KNOWN_OPS:
            return fail(pos, f"unknown WAL operation: {op!r}")
        result.ops.append(op)
        pos = body_start + length
    return result


def _fsync_dir(directory: str) -> None:
    """Best-effort directory fsync so renames/creates survive power loss."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
