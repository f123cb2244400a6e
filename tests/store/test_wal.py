"""WAL framing, torn-tail discard, and corruption detection."""

import json
import os
import struct
import zlib

import pytest

from repro.store.errors import StoreError
from repro.store.wal import (
    MAX_RECORD_BYTES,
    OP_ADD,
    OP_DELETE,
    OP_SHARD,
    WalCorruptionError,
    WriteAheadLog,
    encode_record,
    replay_wal,
)

_OPS = [
    {"op": OP_SHARD, "shard": "s0", "codec": "Roaring", "universe": 4096},
    {"op": OP_ADD, "shard": "s0", "term": "news", "values": [3, 17, 40]},
    {"op": OP_DELETE, "shard": "s0", "term": "news", "values": [17]},
]


def _write_log(path, ops=_OPS):
    wal = WriteAheadLog(path, fsync=False)
    for op in ops:
        wal.append(op)
    wal.close()
    return path


# ----------------------------------------------------------------------
# Round trip + framing
# ----------------------------------------------------------------------
def test_write_then_replay_round_trips(tmp_path):
    path = _write_log(tmp_path / "wal.log")
    replay = replay_wal(path)
    assert replay.ops == _OPS
    assert replay.dropped_tail_bytes == 0
    assert replay.error is None


def test_record_framing_is_length_crc_payload():
    op = {"op": OP_ADD, "shard": "s", "term": "t", "values": [1]}
    record = encode_record(op)
    length, crc = struct.unpack_from("<II", record)
    payload = record[8:]
    assert len(payload) == length
    assert zlib.crc32(payload) == crc
    assert json.loads(payload) == op


def test_refuses_to_open_existing_file(tmp_path):
    path = _write_log(tmp_path / "wal.log")
    # Recovery must rotate to a fresh file, never append after a
    # discarded torn tail — the writer enforces that with mode "xb".
    with pytest.raises(FileExistsError):
        WriteAheadLog(path)


def test_append_after_close_raises(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    wal.close()
    with pytest.raises(StoreError):
        wal.append(_OPS[0])


def test_pending_records_reset_by_sync(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    wal.append(_OPS[0])
    wal.append(_OPS[1])
    assert wal.pending_records == 2
    wal.sync()
    assert wal.pending_records == 0
    assert wal.records_written == 2
    wal.close()


# ----------------------------------------------------------------------
# Torn tails (crash signature): silently dropped, never an error
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cut", [1, 4, 7, 9])
def test_torn_tail_record_is_dropped(tmp_path, cut):
    path = _write_log(tmp_path / "wal.log")
    full = path.read_bytes()
    last = encode_record(_OPS[-1])
    truncated = full[: len(full) - len(last) + cut]
    path.write_bytes(truncated)
    replay = replay_wal(path)
    assert replay.ops == _OPS[:-1]
    assert replay.dropped_tail_bytes == cut
    assert replay.error is None


def test_garbage_length_word_is_treated_as_torn_tail(tmp_path):
    path = _write_log(tmp_path / "wal.log")
    # A torn write can leave a length word that decodes to nonsense;
    # only a record whose claimed extent fits the file is "complete".
    path.write_bytes(
        path.read_bytes() + struct.pack("<II", MAX_RECORD_BYTES + 1, 0)
    )
    replay = replay_wal(path)
    assert replay.ops == _OPS
    assert replay.dropped_tail_bytes == 8


def test_empty_log_replays_to_nothing(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    wal.close()
    replay = replay_wal(wal.path)
    assert replay.ops == [] and replay.dropped_tail_bytes == 0


@pytest.mark.parametrize("n_bytes", [0, 2, 4])
def test_zero_byte_or_partial_header_is_a_torn_tail(tmp_path, n_bytes):
    # A process killed between creating the WAL and its first sync
    # leaves an empty (or partial-header) file.  Nothing acknowledged
    # can be in a file that never synced, so this is the torn-tail
    # crash signature, not corruption.
    path = tmp_path / "wal.log"
    path.write_bytes(b"RWAL"[:n_bytes])
    replay = replay_wal(path)
    assert replay.ops == []
    assert replay.dropped_tail_bytes == n_bytes
    assert replay.error is None


def test_short_garbage_file_is_still_corruption(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"NOP")  # not a prefix of the header
    with pytest.raises(WalCorruptionError, match="missing WAL header"):
        replay_wal(path)


# ----------------------------------------------------------------------
# Mid-stream corruption (storage fault): strict raises, lenient stops
# ----------------------------------------------------------------------
def _corrupt_first_record(path):
    data = bytearray(path.read_bytes())
    # Flip one payload byte of the first record (header is 5 bytes,
    # record header 8 bytes).
    data[5 + 8 + 2] ^= 0xFF
    path.write_bytes(bytes(data))


def test_midstream_crc_failure_raises_in_strict_mode(tmp_path):
    path = _write_log(tmp_path / "wal.log")
    _corrupt_first_record(path)
    with pytest.raises(WalCorruptionError, match="CRC mismatch"):
        replay_wal(path)


def test_midstream_crc_failure_stops_lenient_replay(tmp_path):
    path = _write_log(tmp_path / "wal.log")
    _corrupt_first_record(path)
    replay = replay_wal(path, strict=False)
    assert replay.ops == []
    assert replay.error is not None and "CRC mismatch" in replay.error


def test_unknown_operation_is_corruption(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path, fsync=False)
    wal.append(_OPS[0])
    wal.close()
    with open(path, "ab") as fh:
        fh.write(encode_record({"op": "truncate-everything"}))
    with pytest.raises(WalCorruptionError, match="unknown WAL operation"):
        replay_wal(path)
    lenient = replay_wal(path, strict=False)
    assert lenient.ops == [_OPS[0]] and lenient.error is not None


def test_missing_header_raises(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"NOPE" + bytes([1]))
    with pytest.raises(WalCorruptionError, match="missing WAL header"):
        replay_wal(path)


def test_unsupported_version_raises(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"RWAL" + bytes([99]))
    with pytest.raises(WalCorruptionError, match="unsupported WAL version"):
        replay_wal(path)


def test_sync_is_the_durability_barrier(tmp_path):
    """Bytes reach the file (at latest) at sync; replay sees them."""
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path, fsync=False)
    wal.append(_OPS[0])
    wal.sync()
    size_after_sync = os.path.getsize(path)
    assert size_after_sync > 5  # header + first record flushed
    replay = replay_wal(path)
    assert replay.ops == [_OPS[0]]
    wal.close()


def test_size_bytes_is_the_flushed_file_size_and_outlives_close(tmp_path):
    """``size_bytes`` counts what was appended: equal to the file size
    at every sync point, and still answerable once the log is closed
    (a metrics reader may hold the handle across a compaction)."""
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path, fsync=False)
    assert wal.size_bytes() == 5  # magic + version, buffered
    for op in _OPS:
        wal.append(op)
        wal.sync()
        assert wal.size_bytes() == os.path.getsize(path)
    wal.close()
    assert wal.size_bytes() == os.path.getsize(path)
