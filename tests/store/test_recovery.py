"""Kill-9 crash recovery: no acked write lost, no partial record served.

Each test SIGKILLs a real ``python -m repro.store ingest`` subprocess
mid-stream and holds the store to the durability contract:

* every op of every batch whose acked JSON line reached stdout (printed
  strictly after the WAL fsync) survives recovery;
* the recovered state equals the state a never-crashed process would
  have after applying exactly the complete WAL-record prefix — no torn
  record is ever visible;
* recovery is resumable: the reopened store keeps ingesting and
  compacting.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.store.engine import QueryEngine
from repro.store.plan import Term
from repro.store.segments import WritablePostingStore
from repro.store.wal import OP_SHARD, replay_wal
from repro.store.__main__ import synthetic_ops

_SRC = str(Path(repro.__file__).resolve().parents[1])
_SEED = 11
_OPS_PER_BATCH = 6
_N_TERMS = 16
_DOMAIN = 2**17


def _spawn_ingest(directory, *, batches, compact_every=0, sleep_ms=2.0):
    cmd = [
        sys.executable,
        "-m",
        "repro.store",
        "ingest",
        str(directory),
        "--batches",
        str(batches),
        "--ops-per-batch",
        str(_OPS_PER_BATCH),
        "--terms",
        str(_N_TERMS),
        "--universe",
        str(_DOMAIN),
        "--seed",
        str(_SEED),
        "--sleep-ms",
        str(sleep_ms),
        "--no-close",
    ]
    if compact_every:
        cmd += ["--compact-every", str(compact_every)]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


def _kill_after_acks(proc, min_acks):
    """SIGKILL once *min_acks* acked lines arrived; return all acked lines."""
    acked = []
    deadline = time.monotonic() + 60.0
    while len(acked) < min_acks:
        line = proc.stdout.readline()
        if not line:
            pytest.fail(
                f"ingest exited early: rc={proc.wait()} "
                f"stderr={proc.stderr.read().decode()!r}"
            )
        acked.append(json.loads(line))
        if time.monotonic() > deadline:
            pytest.fail("timed out waiting for acked batches")
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    # Lines fully flushed to the pipe before the kill are also promises;
    # a torn trailing line (no newline) was never a completed ack.
    rest = proc.stdout.read().decode()
    for line in rest.splitlines():
        try:
            acked.append(json.loads(line))
        except json.JSONDecodeError:
            break
    proc.stdout.close()
    proc.stderr.close()
    return [a for a in acked if "batch" in a]


def _flat_ops(batches):
    stream = synthetic_ops(
        _SEED,
        batches,
        _OPS_PER_BATCH,
        shard="s0",
        n_terms=_N_TERMS,
        domain=_DOMAIN,
    )
    return [op for batch in stream for op in batch]


def _apply(ops):
    """The plain sorted-set oracle for a (op, shard, term, values) stream."""
    terms: dict[str, set] = {}
    for kind, _shard, term, values in ops:
        entry = terms.setdefault(term, set())
        if kind == "add":
            entry.update(values)
        else:
            entry.difference_update(values)
    return {t: sorted(v) for t, v in terms.items()}


def _wal_data_ops(directory):
    """Every complete add/del record across the directory's WAL files."""
    ops = []
    for path in sorted(glob.glob(os.path.join(str(directory), "wal-*.log"))):
        replay = replay_wal(path)
        ops += [
            (op["op"], op["shard"], op["term"], op["values"])
            for op in replay.ops
            if op["op"] != OP_SHARD
        ]
    return ops


def _assert_store_matches(store, oracle):
    engine = QueryEngine(store)
    for term in [f"t{i:03d}" for i in range(_N_TERMS)]:
        result = engine.execute(Term(term))
        assert result.ok, f"{term}: {result.status} {result.error}"
        assert result.values.tolist() == oracle.get(term, []), term


def _observed(store):
    engine = QueryEngine(store)
    return {
        t: set(engine.execute(Term(t)).values.tolist())
        for t in [f"t{i:03d}" for i in range(_N_TERMS)]
    }


def _matching_prefix(observed, acked_ops):
    """Length of the first op-stream prefix >= *acked_ops* that yields
    exactly *observed*, or None — a kill may land mid-compaction, so the
    recovered state is held to *some* prefix covering the acked ops."""
    oracle: dict[str, set] = {t: set() for t in observed}
    mismatched = {t for t, v in observed.items() if v}
    for n, (kind, _shard, term, values) in enumerate(_flat_ops(5_000), start=1):
        if kind == "add":
            oracle[term].update(values)
        else:
            oracle[term].difference_update(values)
        if oracle[term] == observed[term]:
            mismatched.discard(term)
        else:
            mismatched.add(term)
        if n >= acked_ops and not mismatched:
            return n
    return None


# ----------------------------------------------------------------------
def test_sigkill_mid_ingest_loses_no_acked_write(tmp_path):
    proc = _spawn_ingest(tmp_path, batches=5_000, sleep_ms=1.0)
    try:
        acked = _kill_after_acks(proc, min_acks=4)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    acked_ops = sum(a["acked_ops"] for a in acked)
    assert acked_ops >= 4 * _OPS_PER_BATCH

    # The WAL holds a *prefix* of the deterministic op stream — at least
    # everything acked, never a torn or reordered record.
    durable = _wal_data_ops(tmp_path)
    assert len(durable) >= acked_ops
    assert durable == _flat_ops(5_000)[: len(durable)]

    # Recovery serves exactly that prefix, bit for bit.
    store = WritablePostingStore.open(tmp_path)
    assert store.recovered_ops >= acked_ops
    _assert_store_matches(store, _apply(durable))

    # Compaction changes representation, not results; and the store
    # keeps accepting writes after recovery.
    store.compact()
    _assert_store_matches(store, _apply(durable))
    store.append("s0", "t000", [_DOMAIN - 1])
    assert _DOMAIN - 1 in QueryEngine(store).execute(Term("t000")).values
    store.close()


def test_sigkill_during_compaction_churn_recovers(tmp_path):
    """Crashing around compactions (manifest rewrites, WAL rotation)
    must leave a store that recovers to a consistent op-stream prefix."""
    proc = _spawn_ingest(tmp_path, batches=5_000, compact_every=2, sleep_ms=0.0)
    try:
        acked = _kill_after_acks(proc, min_acks=6)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    acked_ops = sum(a["acked_ops"] for a in acked)

    store = WritablePostingStore.open(tmp_path)
    # Compacted batches left the WAL — the recovered state is manifest
    # segments + WAL replay.  Whatever the kill interrupted, that state
    # must equal *some* prefix of the deterministic op stream, at least
    # as long as the acked prefix.
    observed = _observed(store)
    matched = _matching_prefix(observed, acked_ops)
    assert matched is not None, (
        f"recovered state matches no op-stream prefix >= {acked_ops} acked "
        f"ops (WAL holds {len(_wal_data_ops(tmp_path))} data records)"
    )
    store.close()


def test_clean_ingest_run_is_bit_exact_after_reopen(tmp_path):
    proc = _spawn_ingest(tmp_path, batches=8, sleep_ms=0.0)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    lines = [json.loads(line) for line in out.decode().splitlines()]
    assert sum(a.get("acked_ops", 0) for a in lines if "batch" in a) == 48

    store = WritablePostingStore.open(tmp_path)
    _assert_store_matches(store, _apply(_flat_ops(8)))
    store.close()


def test_sigkill_mid_ingest_recovers_on_mapped_base(tmp_path):
    """WAL replay over mapped segments that compactions already rewrote
    serves the acked prefix bit-exact, and compaction after recovery
    retires every superseded segment generation."""
    proc = _spawn_ingest(
        tmp_path, batches=5_000, compact_every=3, sleep_ms=0.5
    )
    try:
        acked = _kill_after_acks(proc, min_acks=7)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    acked_ops = sum(a["acked_ops"] for a in acked)
    assert acked_ops >= 7 * _OPS_PER_BATCH

    # compact_every=3 with >=7 acked batches guarantees at least two
    # compactions ran, so v3 segment files exist on disk at the kill.
    segs = glob.glob(os.path.join(str(tmp_path), "*", "*.rpro3"))
    assert segs, "expected v3 segment files on a mapped base"
    assert not glob.glob(os.path.join(str(tmp_path), "*", "*.rpro"))

    durable = _wal_data_ops(tmp_path)
    store = WritablePostingStore.open(tmp_path)
    # Recovered state = mapped segments + WAL replay.  The kill may have
    # landed mid-compaction, so (as in the churn test above) hold the
    # state to *some* op-stream prefix covering at least the acked ops.
    observed = _observed(store)
    matched = _matching_prefix(observed, acked_ops)
    assert matched is not None, (
        f"mapped recovery matches no op-stream prefix >= {acked_ops} acked "
        f"ops (WAL holds {len(durable)} data records)"
    )

    # Post-recovery compaction retires superseded generations: exactly
    # one segment file per shard, and results are unchanged.
    store.compact()
    assert _observed(store) == observed
    per_shard: dict[str, list] = {}
    for seg in glob.glob(os.path.join(str(tmp_path), "*", "*.rpro3")):
        per_shard.setdefault(os.path.dirname(seg), []).append(seg)
    assert all(len(v) == 1 for v in per_shard.values()), per_shard
    store.close()


def test_clean_compacting_run_writes_v3_only(tmp_path):
    """A clean CLI ingest with compactions serves the full op stream
    after reopen, from a manifest-v3 tree with no per-term files."""
    proc = _spawn_ingest(tmp_path, batches=8, compact_every=4, sleep_ms=0.0)
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()

    with open(tmp_path / "manifest.json") as fh:
        assert json.load(fh)["version"] == 3
    assert not glob.glob(os.path.join(str(tmp_path), "**", "*.rpro"), recursive=True)
    store = WritablePostingStore.open(tmp_path)
    _assert_store_matches(store, _apply(_flat_ops(8)))
    store.close()


def test_compact_subcommand_seals_wal(tmp_path):
    proc = _spawn_ingest(tmp_path, batches=4, sleep_ms=0.0)
    _out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()

    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "repro.store", "compact", str(tmp_path)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    stats = json.loads(done.stdout)
    assert stats["pending_ops"] == 0
    assert stats["generation"] >= 1

    store = WritablePostingStore.open(tmp_path)
    assert store.recovered_ops == 0  # everything sealed into segments
    _assert_store_matches(store, _apply(_flat_ops(4)))
    store.close()
