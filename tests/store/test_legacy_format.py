"""The retired v1/v2 on-disk format, seen through one golden directory.

``fixtures/legacy_v2/`` was written once by the last commit that still
had a v2 writer (provenance in ``legacy_v2.oracle.json``): 2 shards x 3
terms in per-term ``.rpro`` files under a version-2 manifest, plus one
un-compacted ``wal-*.log`` whose ops (adds, deletes, a WAL-only term)
exist nowhere else.  Two contracts:

* ``migrate_store`` is the only reader — it must yield every list,
  WAL-only ops included, bit-identical to the recorded oracle;
* every other entrypoint refuses the directory with a typed
  :class:`StoreError` that names the migrate command, and writes nothing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.store import (
    PostingStore,
    StoreError,
    WritablePostingStore,
    migrate_store,
)
from repro.store.plan import Term

_FIXTURE = Path(__file__).parent / "fixtures" / "legacy_v2"
_ORACLE = json.loads(
    (Path(__file__).parent / "fixtures" / "legacy_v2.oracle.json").read_text()
)["lists"]
_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def legacy_dir(tmp_path):
    directory = tmp_path / "store"
    shutil.copytree(_FIXTURE, directory)
    return directory


def _tree(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _served_lists(directory: Path) -> dict[str, list[int]]:
    with api.connect(str(directory)) as target:
        out = {}
        for key in _ORACLE:
            shard, term = key.split("/")
            response = target.query(Term(term), shards=[shard])
            assert response.status == "ok", key
            out[key] = response.values
        return out


def test_migrate_yields_every_list_bit_identical_and_is_idempotent(legacy_dir):
    summary = migrate_store(legacy_dir)
    assert summary["already_mapped"] is False
    assert summary["shards"] == 2 and summary["removed_files"] == 6
    assert summary["terms"] == len(_ORACLE)  # incl. the WAL-only s1/delta

    assert _served_lists(legacy_dir) == _ORACLE
    manifest = json.loads((legacy_dir / "manifest.json").read_text())
    assert manifest["version"] == 3
    assert not list(legacy_dir.rglob("*.rpro"))
    assert not (legacy_dir / "wal-000002.log").exists()  # folded, then truncated

    after_first = _tree(legacy_dir)
    again = migrate_store(legacy_dir)
    assert again["already_mapped"] is True and again["removed_files"] == 0
    assert _tree(legacy_dir) == after_first
    assert _served_lists(legacy_dir) == _ORACLE


@pytest.mark.parametrize(
    "opener",
    [
        PostingStore.load,
        WritablePostingStore.open,
        lambda d: api.connect(str(d)),
        lambda d: api.connect(str(d), writable=True),
    ],
    ids=["load", "open", "connect", "connect-writable"],
)
def test_unmigrated_directory_is_refused_and_untouched(legacy_dir, opener):
    before = _tree(legacy_dir)
    with pytest.raises(StoreError, match=r"python -m repro\.store migrate"):
        opener(legacy_dir)
    assert _tree(legacy_dir) == before


def _store_cli(subcommand: str, directory: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "repro.store", subcommand, str(directory)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("subcommand", ["ingest", "compact"])
def test_store_cli_refuses_unmigrated_directory(legacy_dir, subcommand):
    before = _tree(legacy_dir)
    done = _store_cli(subcommand, legacy_dir)
    assert done.returncode != 0
    assert "python -m repro.store migrate" in done.stderr
    assert _tree(legacy_dir) == before


def test_store_cli_migrate_upgrades_it(legacy_dir):
    done = _store_cli("migrate", legacy_dir)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["removed_files"] == 6
    assert _served_lists(legacy_dir) == _ORACLE


def test_migrate_rejects_an_unknown_manifest_version(legacy_dir):
    manifest = json.loads((legacy_dir / "manifest.json").read_text())
    manifest["version"] = 99
    (legacy_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="version 99"):
        migrate_store(legacy_dir)
