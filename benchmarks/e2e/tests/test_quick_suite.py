"""``--quick`` end to end, the BENCHMARK.json contract, and the bare-directory exit."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers
import runner
from workloads import WORKLOADS

HARNESS = Path(__file__).resolve().parents[1]
REPO = HARNESS.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    for metric in SPEC["end_to_end"]:
        assert runner.END_TO_END_UNITS[metric["name"]] == metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    assert SPEC["paths"] == ["benchmarks/e2e"] and len(json.dumps(SPEC)) < 64 * 1024


def test_quick_suite_emits_every_metric_in_under_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60.0, f"--quick took {elapsed:.1f}s"

    def no_constants(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    doc = json.loads(out.read_text(), parse_constant=no_constants)
    assert json.loads(proc.stdout, parse_constant=no_constants) == doc
    assert list(doc["workloads"]) == list(WORKLOADS)
    for key in ("commit", "seed", "nproc", "python", "numpy", "window_s"):
        assert key in doc
    for name, entry in doc["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["detail"].get("failures"))
        assert entry["end_to_end"]["failed_share"]["value"] == 0.0
        expected = set(runner.END_TO_END_UNITS)
        if name != "churn-rw-server":
            expected -= {"ingest_p50_ms", "ingest_p99_ms"}
        assert set(entry["end_to_end"]) == expected, name
        assert set(entry["per_layer"]) == set(layers.NAMES), name
        detail = entry["detail"]
        assert len(detail["corpus_digest"]) == 64 and len(detail["log_digest"]) == 64
        assert detail["samples"]["query_p50_ms"] >= 50 and detail["window_s"] == 2
        assert detail["stage_table"]["stages"], name
        trace = HARNESS / "out" / f"{name}.trace.jsonl"
        first = json.loads(trace.read_text().splitlines()[0])
        assert set(first) == {"trace_id", "span_id", "parent_id", "name", "workload",
                              "start_ns", "end_ns", "attrs"}
    churn = doc["workloads"]["churn-rw-server"]
    assert churn["detail"]["durability_lists_checked"] > 0
    assert churn["per_layer"]["store.segments.compactions"]["value"] >= 1
    # No temp stores or children left behind.
    assert [p.name for p in (HARNESS / "out").iterdir() if p.is_dir()] == []


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HARNESS, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bitmap-and-dir",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
