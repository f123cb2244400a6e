"""perf_gate: result schema, baseline comparison, and CLI wiring."""

import json

import pytest

from repro.bench import perf_gate
from repro.bench.perf_gate import (
    DECODE_WORKLOADS,
    DecodeWorkload,
    GateFinding,
    _load_baseline,
    _measure_decode,
    _store_baseline,
    compare,
)


def _doc(**ms_by_name) -> dict:
    return {
        "schema": 1,
        "mode": "quick",
        "workloads": {
            name: {"kind": "decode", "ms": ms} for name, ms in ms_by_name.items()
        },
    }


# ----------------------------------------------------------------------
# GateFinding thresholds
# ----------------------------------------------------------------------
def test_finding_status_bands():
    ok = GateFinding("w.ms", 10.0, 12.0)
    assert ok.status() == "ok" and ok.ratio == pytest.approx(1.2)
    warn = GateFinding("w.ms", 10.0, 20.0)
    assert warn.status() == "warn"
    fail = GateFinding("w.ms", 10.0, 31.0)
    assert fail.status() == "fail"
    # thresholds are parameters, not constants
    assert fail.status(warn=1.1, fail=5.0) == "warn"
    # a zero baseline cannot divide; treated as neutral
    assert GateFinding("w.ms", 0.0, 5.0).status() == "ok"


def test_compare_pairs_shared_metrics_only():
    findings = compare(_doc(a=12.0, b=3.0, new=1.0), _doc(a=10.0, b=3.0, old=9.0))
    by_metric = {f.metric: f for f in findings}
    # 'new' has no baseline, 'old' no current measurement: both skipped
    assert set(by_metric) == {"a.ms", "b.ms"}
    assert by_metric["a.ms"].ratio == pytest.approx(1.2)


def test_compare_gates_served_p50s():
    cur = {
        "workloads": {
            "served-closed-loop": {
                "kind": "served",
                "cold_p50_ms": 30.0,
                "warm_p50_ms": 2.0,
                "speedup_warm_vs_cold": 15.0,
            }
        }
    }
    base = {
        "workloads": {
            "served-closed-loop": {
                "kind": "served",
                "cold_p50_ms": 28.0,
                "warm_p50_ms": 0.5,
            }
        }
    }
    metrics = {f.metric: f.ratio for f in compare(cur, base)}
    assert metrics["served-closed-loop.warm_p50_ms"] == pytest.approx(4.0)
    # derived ratios (speedup_*) are never gated, only raw times
    assert "served-closed-loop.speedup_warm_vs_cold" not in metrics


def test_compare_ignores_non_numeric_and_missing():
    cur = {"workloads": {"a": {"kind": "decode", "ms": "fast"}}}
    base = {"workloads": {"a": {"kind": "decode", "ms": 10.0}}}
    assert compare(cur, base) == []
    assert compare({}, {}) == []


# ----------------------------------------------------------------------
# Baseline file round-trip
# ----------------------------------------------------------------------
def test_baseline_store_and_load_by_mode(tmp_path):
    path = tmp_path / "baseline.json"
    quick = _doc(a=1.0)
    _store_baseline(path, quick)
    full = dict(_doc(a=9.0), mode="full")
    _store_baseline(path, full)
    assert _load_baseline(path, "quick")["workloads"]["a"]["ms"] == 1.0
    assert _load_baseline(path, "full")["workloads"]["a"]["ms"] == 9.0
    assert _load_baseline(path, "nope") is None
    assert _load_baseline(tmp_path / "absent.json", "quick") is None


def test_committed_baseline_matches_pinned_matrix():
    """The committed baseline must cover the pinned workloads for both
    modes, so the CI job and future full runs compare apples to apples."""
    doc = json.loads(
        (perf_gate.DEFAULT_BASELINE).read_text()
    )
    expected = {wl.name for wl in DECODE_WORKLOADS} | {
        "served-closed-loop",
        "mapped-cold-open",
        "compressed-intersect",
    }
    for mode in ("quick", "full"):
        assert set(doc[mode]["workloads"]) == expected, mode


# ----------------------------------------------------------------------
# Measurement schema (micro workload — keeps the suite fast)
# ----------------------------------------------------------------------
def test_measure_decode_schema_and_parity():
    wl = DecodeWorkload("micro", "Simple9", 4_000, 1 << 16, 2_000)
    entry = _measure_decode(wl, quick=True)
    assert entry["kind"] == "decode" and entry["codec"] == "Simple9"
    assert entry["n_values"] > 0 and entry["ms"] > 0
    assert entry["scalar_ms"] > 0 and entry["speedup_vs_scalar"] is not None
    assert {"mips", "compressed_bytes", "universe", "scalar_source"} <= entry.keys()


def test_measure_decode_frozen_reference_only_in_full_mode():
    wl = DecodeWorkload("bbc-dense", "BBC", 4_000, 1 << 16, 2_000, "frozen")
    quick_entry = _measure_decode(wl, quick=True)
    assert quick_entry["scalar_ms"] is None  # frozen refs are full-mode only


def test_measure_mapped_open_schema_and_invariants(monkeypatch):
    """The mapped cold-open entry: flat open, heap peak recorded for the
    baseline gate, no legacy (v2) reference fields."""
    monkeypatch.setattr(perf_gate, "MAPPED_QUICK_TERMS", 64)
    entry = perf_gate._measure_mapped_open(quick=True)
    assert entry["kind"] == "mapped-open" and entry["terms"] == 64
    assert entry["open_ms"] > 0 and entry["open_4x_ms"] > 0
    # the in-process assertion already enforces this; re-check the
    # recorded numbers tell the same story
    assert entry["flatness_ratio"] <= perf_gate.MAPPED_FLATNESS_BOUND
    assert entry["heap_peak_kb"] > 0
    assert not any(k.startswith("legacy_") or k == "heap_savings" for k in entry)


def test_measure_compressed_intersect_schema_and_bound(monkeypatch):
    """The compressed-intersect entry: both backings beat the decode
    baseline by the committed bound, counters stay compressed-only."""
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_LONG_DRAWS", 60_000)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_SHORT_DRAWS", 600)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_ITERATIONS", 3)
    entry = perf_gate._measure_compressed_intersect(quick=True)
    assert entry["kind"] == "compressed-intersect"
    assert entry["codec"] == perf_gate.COMPRESSED_CODEC
    assert entry["long_n"] > entry["short_n"] > 0
    for backing in ("inheap", "mapped"):
        assert entry[f"{backing}_compressed_p50_ms"] > 0
        assert entry[f"{backing}_decode_p50_ms"] > 0
        # the in-process assertion already enforces the bound; re-check
        # the recorded numbers tell the same story
        assert entry[f"{backing}_speedup"] >= perf_gate.COMPRESSED_SPEEDUP_BOUND


def test_compare_gates_compressed_intersect_metrics():
    cur = {
        "workloads": {
            "compressed-intersect": {
                "kind": "compressed-intersect",
                "inheap_compressed_p50_ms": 0.4,
                "mapped_compressed_p50_ms": 0.3,
                "inheap_decode_p50_ms": 5.0,
                "inheap_speedup": 12.5,
            }
        }
    }
    base = {
        "workloads": {
            "compressed-intersect": {
                "kind": "compressed-intersect",
                "inheap_compressed_p50_ms": 0.2,
                "mapped_compressed_p50_ms": 0.1,
                "inheap_decode_p50_ms": 5.0,
                "inheap_speedup": 25.0,
            }
        }
    }
    metrics = {f.metric: f.ratio for f in compare(cur, base)}
    assert metrics["compressed-intersect.inheap_compressed_p50_ms"] == pytest.approx(2.0)
    assert metrics["compressed-intersect.mapped_compressed_p50_ms"] == pytest.approx(3.0)
    # the decode arm is the reference, not a gated product; speedups are
    # derived ratios and never gated either
    assert "compressed-intersect.inheap_decode_p50_ms" not in metrics
    assert "compressed-intersect.inheap_speedup" not in metrics


def test_compare_gates_mapped_open_metrics():
    cur = {
        "workloads": {
            "mapped-cold-open": {
                "kind": "mapped-open",
                "open_ms": 4.0,
                "heap_peak_kb": 500.0,
                "flatness_ratio": 1.1,
            }
        }
    }
    base = {
        "workloads": {
            "mapped-cold-open": {
                "kind": "mapped-open",
                "open_ms": 2.0,
                "heap_peak_kb": 250.0,
                "flatness_ratio": 1.0,
            }
        }
    }
    metrics = {f.metric: f.ratio for f in compare(cur, base)}
    assert metrics["mapped-cold-open.open_ms"] == pytest.approx(2.0)
    assert metrics["mapped-cold-open.heap_peak_kb"] == pytest.approx(2.0)
    # derived ratios are informational, never gated
    assert "mapped-cold-open.flatness_ratio" not in metrics


def test_main_run_without_baseline_is_warn_only(tmp_path, monkeypatch, capsys):
    """`check` against a missing baseline must not fail CI."""
    monkeypatch.setattr(
        perf_gate,
        "DECODE_WORKLOADS",
        (DecodeWorkload("micro", "Simple9", 4_000, 1 << 16, 2_000),),
    )
    monkeypatch.setattr(perf_gate, "SERVED_QUICK_LIST_SIZE", 2_000)
    monkeypatch.setattr(perf_gate, "SERVED_QUICK_ITERATIONS", 2)
    monkeypatch.setattr(perf_gate, "MAPPED_QUICK_TERMS", 32)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_LONG_DRAWS", 20_000)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_SHORT_DRAWS", 400)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_ITERATIONS", 2)
    # micro sizes cannot honour the real bound; the wiring is the test
    monkeypatch.setattr(perf_gate, "COMPRESSED_SPEEDUP_BOUND", 0.0)
    out = tmp_path / "out.json"
    code = perf_gate.main(
        [
            "check",
            "--quick",
            "--baseline",
            str(tmp_path / "missing.json"),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "quick" and "micro" in doc["workloads"]
    assert "served-closed-loop" in doc["workloads"]


def test_main_update_then_check_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(
        perf_gate,
        "DECODE_WORKLOADS",
        (DecodeWorkload("micro", "Simple9", 4_000, 1 << 16, 2_000),),
    )
    monkeypatch.setattr(perf_gate, "SERVED_QUICK_LIST_SIZE", 2_000)
    monkeypatch.setattr(perf_gate, "SERVED_QUICK_ITERATIONS", 2)
    monkeypatch.setattr(perf_gate, "MAPPED_QUICK_TERMS", 32)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_LONG_DRAWS", 20_000)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_SHORT_DRAWS", 400)
    monkeypatch.setattr(perf_gate, "COMPRESSED_QUICK_ITERATIONS", 2)
    monkeypatch.setattr(perf_gate, "COMPRESSED_SPEEDUP_BOUND", 0.0)
    baseline = tmp_path / "b.json"
    assert perf_gate.main(["update", "--quick", "--baseline", str(baseline)]) == 0
    # micro workloads run in microseconds, where run-to-run jitter can
    # exceed the real gate's 3x band — loosen it, the wiring is the test
    assert (
        perf_gate.main(
            ["check", "--quick", "--baseline", str(baseline), "--fail", "1e9"]
        )
        == 0
    )
    # an absurdly tight fail threshold trips the hard gate
    assert (
        perf_gate.main(
            ["check", "--quick", "--baseline", str(baseline), "--fail", "0.0001"]
        )
        == 1
    )
