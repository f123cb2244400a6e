import json

import report


def test_verdicts():
    bound = 0.10
    assert report.verdict("query_p50_ms", [1.0], [1.05], bound, True)[0] == "ok"
    assert report.verdict("query_p50_ms", [1.0], [1.2], bound, True)[0] == "worse"
    assert report.verdict("throughput_qps", [100.0], [85.0], bound, True)[0] == "worse"
    assert report.verdict("throughput_qps", [100.0], [120.0], bound, True)[0] == "ok"
    # Any new failure is worse; none is ok.
    assert report.verdict("failed_share", [0.0], [0.001], 0.0, True)[0] == "worse"
    assert report.verdict("failed_share", [0.0], [0.0], 0.0, True)[0] == "ok"
    # An invalid run cannot say "unchanged".
    assert report.verdict("query_p50_ms", [1.0], [1.0], bound, False)[0] == "unresolved"
    # A's own spread wider than the bound: unresolved, unless B wins every run.
    noisy = [1.0, 1.3, 0.8, 1.4, 0.7]
    assert report.verdict("query_p50_ms", noisy, [1.0] * 5, bound, True)[0] == "unresolved"
    assert report.verdict("query_p50_ms", noisy, [0.5] * 5, bound, True)[0] == "ok"


def _doc(p50, failed=0.0):
    entry = {"end_to_end": {"query_p50_ms": {"value": p50, "unit": "ms"},
                            "failed_share": {"value": failed, "unit": "ratio"}},
             "detail": {"valid": True}}
    return {"commit": "abc", "workloads": {"bitmap-and-dir": entry}}


def test_compare_exit_code_and_table(tmp_path, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(_doc(1.0)))
    b.write_text(json.dumps([_doc(1.04), _doc(1.06)]))  # a set of runs
    c.write_text(json.dumps(_doc(1.5)))
    assert report.compare(str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "query_p50_ms" in out and "1.050" in out and "ok" in out
    assert report.compare(str(a), str(c)) == 1
    assert "worse" in capsys.readouterr().out


def test_bounds_cover_all_ten_metrics():
    assert set(report.bounds()) == {
        "setup_s", "query_p50_ms", "query_p99_ms", "throughput_qps", "cpu_ms_per_query",
        "peak_rss_mb", "stored_bytes_per_posting", "ingest_p50_ms", "ingest_p99_ms",
        "failed_share"}
    assert report.bounds()["query_p50_ms"] <= 0.10
