"""Human-readable tables for a suite run, and the ``--compare`` gate."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from stats import iqr_share

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Bounds of the end-to-end metrics BENCHMARK.json cannot carry: the
#: ingest pair exists on one workload only, and ``failed_share`` is 0.
EXTRA_BOUNDS = {"ingest_p50_ms": 0.15, "ingest_p99_ms": 0.30, "failed_share": 0.0}
HIGHER_IS_BETTER = {"throughput_qps"}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def bounds() -> dict[str, float]:
    """End-to-end metric → share of the base by which it may get worse."""
    return {m["name"]: m["bound"] for m in load_spec()["end_to_end"]} | EXTRA_BOUNDS


# ----------------------------------------------------------------------
def print_workload(name: str, entry: dict, file=sys.stderr) -> None:
    """End-to-end metrics and the stage table of one workload."""
    samples = entry["detail"].get("samples", {})
    for metric, m in entry["end_to_end"].items():
        n = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"  {metric:26s} {m['value']:12.4f} {m['unit']}{n}", file=file)
    if not entry["detail"].get("valid", True):
        print("  INVALID: the load generator ran late; see loadgen.lag_p99_ms", file=file)
    table = entry["detail"].get("stage_table")
    if not table:
        return
    req = table["request"]
    print(f"  stage table — live request p50 {req['p50_ms']:.3f} ms over {req['samples']} "
          f"traced queries (self time, ms per query)", file=file)
    print(f"    {'stage':34s} {'p50':>8s} {'tail':>14s} {'share of p50':>13s}", file=file)
    for row in table["stages"]:
        tail = "-" if row["tail_ms"] is None else f"p{row['tail_q']} {row['tail_ms']:8.3f}"
        print(f"    {row['stage']:34s} {row['p50_ms']:8.3f} {tail:>14s} "
              f"{row['share_of_request_p50']:12.1%}", file=file)
    print(f"    {'unattributed':34s} {table['unattributed_ms']:8.3f} {'':14s} "
          f"{table['unattributed_share']:12.1%}", file=file)
    per_layer = entry["per_layer"]
    print(f"    tracing overhead {per_layer['trace.overhead_share']['value']:.1%} "
          f"({int(per_layer['trace.spans']['value'])} spans)", file=file)


# ----------------------------------------------------------------------
def _load_runs(path: str) -> list[dict]:
    """A file holds one suite document or a list of them (``--runs N``)."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc if isinstance(doc, list) else [doc]


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["end_to_end"][metric]["value"]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def verdict(metric: str, a: list[float], b: list[float], bound: float, valid: bool) -> tuple[str, float]:
    """(ok | worse | unresolved, share by which B's median is worse than A's).

    ``worse``: beyond the bound.  ``unresolved``: within it, but A's own
    run-to-run spread is wider than the bound (and B does not beat A on
    every run), or a run was invalid — the data cannot say "unchanged".
    """
    base, new = statistics.median(a), statistics.median(b)
    if metric == "failed_share":
        worse_by = new - base  # absolute: any new failure is worse
    elif not base:
        worse_by = float("inf") if new != base else 0.0
    elif metric in HIGHER_IS_BETTER:
        worse_by = (base - new) / base
    else:
        worse_by = (new - base) / base
    if worse_by > bound:
        return "worse", worse_by
    if not valid:
        return "unresolved", worse_by
    if len(a) >= 4 and iqr_share(a) > bound:
        higher = metric in HIGHER_IS_BETTER
        b_always_better = min(b) > max(a) if higher else max(b) < min(a)
        if not b_always_better:
            return "unresolved", worse_by
    return "ok", worse_by


def compare(path_a: str, path_b: str, file=None) -> int:
    """Per (end-to-end metric, workload): A, B, ratio to A, bound, verdict."""
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    limit = bounds()
    worse = 0
    print(f"A = {path_a} ({len(runs_a)} run(s), commit {runs_a[0].get('commit', '?')[:12]})", file=file)
    print(f"B = {path_b} ({len(runs_b)} run(s), commit {runs_b[0].get('commit', '?')[:12]})", file=file)
    print(f"{'workload':22s} {'metric':26s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'bound':>7s}  verdict", file=file)
    for workload in runs_a[0]["workloads"]:
        valid = all(
            run["workloads"][workload]["detail"].get("valid", True)
            for run in runs_a + runs_b
            if workload in run["workloads"]
        )
        for metric in limit:
            a, b = _values(runs_a, workload, metric), _values(runs_b, workload, metric)
            if not a and not b:
                continue  # ingest metrics on a read-only workload
            if not a or not b:
                print(f"{workload:22s} {metric:26s} {'missing on one side':>40s}  unresolved", file=file)
                continue
            word, _ = verdict(metric, a, b, limit[metric], valid)
            base, new = statistics.median(a), statistics.median(b)
            ratio = f"{new / base:7.3f}" if base else "      -"
            sign = "-" if metric in HIGHER_IS_BETTER else "+"
            print(f"{workload:22s} {metric:26s} {base:12.4f} {new:12.4f} {ratio} "
                  f"{sign}{limit[metric]:5.0%}  {word}", file=file)
            worse += word == "worse"
    print(f"{worse} pair(s) worse than the bound allows", file=file)
    return 1 if worse else 0
