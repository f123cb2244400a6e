#!/usr/bin/env python3
"""The repo's benchmark: one command, seven workloads, every metric by name.

Suite (what a developer runs; prints strict JSON, tables on stderr)::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--quick] [--runs N] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

One measured run (what ``BENCHMARK.json``'s driver runs)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of the untraced window,
``--trace 1`` the per-layer metrics (counter deltas around the same
window plus the separate traced pass).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
QUICK_SECONDS = 2
QUICK_TRACED = 50


def _emit(obj: dict) -> None:
    print(json.dumps(obj, allow_nan=False), flush=True)


def one_run(args: argparse.Namespace) -> int:
    """One workload, one window; the last stdout line is the result."""
    import layers
    import runner
    from targets import pin_harness
    from workloads import TRACED_QUERIES, WORKLOADS

    pin_harness()
    spec = report.load_spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    both = args.trace == "both"
    outcome = runner.WorkloadRun(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds if args.seconds is not None else spec["run_seconds"],
        QUICK_TRACED if args.quick else TRACED_QUERIES,
    ).run(setup_reps=1 if args.trace == "1" or args.quick else SETUP_REPS, trace=args.trace != "0")
    def pick(values: dict, units: dict, names) -> dict:
        return {n: {"value": values[n], "unit": units[n]} for n in names if n in values}

    result: dict = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if both:  # the suite's richer shape: every metric of both kinds, and the detail
        result["end_to_end"] = pick(outcome.end_to_end, runner.END_TO_END_UNITS,
                                    runner.END_TO_END_UNITS)
        result["per_layer"] = pick(outcome.per_layer, layers.UNITS, layers.NAMES)
        result["detail"] = outcome.detail
    elif args.trace == "0":
        result["metrics"] = pick(outcome.end_to_end, runner.END_TO_END_UNITS,
                                 [m["name"] for m in spec["end_to_end"]])
    else:
        result["metrics"] = pick(outcome.per_layer, layers.UNITS,
                                 [m["name"] for m in spec["per_layer"]])
    _emit(result)
    return 0 if outcome.failed == 0 else 1


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def suite(args: argparse.Namespace) -> int:
    """The suite ``--runs`` times; one document, or a list of them."""
    docs = []
    status = 0
    for _ in range(args.runs):
        doc, code = suite_once(args)
        docs.append(doc)
        status = status or code
    text = json.dumps(docs[0] if args.runs == 1 else docs, indent=1, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return status


def suite_once(args: argparse.Namespace) -> tuple[dict, int]:
    """Every workload (or one), each in its own process so peak RSS and
    caches never leak from one workload into the next."""
    import os

    import numpy

    from workloads import WORKLOADS

    spec = report.load_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    doc: dict = {
        "schema": "repro-e2e/1",
        "commit": _commit(),
        "seed": args.seed,
        "quick": args.quick,
        "window_s": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": {},
    }
    status = 0
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", "both"]
        if args.quick:
            argv.append("--quick")
        print(f"== {name}", file=sys.stderr, flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"{name}: no result (exit {proc.returncode})")
        result = json.loads(lines[-1])
        status = status or proc.returncode
        doc["workloads"][name] = {"why": WORKLOADS[name].why, **result}
        report.print_workload(name, doc["workloads"][name], file=sys.stderr)
    return doc, status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"), default=None)
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows, 50 traced queries, one set-up; oracle still on")
    parser.add_argument("--out", default=None, help="also write the suite JSON here")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the suite; the output is then a list (a set for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), default=None)
    args = parser.parse_args(argv)

    if args.compare:
        return report.compare(*args.compare)

    from corpus import DEFAULT_SEED
    from targets import require_program

    require_program()
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return one_run(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
