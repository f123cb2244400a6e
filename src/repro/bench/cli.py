"""Command-line runner: ``python -m repro.bench <experiment-id> [...]``.

Examples::

    python -m repro.bench fig3            # decompression sweep
    python -m repro.bench tab1 tab2       # intersection + union tables
    python -m repro.bench all             # everything (slow)
    python -m repro.bench fig3 --quick    # reduced sizes for a fast look
    python -m repro.bench history         # the Figure-1 timeline
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import format_table, history_table, scatter_plot, to_csv

_METRIC_TITLES = {
    "decompress_ms": "decompression time (ms)",
    "intersect_ms": "intersection / query time (ms)",
    "union_ms": "union time (ms)",
    "space_bytes": "space",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}), 'all', or 'history'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced list sizes / fewer repeats for a fast smoke run",
    )
    parser.add_argument(
        "--csv", action="store_true", help="dump raw CSV instead of tables"
    )
    parser.add_argument(
        "--scatter",
        action="store_true",
        help="render time-vs-space ASCII scatters (the paper's figure "
        "panels) instead of tables",
    )
    parser.add_argument(
        "--svg",
        metavar="DIR",
        help="additionally write paper-style SVG figures into DIR "
        "(one scatter per workload, plus a sweep line chart)",
    )
    parser.add_argument(
        "--sizes",
        metavar="N[,N...]",
        help="override list sizes for the synthetic sweeps "
        "(fig3/tab1/tab2), e.g. --sizes 1000,100000",
    )
    parser.add_argument(
        "--domain",
        type=int,
        metavar="D",
        help="override the synthetic domain size (default 2^21 - 1)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        metavar="R",
        help="measurement repetitions per cell (default 3)",
    )
    args = parser.parse_args(argv)

    wanted = list(args.experiments)
    if "all" in wanted:
        wanted = list(EXPERIMENTS)
    for exp_id in wanted:
        if exp_id == "history":
            print(history_table())
            continue
        if exp_id not in EXPERIMENTS:
            parser.error(f"unknown experiment {exp_id!r}")
        fn, metrics = EXPERIMENTS[exp_id]
        kwargs = {}
        if args.quick:
            kwargs = _quick_kwargs(exp_id)
        kwargs.update(_scale_kwargs(exp_id, args))
        print(f"=== {exp_id}: {fn.__doc__.strip().splitlines()[0]} ===")
        rows = fn(**kwargs)
        if args.svg:
            _write_svgs(args.svg, exp_id, rows, metrics)
        if args.csv:
            print(to_csv(rows))
            continue
        if args.scatter:
            time_metric = next(
                (m for m in metrics if m.endswith("_ms")), "intersect_ms"
            )
            for workload in dict.fromkeys(r.workload for r in rows):
                print(scatter_plot(rows, workload, y=time_metric))
            continue
        for metric in metrics:
            print(format_table(rows, metric, title=f"[{_METRIC_TITLES[metric]}]"))
    return 0


def _write_svgs(directory: str, exp_id: str, rows, metrics) -> None:
    """One scatter SVG per workload (when space is measured) plus a
    sweep line chart for the primary time metric."""
    import os

    from repro.bench.svgplot import scatter_svg, series_svg

    os.makedirs(directory, exist_ok=True)
    time_metric = next((m for m in metrics if m.endswith("_ms")), None)
    if time_metric and "space_bytes" in metrics:
        for workload in dict.fromkeys(r.workload for r in rows):
            safe = workload.replace("/", "_").replace("=", "")
            path = os.path.join(directory, f"{exp_id}_{safe}.svg")
            with open(path, "w") as fh:
                fh.write(
                    scatter_svg(
                        rows, workload, y=time_metric,
                        title=f"{exp_id} {workload}",
                    )
                )
            print(f"wrote {path}")
    if time_metric:
        path = os.path.join(directory, f"{exp_id}_series.svg")
        with open(path, "w") as fh:
            fh.write(series_svg(rows, time_metric, title=exp_id))
        print(f"wrote {path}")


def _scale_kwargs(exp_id: str, args) -> dict:
    """Apply --sizes/--domain/--repeat where the experiment accepts them."""
    out: dict = {}
    if args.repeat is not None:
        out["repeat"] = args.repeat
    if args.sizes and exp_id in ("fig3", "tab1", "tab2"):
        try:
            out["sizes"] = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise SystemExit(
                f"error: --sizes expects comma-separated integers, "
                f"got {args.sizes!r}"
            )
    if args.domain and exp_id in ("fig3", "tab1", "tab2", "tab3", "fig7"):
        out["domain"] = args.domain
    return out


def _quick_kwargs(exp_id: str) -> dict:
    """Reduced-scale parameters per experiment for --quick runs."""
    if exp_id in ("fig3", "tab1", "tab2"):
        return {"sizes": (1_000, 10_000), "repeat": 1}
    if exp_id == "tab3":
        return {"long_size": 10_000, "repeat": 1}
    if exp_id in ("fig4", "fig5"):
        return {"scale_factors": (1,), "repeat": 1}
    if exp_id == "fig6":
        return {"n_docs": 50_000, "n_queries": 10, "repeat": 1}
    if exp_id == "fig7":
        return {"long_size": 5_000, "repeat": 1}
    return {"repeat": 1}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
