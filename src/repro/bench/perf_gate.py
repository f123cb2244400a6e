"""Perf-regression gate: pinned decode + serving workloads, compared
against a committed baseline.

The read-path optimisations (vectorised BBC/Simple/GroupVB kernels,
single-flight decode coalescing, the generational plan-result cache) are
wins only while they stay won.  This module pins a small benchmark
matrix — the 1M-integer decode workloads the paper's Figure 3 family
stresses, plus a served closed-loop that exercises the cache stack — and
compares every run against ``benchmarks/perf_baseline.json``.  The v3
mapped-segment work adds a third workload family: cold-opening a mapped
store must stay flat in term count (zero per-term parsing) and must not
materialise the payload onto the Python heap.  The codec capability
protocol adds a fourth: a selective compressed-domain AND must beat the
decode-then-intersect baseline by ``COMPRESSED_SPEEDUP_BOUND`` on both
the in-heap and mapped backings.  These invariants are asserted
in-process and their committed bounds are gated like every other
metric:

* ratio > ``--warn`` (default 1.5×): printed as a warning, exit 0 — CI
  machines are noisy, a lone soft miss is not a verdict;
* ratio > ``--fail`` (default 3.0×): hard failure, exit 1 — nothing
  legitimate triples a pinned decode workload.

Usage (from the repo root)::

    python -m repro.bench.perf_gate run --output BENCH_PR5.json
    python -m repro.bench.perf_gate check --quick
    python -m repro.bench.perf_gate update --quick

``--quick`` shrinks every workload for CI smoke runs; quick numbers live
in their own baseline section and are never compared against full ones.

Scalar references: the Simple-family and GroupVB workloads re-measure
the generic per-block scalar loop (``BlockedInvListCodec._decode_all``)
in-process, so their ``speedup_vs_scalar`` is apples-to-apples on the
current machine.  BBC's pre-vectorisation decoder no longer exists in
the tree, so its reference times are frozen constants measured at the
commit preceding the vectorisation sweep (see ``_BBC_SCALAR_MS``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench.timing import measure
from repro.core.registry import get_codec
from repro.invlists.blocks import BlockedInvListCodec
from repro.store import And, DecodeCache, Or, PostingStore, QueryEngine

SCHEMA_VERSION = 1
SEED = 20170514

#: Default committed baseline location, relative to the repo root (CI and
#: developers both invoke the gate from there).
DEFAULT_BASELINE = Path("benchmarks") / "perf_baseline.json"

#: Soft / hard regression thresholds (current_ms / baseline_ms).
WARN_RATIO = 1.5
FAIL_RATIO = 3.0

#: Frozen scalar references for BBC, in milliseconds: the pre-vectorisation
#: decoder at commit 02358b4 on these exact workloads (seed 20170514,
#: 1M draws).  Full mode only — quick workloads have no frozen reference.
_BBC_SCALAR_MS = {
    "bbc-dense": 1050.1,
    "bbc-sparse": 1618.6,
}
_BBC_SCALAR_SOURCE = "pre-vectorization decoder @ 02358b4"


@dataclass(frozen=True)
class DecodeWorkload:
    """One pinned decompress-throughput measurement."""

    name: str
    codec: str
    draws: int  #: values drawn before np.unique
    universe: int
    quick_draws: int
    #: "block_loop" re-measures the generic scalar block loop in-process;
    #: "frozen" reads :data:`_BBC_SCALAR_MS`; None records no reference.
    scalar: str | None = "block_loop"


DECODE_WORKLOADS: tuple[DecodeWorkload, ...] = (
    DecodeWorkload("bbc-dense", "BBC", 1_000_000, 1 << 25, 100_000, "frozen"),
    DecodeWorkload("bbc-sparse", "BBC", 1_000_000, 1 << 29, 100_000, "frozen"),
    DecodeWorkload("simple9", "Simple9", 1_000_000, 1 << 25, 100_000),
    DecodeWorkload("simple16", "Simple16", 1_000_000, 1 << 25, 100_000),
    DecodeWorkload("simple8b", "Simple8b", 1_000_000, 1 << 25, 100_000),
    DecodeWorkload("groupvb", "GroupVB", 1_000_000, 1 << 25, 100_000),
)

#: Served closed-loop parameters.
SERVED_CODEC = "WAH"
SERVED_DOMAIN = 2**21 - 1
SERVED_LIST_SIZE = 120_000
SERVED_QUICK_LIST_SIZE = 20_000
SERVED_ITERATIONS = 15
SERVED_QUICK_ITERATIONS = 5

#: Mapped cold-open workload: a segment must open without per-term
#: parsing, so its open latency is (near-)flat in term count and its
#: Python-heap footprint stays at the committed ``heap_peak_kb``
#: ceiling.  ``MAPPED_FLATNESS_BOUND`` is a hard in-process assertion on
#: open(4N)/open(N) — generous because tiny timings are noisy and the
#: metadata CRC is linear (at memory bandwidth) in the ~64B/term tables.
MAPPED_CODEC = "Roaring"
MAPPED_UNIVERSE = 1 << 20
MAPPED_TERMS = 1_200
MAPPED_QUICK_TERMS = 200
MAPPED_LIST_SIZE = 120
MAPPED_FLATNESS_FACTOR = 4
MAPPED_FLATNESS_BOUND = 3.0

#: Compressed-domain execution workload: a selective AND — a ~5k-element
#: filter clustered in a narrow value window (the date-range-filter
#: shape) against a ~1M-element list spanning the whole universe.  The
#: capability protocol lets the planner intersect Roaring container-wise:
#: only the handful of chunk keys the filter touches are examined, and
#: the long list's other ~500 containers are never looked at, let alone
#: decoded.  The decode-then-intersect reference is the same engine with
#: ``compressed_ops=False, cache_probes=True`` — every leaf decoded,
#: arrays merged — timed cold (both cache layers cleared per iteration)
#: on the in-heap table *and* on a mapped v3 segment.
#: ``COMPRESSED_SPEEDUP_BOUND`` is a hard in-process assertion: the
#: compressed kernels must beat the decode baseline by at least this
#: factor on both backings, or the compressed-domain path has quietly
#: started materialising.
COMPRESSED_CODEC = "Roaring"
COMPRESSED_UNIVERSE = 1 << 25
COMPRESSED_LONG_DRAWS = 1_000_000
COMPRESSED_SHORT_DRAWS = 5_000
COMPRESSED_SHORT_WINDOW = 1 << 18  #: filter span: 4 of 512 chunk keys
COMPRESSED_QUICK_LONG_DRAWS = 100_000
COMPRESSED_QUICK_SHORT_DRAWS = 1_000
COMPRESSED_ITERATIONS = 9
COMPRESSED_QUICK_ITERATIONS = 5
COMPRESSED_SPEEDUP_BOUND = 5.0


def _workload_values(wl: DecodeWorkload, quick: bool) -> np.ndarray:
    draws = wl.quick_draws if quick else wl.draws
    rng = np.random.default_rng(SEED)
    return np.unique(rng.integers(0, wl.universe, size=draws))


def _scalar_decode_ms(codec: Any, cs: Any, repeat: int) -> float:
    """The generic per-block scalar loop, bypassing vectorised overrides."""

    def run() -> np.ndarray:
        residuals = BlockedInvListCodec._decode_all(codec, cs.payload, cs.n)
        return np.cumsum(residuals, dtype=np.int64)

    return measure(run, repeat=repeat, warmup=1) * 1000.0


def _measure_decode(wl: DecodeWorkload, quick: bool) -> dict:
    values = _workload_values(wl, quick)
    codec = get_codec(wl.codec)
    cs = codec.compress(values, universe=wl.universe)
    repeat = 2 if quick else 3
    decoded = codec.decompress(cs)
    if not np.array_equal(decoded, values):  # pragma: no cover - safety net
        raise AssertionError(f"{wl.codec} round-trip mismatch on {wl.name}")
    ms = measure(lambda: codec.decompress(cs), repeat=repeat, warmup=1) * 1000.0
    scalar_ms: float | None = None
    scalar_source: str | None = None
    if wl.scalar == "block_loop":
        scalar_ms = _scalar_decode_ms(codec, cs, repeat)
        scalar_source = "BlockedInvListCodec._decode_all block loop"
    elif wl.scalar == "frozen" and not quick:
        scalar_ms = _BBC_SCALAR_MS[wl.name]
        scalar_source = _BBC_SCALAR_SOURCE
    entry = {
        "kind": "decode",
        "codec": wl.codec,
        "n_values": int(values.size),
        "universe": wl.universe,
        "compressed_bytes": int(cs.size_bytes),
        "ms": round(ms, 3),
        "mips": round(values.size / ms / 1000.0, 2) if ms else None,
        "scalar_ms": round(scalar_ms, 3) if scalar_ms is not None else None,
        "scalar_source": scalar_source,
        "speedup_vs_scalar": (
            round(scalar_ms / ms, 2) if scalar_ms is not None and ms else None
        ),
    }
    return entry


def _measure_served(quick: bool) -> dict:
    """Closed-loop repeated-query p50, plan-cache warm vs fully cold."""
    list_size = SERVED_QUICK_LIST_SIZE if quick else SERVED_LIST_SIZE
    iters = SERVED_QUICK_ITERATIONS if quick else SERVED_ITERATIONS
    store = PostingStore()
    rng = np.random.default_rng(SEED)
    for name in ("s0", "s1"):
        shard = store.create_shard(name, codec=SERVED_CODEC, universe=SERVED_DOMAIN)
        shard.add(
            "hot", np.unique(rng.integers(0, SERVED_DOMAIN, size=list_size))
        )
        shard.add(
            "also",
            np.unique(rng.integers(0, SERVED_DOMAIN, size=list_size // 4)),
        )
    engine = QueryEngine(store, cache=DecodeCache(), cache_probes=True)
    expr = And(Or("hot", "also"), "hot")

    def p50(step: Callable[[], None]) -> float:
        times = []
        for _ in range(iters):
            t0 = time.perf_counter()
            step()
            times.append((time.perf_counter() - t0) * 1000.0)
        return float(np.median(times))

    def cold_step() -> None:
        engine.cache.clear()
        assert engine.plan_cache is not None
        engine.plan_cache.clear()
        assert engine.execute(expr).ok

    def warm_step() -> None:
        assert engine.execute(expr).ok

    cold_step()  # shake out lazy init before timing
    cold_p50 = p50(cold_step)
    warm_step()  # populate both cache layers
    warm_p50 = p50(warm_step)
    engine.close()
    plan_stats = engine.plan_cache.stats() if engine.plan_cache else None
    return {
        "kind": "served",
        "codec": SERVED_CODEC,
        "list_size": list_size,
        "iterations": iters,
        "cold_p50_ms": round(cold_p50, 4),
        "warm_p50_ms": round(warm_p50, 4),
        "speedup_warm_vs_cold": (
            round(cold_p50 / warm_p50, 2) if warm_p50 else None
        ),
        "plan_cache_hits": plan_stats.hits if plan_stats else None,
    }


def _save_term_store(directory: Path, n_terms: int) -> None:
    store = PostingStore()
    shard = store.create_shard("s0", codec=MAPPED_CODEC, universe=MAPPED_UNIVERSE)
    rng = np.random.default_rng(SEED)
    for i in range(n_terms):
        shard.add(
            f"t{i:05d}",
            np.unique(rng.integers(0, MAPPED_UNIVERSE, size=MAPPED_LIST_SIZE)),
        )
    store.save(directory)


def _open_ms(directory: Path, repeat: int) -> float:
    return measure(lambda: PostingStore.load(directory), repeat=repeat, warmup=1) * 1000.0


def _heap_peak_kb(fn: Callable[[], Any]) -> float:
    """tracemalloc peak across *fn* — the RSS proxy the gate can measure
    portably (mmap pages are shared/evictable and invisible to it, which
    is exactly the point: they must not show up as Python heap)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def _measure_mapped_open(quick: bool) -> dict:
    """Cold-open latency + heap ceiling for a saved (mapped) store."""
    n_terms = MAPPED_QUICK_TERMS if quick else MAPPED_TERMS
    repeat = 3 if quick else 5
    with tempfile.TemporaryDirectory(prefix="repro-perfgate-") as td:
        base = Path(td)
        _save_term_store(base / "mapped", n_terms)
        _save_term_store(base / "mapped4x", n_terms * MAPPED_FLATNESS_FACTOR)

        open_ms = _open_ms(base / "mapped", repeat)
        open_4x_ms = _open_ms(base / "mapped4x", repeat)
        heap_peak_kb = _heap_peak_kb(lambda: PostingStore.load(base / "mapped"))

    flatness = open_4x_ms / open_ms if open_ms else 1.0
    if flatness > MAPPED_FLATNESS_BOUND:  # pragma: no cover - regression net
        raise AssertionError(
            f"mapped cold-open is not flat in term count: {MAPPED_FLATNESS_FACTOR}x "
            f"terms cost {flatness:.2f}x the open time (bound "
            f"{MAPPED_FLATNESS_BOUND}x) — per-term work crept into open()"
        )
    return {
        "kind": "mapped-open",
        "codec": MAPPED_CODEC,
        "terms": n_terms,
        "list_size": MAPPED_LIST_SIZE,
        "open_ms": round(open_ms, 4),
        "open_4x_ms": round(open_4x_ms, 4),
        "flatness_ratio": round(flatness, 2),
        "heap_peak_kb": round(heap_peak_kb, 1),
    }


def _measure_compressed_intersect(quick: bool) -> dict:
    """Cold-cache selective AND: compressed-domain execution vs the
    decode-then-intersect baseline, on in-heap and mapped backings."""
    long_draws = COMPRESSED_QUICK_LONG_DRAWS if quick else COMPRESSED_LONG_DRAWS
    short_draws = COMPRESSED_QUICK_SHORT_DRAWS if quick else COMPRESSED_SHORT_DRAWS
    iters = COMPRESSED_QUICK_ITERATIONS if quick else COMPRESSED_ITERATIONS
    rng = np.random.default_rng(SEED)
    long_list = np.unique(rng.integers(0, COMPRESSED_UNIVERSE, size=long_draws))
    window_lo = (COMPRESSED_UNIVERSE - COMPRESSED_SHORT_WINDOW) // 2
    short_list = np.unique(
        rng.integers(
            window_lo, window_lo + COMPRESSED_SHORT_WINDOW, size=short_draws
        )
    )
    expected = np.intersect1d(long_list, short_list)
    expr = And("long", "short")

    def build_store() -> PostingStore:
        store = PostingStore()
        shard = store.create_shard(
            "s0", codec=COMPRESSED_CODEC, universe=COMPRESSED_UNIVERSE
        )
        shard.add("long", long_list)
        shard.add("short", short_list)
        return store

    def p50_cold(engine: QueryEngine) -> float:
        times = []
        for _ in range(iters):
            if engine.cache is not None:
                engine.cache.clear()
            if engine.plan_cache is not None:
                engine.plan_cache.clear()
            t0 = time.perf_counter()
            result = engine.execute(expr)
            times.append((time.perf_counter() - t0) * 1000.0)
            if not result.ok or not np.array_equal(result.values, expected):
                raise AssertionError("compressed-intersect answered wrong")
        return float(np.median(times))

    entry: dict[str, Any] = {
        "kind": "compressed-intersect",
        "codec": COMPRESSED_CODEC,
        "universe": COMPRESSED_UNIVERSE,
        "long_n": int(long_list.size),
        "short_n": int(short_list.size),
        "iterations": iters,
    }
    with tempfile.TemporaryDirectory(prefix="repro-perfgate-") as td:
        build_store().save(Path(td) / "v3")
        for backing in ("inheap", "mapped"):
            store = (
                build_store()
                if backing == "inheap"
                else PostingStore.load(Path(td) / "v3")
            )
            compressed_engine = QueryEngine(store)
            decode_engine = QueryEngine(
                store,
                cache=DecodeCache(),
                cache_probes=True,
                compressed_ops=False,
            )
            # The counter contract behind the timings: the compressed arm
            # never materialises a leaf, the decode arm always does.
            probe = compressed_engine.execute(expr)
            if probe.compressed_ops == 0 or probe.decoded_ops != 0:
                raise AssertionError(
                    "compressed arm is not running in the compressed domain "
                    f"({probe.compressed_ops} compressed / "
                    f"{probe.decoded_ops} decoded ops)"
                )
            compressed_ms = p50_cold(compressed_engine)
            decode_ms = p50_cold(decode_engine)
            compressed_engine.close()
            decode_engine.close()
            speedup = decode_ms / compressed_ms if compressed_ms else None
            entry[f"{backing}_compressed_p50_ms"] = round(compressed_ms, 4)
            entry[f"{backing}_decode_p50_ms"] = round(decode_ms, 4)
            entry[f"{backing}_speedup"] = (
                round(speedup, 2) if speedup is not None else None
            )
            if speedup is not None and speedup < COMPRESSED_SPEEDUP_BOUND:
                # pragma: no cover - regression net
                raise AssertionError(
                    f"compressed-domain AND on the {backing} backing is only "
                    f"{speedup:.2f}x faster than decode-then-intersect "
                    f"(bound {COMPRESSED_SPEEDUP_BOUND}x) — the capability "
                    "protocol is no longer paying for itself"
                )
    return entry


def run_suite(quick: bool = False) -> dict:
    """Execute the pinned matrix; returns the JSON-able result document."""
    workloads: dict[str, dict] = {}
    for wl in DECODE_WORKLOADS:
        workloads[wl.name] = _measure_decode(wl, quick)
    workloads["served-closed-loop"] = _measure_served(quick)
    workloads["mapped-cold-open"] = _measure_mapped_open(quick)
    workloads["compressed-intersect"] = _measure_compressed_intersect(quick)
    return {
        "schema": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "seed": SEED,
        "workloads": workloads,
    }


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
#: Which numeric fields of each workload entry the gate compares.
#: ``heap_peak_kb`` is KiB, not ms — the ratio gate is unit-agnostic and
#: pins the mapped open's committed RSS-proxy ceiling alongside its
#: latency.
_GATED_FIELDS = {
    "ms",
    "cold_p50_ms",
    "warm_p50_ms",
    "open_ms",
    "open_4x_ms",
    "heap_peak_kb",
    "inheap_compressed_p50_ms",
    "mapped_compressed_p50_ms",
}


@dataclass(frozen=True)
class GateFinding:
    """One compared metric: ``ratio = current / baseline`` (higher=slower)."""

    metric: str
    baseline_ms: float
    current_ms: float

    @property
    def ratio(self) -> float:
        return self.current_ms / self.baseline_ms if self.baseline_ms else 1.0

    def status(self, warn: float = WARN_RATIO, fail: float = FAIL_RATIO) -> str:
        if self.ratio > fail:
            return "fail"
        if self.ratio > warn:
            return "warn"
        return "ok"


def compare(results: dict, baseline: dict) -> list[GateFinding]:
    """Pair every gated metric present in both documents.

    Metrics missing from either side are skipped (new workloads enter
    the gate on the next ``update``); modes never cross-compare because
    the caller selects the baseline section by mode.
    """
    findings: list[GateFinding] = []
    base_wl = baseline.get("workloads", {})
    for name, entry in results.get("workloads", {}).items():
        base_entry = base_wl.get(name)
        if not isinstance(base_entry, dict):
            continue
        for field in sorted(_GATED_FIELDS & entry.keys() & base_entry.keys()):
            cur, base = entry[field], base_entry[field]
            if isinstance(cur, (int, float)) and isinstance(base, (int, float)):
                findings.append(GateFinding(f"{name}.{field}", float(base), float(cur)))
    return findings


def _load_baseline(path: Path, mode: str) -> dict | None:
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    section = doc.get(mode)
    return section if isinstance(section, dict) else None


def _store_baseline(path: Path, results: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[results["mode"]] = results
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf_gate", description=__doc__
    )
    parser.add_argument(
        "command",
        choices=("run", "check", "update"),
        help="run: measure + print/save; check: compare against baseline; "
        "update: measure + rewrite the baseline section for this mode",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="baseline JSON path"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write results JSON here"
    )
    parser.add_argument("--warn", type=float, default=WARN_RATIO)
    parser.add_argument("--fail", type=float, default=FAIL_RATIO)
    args = parser.parse_args(argv)

    results = run_suite(quick=args.quick)
    if args.output is not None:
        args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")

    if args.command == "update":
        _store_baseline(args.baseline, results)
        print(f"baseline[{results['mode']}] updated in {args.baseline}")
        return 0

    for name, entry in results["workloads"].items():
        if entry["kind"] == "decode":
            speedup = entry["speedup_vs_scalar"]
            extra = f"  {speedup}x vs scalar" if speedup is not None else ""
            print(f"  {name:<20}{entry['ms']:>10.2f} ms{extra}")
        elif entry["kind"] == "compressed-intersect":
            print(
                f"  {name:<20}"
                f"in-heap {entry['inheap_compressed_p50_ms']:.3f} ms "
                f"({entry['inheap_speedup']}x vs decode), "
                f"mapped {entry['mapped_compressed_p50_ms']:.3f} ms "
                f"({entry['mapped_speedup']}x vs decode)"
            )
        elif entry["kind"] == "mapped-open":
            print(
                f"  {name:<20}open {entry['open_ms']:.3f} ms "
                f"({entry['flatness_ratio']}x at {MAPPED_FLATNESS_FACTOR}x terms), "
                f"heap peak {entry['heap_peak_kb']:.0f} KiB"
            )
        else:
            print(
                f"  {name:<20}cold p50 {entry['cold_p50_ms']:.3f} ms, "
                f"warm p50 {entry['warm_p50_ms']:.3f} ms "
                f"({entry['speedup_warm_vs_cold']}x)"
            )

    if args.command == "run":
        return 0

    baseline = _load_baseline(args.baseline, results["mode"])
    if baseline is None:
        print(
            f"no '{results['mode']}' baseline in {args.baseline}; "
            "run the 'update' command to create one",
            file=sys.stderr,
        )
        return 0  # warn-only: a missing baseline must not block CI
    findings = compare(results, baseline)
    worst = "ok"
    for f in findings:
        status = f.status(args.warn, args.fail)
        if status != "ok":
            unit = "KiB" if f.metric.endswith("_kb") else "ms"
            print(
                f"{status.upper()}: {f.metric} {f.baseline_ms:.3f} -> "
                f"{f.current_ms:.3f} {unit} ({f.ratio:.2f}x)",
                file=sys.stderr,
            )
        if status == "fail" or (status == "warn" and worst == "ok"):
            worst = status
    if worst == "fail":
        print(f"perf gate FAILED (> {args.fail}x regression)", file=sys.stderr)
        return 1
    print(f"perf gate ok ({len(findings)} metrics, worst status: {worst})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
