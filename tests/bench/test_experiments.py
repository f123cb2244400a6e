"""Tiny-scale integration runs of every experiment function.

These do not check timings — only that each experiment covers the right
codecs and workloads and produces well-formed rows, so the full-scale
reproduction cannot silently drop a codec or panel.
"""

import math

import pytest

from repro import all_codec_names
from repro.bench import experiments as ex

FAST = ["Roaring", "WAH", "VB", "SIMDBP128*", "List"]


def codecs_of(rows):
    return {r.codec for r in rows}


def workloads_of(rows):
    return {r.workload for r in rows}


def test_experiment_registry_covers_every_table_and_figure():
    assert set(ex.EXPERIMENTS) == {
        "fig3", "tab1", "tab2", "tab3", "fig4", "fig5", "fig6", "fig7",
        "fig8", "fig9", "fig10", "fig11", "fig12",
    }


def test_figure3_panels():
    rows = ex.figure3(codecs=FAST, sizes=(100, 1_000), domain=2**16, repeat=1)
    assert codecs_of(rows) == set(FAST)
    assert workloads_of(rows) == {
        f"{d}/{s}" for d in ("uniform", "zipf", "markov") for s in ("100", "1K")
    }
    for row in rows:
        assert row.decompress_ms >= 0
        assert row.space_bytes > 0


def test_table1_intersection_only():
    rows = ex.table1(codecs=FAST, sizes=(1_000,), domain=2**16, repeat=1)
    for row in rows:
        assert row.intersect_ms >= 0
        assert math.isnan(row.union_ms)


def test_table2_union_only():
    rows = ex.table2(codecs=FAST, sizes=(1_000,), domain=2**16, repeat=1)
    for row in rows:
        assert row.union_ms >= 0
        assert math.isnan(row.intersect_ms)


def test_table3_ratio_panels():
    rows = ex.table3(codecs=FAST, long_size=1_000, domain=2**16, repeat=1)
    assert workloads_of(rows) == {
        f"{d}/θ={t}" for d in ("uniform", "zipf", "markov") for t in (1, 10)
    }


def test_figure4_ssb():
    rows = ex.figure4(codecs=FAST, scale_factors=(1,), scale=0.001, repeat=1)
    assert workloads_of(rows) == {
        "Q1.1/SF=1", "Q2.1/SF=1", "Q3.4/SF=1", "Q4.1/SF=1"
    }


def test_figure5_tpch():
    rows = ex.figure5(codecs=FAST, scale_factors=(1,), scale=0.001, repeat=1)
    assert workloads_of(rows) == {"Q6/SF=1", "Q12/SF=1"}


def test_figure6_web():
    rows = ex.figure6(codecs=FAST, n_docs=5_000, n_queries=4, repeat=1)
    assert len(rows) == len(FAST)
    for row in rows:
        assert row.intersect_ms >= 0
        assert row.union_ms >= 0
        assert row.space_bytes > 0


def test_figure7_skip_toggle():
    rows = ex.figure7(codecs=("VB", "PforDelta"), long_size=1_000, repeat=1)
    assert workloads_of(rows) == {
        f"{d}/{s}" for d in ("uniform", "zipf") for s in ("skips", "noskips")
    }
    by_key = {(r.codec, r.workload): r for r in rows}
    for codec in ("VB", "PforDelta"):
        for dist in ("uniform", "zipf"):
            with_skips = by_key[(codec, f"{dist}/skips")]
            without = by_key[(codec, f"{dist}/noskips")]
            assert with_skips.space_bytes > without.space_bytes


@pytest.mark.parametrize("fn", [ex.figure9, ex.figure11, ex.figure12])
def test_two_list_dataset_figures(fn):
    rows = fn(codecs=FAST, repeat=1)
    assert workloads_of(rows) == {"Q1", "Q2"}
    assert codecs_of(rows) == set(FAST)


def test_default_codec_coverage_is_full_registry():
    rows = ex.figure12(repeat=1)
    assert codecs_of(rows) == set(all_codec_names())

