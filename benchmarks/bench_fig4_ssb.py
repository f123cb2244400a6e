"""Figure 4 — SSB queries (Q1.1 dense intersection, Q3.4 sparse mixed).

Full grid (4 queries × SF 1/10/100): ``python -m repro.bench fig4``.
"""

import pytest

from repro import all_codec_names, get_codec
from repro.bench.harness import build_expression
from repro.datasets import ssb_query
from repro.ops.expressions import evaluate

_QUERIES = {
    name: ssb_query(name, scale_factor=1, scale=0.01, rng=20170514)
    for name in ("Q1.1", "Q3.4")
}
_SETS: dict = {}


def _expression(codec_name: str, qname: str):
    key = (codec_name, qname)
    if key not in _SETS:
        codec = get_codec(codec_name)
        query = _QUERIES[qname]
        sets = [codec.compress(lst, universe=query.domain) for lst in query.lists]
        _SETS[key] = (build_expression(query, sets), sets)
    return _SETS[key]


@pytest.mark.parametrize("codec_name", all_codec_names())
def test_ssb_q11(benchmark, codec_name):
    expr, sets = _expression(codec_name, "Q1.1")
    benchmark.extra_info["space_bytes"] = sum(cs.size_bytes for cs in sets)
    benchmark(evaluate, expr, compressed=False)


@pytest.mark.parametrize("codec_name", all_codec_names())
def test_ssb_q34(benchmark, codec_name):
    expr, sets = _expression(codec_name, "Q3.4")
    benchmark.extra_info["space_bytes"] = sum(cs.size_bytes for cs in sets)
    benchmark(evaluate, expr, compressed=False)
