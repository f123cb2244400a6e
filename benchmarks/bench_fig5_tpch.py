"""Figure 5 — TPCH Q6 and Q12.

Full grid (SF 1/10/100): ``python -m repro.bench fig5``.
"""

import pytest

from repro import all_codec_names, get_codec
from repro.bench.harness import build_expression
from repro.datasets import tpch_query
from repro.ops.expressions import evaluate

_QUERIES = {
    name: tpch_query(name, scale_factor=1, scale=0.01, rng=20170514)
    for name in ("Q6", "Q12")
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
@pytest.mark.parametrize("qname", ["Q6", "Q12"])
def test_tpch(benchmark, codec_name, qname):
    expr, sets = _expression(codec_name, qname)
    benchmark.extra_info["space_bytes"] = sum(cs.size_bytes for cs in sets)
    benchmark(evaluate, expr, compressed=False)
