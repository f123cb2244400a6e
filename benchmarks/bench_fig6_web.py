"""Figure 6 — Web query log: mean intersection and union over the log.

Full version (larger corpus + log): ``python -m repro.bench fig6``.
"""

import pytest

from repro import all_codec_names, get_codec
from repro.bench.harness import build_expression
from repro.datasets import web_workload
from repro.ops.expressions import evaluate

_N_DOCS = 100_000
_QUERIES = web_workload(n_docs=_N_DOCS, n_queries=10, rng=20170514)
_CACHE: dict = {}


def _prepared(codec_name: str):
    if codec_name not in _CACHE:
        codec = get_codec(codec_name)
        per_list: dict = {}

        def compress(lst):
            if id(lst) not in per_list:
                per_list[id(lst)] = codec.compress(lst, universe=_N_DOCS)
            return per_list[id(lst)]

        prepared = []
        for q in _QUERIES:
            sets = [compress(lst) for lst in q.lists]
            prepared.append((build_expression(q, sets), sets))
        _CACHE[codec_name] = (codec, prepared)
    return _CACHE[codec_name]


@pytest.mark.parametrize("codec_name", all_codec_names())
def test_web_intersection_log(benchmark, codec_name):
    codec, prepared = _prepared(codec_name)

    def run_log():
        for expr, _ in prepared:
            evaluate(expr, compressed=False)

    benchmark(run_log)


@pytest.mark.parametrize("codec_name", all_codec_names())
def test_web_union_log(benchmark, codec_name):
    codec, prepared = _prepared(codec_name)

    def run_log():
        for _, sets in prepared:
            codec.union_many(sets)

    benchmark(run_log)
