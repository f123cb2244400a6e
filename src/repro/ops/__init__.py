"""Query operations over compressed sets (paper Section 4.3, Appendix B).

* :func:`svs_intersect` — the SvS k-list intersection used throughout the
  study (decompress the shortest list, probe the rest via skip pointers).
* :func:`merge_union` — decompress-then-merge k-way union.
* :mod:`repro.ops.expressions` — boolean expression trees for the
  SSB/TPCH query shapes such as ``(L1 ∪ L2) ∩ (L3 ∪ L4) ∩ L5``, and
  :func:`evaluate`, the one cache- and capability-aware walk over them
  (the paper benches call it directly; served queries reach it through
  ``ShardPlan.execute``).
"""

from repro.ops.expressions import (
    And,
    ExecStats,
    Leaf,
    Or,
    QueryExpression,
    and_order,
    evaluate,
    or_partition,
)
from repro.ops.intersection import merge_intersect, svs_intersect
from repro.ops.topk import ScoredPostingList, idf_weight, topk_conjunctive
from repro.ops.union import merge_union

__all__ = [
    "svs_intersect",
    "merge_intersect",
    "merge_union",
    "QueryExpression",
    "And",
    "Or",
    "Leaf",
    "evaluate",
    "ExecStats",
    "and_order",
    "or_partition",
    "ScoredPostingList",
    "topk_conjunctive",
    "idf_weight",
]
