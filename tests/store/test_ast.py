"""The typed query AST: construction, JSON round-trip, tuple rejection."""

import json

import numpy as np
import pytest

from repro.store import (
    And,
    Or,
    PostingStore,
    QueryEngine,
    Term,
    parse_query,
    query_from_json,
    query_terms,
)


def _engine() -> QueryEngine:
    store = PostingStore()
    shard = store.create_shard("s0", codec="Roaring", universe=1_000)
    shard.add("a", np.arange(0, 1_000, 2))
    shard.add("b", np.arange(0, 1_000, 3))
    shard.add("c", np.arange(0, 1_000, 5))
    return QueryEngine(store)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_nodes_are_frozen_and_hashable():
    node = And(Or("a", "b"), "c")
    assert node == And(Or(Term("a"), Term("b")), Term("c"))
    assert len({node, And(Or("a", "b"), "c")}) == 1
    with pytest.raises(AttributeError):
        node.children = ()


def test_strings_coerce_to_terms():
    node = And("a", Or("b", "c"))
    assert node.children[0] == Term("a")
    assert node.children[1].children == (Term("b"), Term("c"))


def test_empty_nodes_rejected():
    with pytest.raises(ValueError, match="empty 'and'"):
        And()
    with pytest.raises(ValueError, match="empty 'or'"):
        Or()


def test_bad_children_rejected_with_hint():
    with pytest.raises(TypeError, match="Term/And/Or"):
        And(("or", "a", "b"), "c")  # raw tuples are not query nodes
    with pytest.raises(ValueError, match="non-empty string"):
        Term("")


# ----------------------------------------------------------------------
# parse_query
# ----------------------------------------------------------------------
def test_parse_query_passthrough_and_string_coercion():
    node = And("a", "b")
    assert parse_query(node) is node
    assert parse_query("a") == Term("a")


def test_parse_query_rejects_legacy_tuples():
    with pytest.raises(TypeError, match="nested-tuple"):
        parse_query(("and", ("or", "a", "b"), "c"))


def test_parse_query_rejects_non_queries():
    with pytest.raises(TypeError, match="not a query expression"):
        parse_query(42)


def test_query_terms_accepts_ast():
    assert query_terms(And(Or("b", "a"), "b", "c")) == ["b", "a", "c"]


# ----------------------------------------------------------------------
# JSON round-trip (the HTTP wire format)
# ----------------------------------------------------------------------
def test_to_json_from_json_round_trip():
    node = And(Or("news", "sports"), "2024")
    wire = json.loads(json.dumps(node.to_json()))  # through real JSON
    assert query_from_json(wire) == node


def test_from_json_accepts_bare_string():
    assert query_from_json("news") == Term("news")


@pytest.mark.parametrize(
    "bad",
    [
        {"op": "xor", "children": []},
        {"op": "and", "children": []},
        {"op": "and"},
        {"op": "term"},
        {"op": "term", "name": 7},
        [1, 2],
        7,
    ],
)
def test_from_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        query_from_json(bad)


# ----------------------------------------------------------------------
# End-to-end equivalence: AST and legacy tuples produce identical results
# ----------------------------------------------------------------------
def test_engine_rejects_legacy_tuple_as_failed_result():
    # Malformed queries degrade to a failed result, never a crash.
    engine = _engine()
    result = engine.execute(("and", ("or", "a", "b"), "c"))
    assert result.status == "failed"
    assert "nested-tuple" in result.error


def test_engine_batch_rejects_legacy_tuples():
    """Same failed result as ``execute`` gives a tuple — in its own
    slot, with the rest of the batch served."""
    engine = _engine()
    bad, good = engine.execute_batch([("and", "a", "b"), And("a", "c")])
    assert bad.status == "failed" and "nested-tuple" in bad.error
    assert good.ok, good.error
