"""Wire types: request/response parsing, strict escalation, status maps."""

import dataclasses
import json

import numpy as np
import pytest

from repro.server.protocol import (
    HTTP_STATUS_FOR,
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    abandoned_response,
    check_envelope,
    response_from_result,
)
from repro.store import And, Term
from repro.store.engine import QueryResult


# ----------------------------------------------------------------------
# QueryRequest
# ----------------------------------------------------------------------
def test_request_round_trip():
    request = QueryRequest(
        query=And("a", "b"), shards=("s0",), query_id="q1", strict=True
    )
    assert QueryRequest.from_body(request.to_body()) == request


def test_request_minimal_body():
    request = QueryRequest.from_body({"v": WIRE_VERSION, "query": "a"})
    assert request.query == Term("a")
    assert request.shards is None
    assert request.query_id == ""
    assert request.strict is False


def test_envelope_versioning():
    assert SUPPORTED_WIRE_VERSIONS == frozenset({WIRE_VERSION}) == frozenset({2})
    check_envelope({"v": WIRE_VERSION})  # the one accepted version passes silently
    with pytest.raises(ProtocolError, match="missing the wire version"):
        check_envelope({"query": "a"})
    for bad in (WIRE_VERSION + 1, 1, 0, True, "2"):
        with pytest.raises(ProtocolError):
            check_envelope({"v": bad})


@pytest.mark.parametrize(
    "body",
    [
        None,
        [],
        "a",
        {"v": WIRE_VERSION},  # missing query
        {"v": WIRE_VERSION, "query": {"op": "xor", "children": []}},
        {"v": WIRE_VERSION, "query": "a", "shards": "s0"},
        {"v": WIRE_VERSION, "query": "a", "shards": [1]},
        {"v": WIRE_VERSION, "query": "a", "query_id": 7},
        {"v": WIRE_VERSION, "query": "a", "strict": "yes"},
    ],
)
def test_request_rejects_malformed(body):
    with pytest.raises(ProtocolError):
        QueryRequest.from_body(body)


def test_request_to_query_carries_shards_and_id():
    request = QueryRequest(query=Term("a"), shards=("s1",), query_id="q9")
    query = request.to_query()
    assert query.expression == Term("a")
    assert query.shards == ("s1",)
    assert query.query_id == "q9"


# ----------------------------------------------------------------------
# QueryResponse
# ----------------------------------------------------------------------
def _result(**kwargs) -> QueryResult:
    defaults = dict(
        query_id="q1",
        values=np.array([1, 2, 3], dtype=np.int64),
        latency_ms=1.5,
        shards_queried=2,
    )
    defaults.update(kwargs)
    return QueryResult(**defaults)


def test_response_from_ok_result():
    response = response_from_result(_result())
    assert response.status == "ok" and response.ok
    assert response.values == [1, 2, 3]
    assert response.n_results == 3
    assert HTTP_STATUS_FOR[response.status] == 200


def test_response_round_trip_through_body():
    response = response_from_result(_result(partial=True, degraded_terms=("x",)))
    parsed = QueryResponse.from_body(response.to_body())
    assert parsed.status == "partial"
    assert parsed.degraded_terms == ("x",)
    assert parsed.values == [1, 2, 3]


def test_strict_escalates_degraded_to_failed():
    response = response_from_result(_result(partial=True), strict=True)
    assert response.status == "failed"
    assert response.detail["strict_violation"] == "partial"
    assert HTTP_STATUS_FOR[response.status] == 500


def test_strict_leaves_ok_alone():
    assert response_from_result(_result(), strict=True).status == "ok"


def test_failed_result_maps_to_500():
    response = response_from_result(
        _result(values=None, error="ValueError: nope")
    )
    assert response.status == "failed"
    assert response.values is None and response.n_results is None
    assert HTTP_STATUS_FOR[response.status] == 500


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)  # what the decode cache hands out
    return arr


@pytest.mark.parametrize(
    "values",
    [
        None,
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.array([0, 2**40, 2**40 + 1, 2**62], dtype=np.int64),
        _readonly([1, 5, 9]),
    ],
    ids=["none", "empty", "one", "ge-2^40", "read-only"],
)
def test_response_values_are_python_ints_and_same_json(values):
    """``tolist()`` must produce what the per-element ``int(v)`` loop did:
    a list of Python ints, so the JSON bytes on the wire do not move."""
    error = "ValueError: nope" if values is None else None
    response = response_from_result(_result(values=values, error=error))
    reference = None if values is None else [int(v) for v in values]
    assert response.values == reference
    if reference is not None:
        assert all(type(v) is int for v in response.values)
    expected = dataclasses.replace(response, values=reference)
    assert json.dumps(response.to_body()) == json.dumps(expected.to_body())


def test_abandoned_response_shape():
    response = abandoned_response("q7", 123.4)
    assert response.status == "timed_out"
    assert response.timed_out and response.partial
    assert response.query_id == "q7"
    assert HTTP_STATUS_FOR[response.status] == 200


def test_response_from_body_rejects_garbage():
    with pytest.raises(ProtocolError):
        QueryResponse.from_body({"no": "status"})
