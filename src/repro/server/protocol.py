"""Wire protocol for the HTTP serving layer.

One JSON request/response pair, spoken by :mod:`repro.server.app` and
:mod:`repro.server.client` (framed by :mod:`repro.server.http`) and
documented in ``docs/serving.md``.  The
query itself travels as the typed AST's JSON form
(:meth:`repro.store.plan.Term.to_json` et al.); a bare string is
accepted as single-term shorthand.

Request body (``POST /query``)::

    {
      "v": 2,
      "query": {"op": "and", "children": [{"op": "term", "name": "news"},
                                          {"op": "term", "name": "2024"}]},
      "shards": ["s0", "s1"],        # optional, default: every shard
      "query_id": "q-17",            # optional, echoed back
      "strict": false                # optional: degraded result => failed
    }

Response body (mirrors :meth:`repro.store.engine.QueryResult.as_dict`,
plus the decoded values)::

    {
      "status": "ok" | "partial" | "timed_out" | "failed",
      "values": [2, 5, 10, ...],     # null when the query failed outright
      "n_results": 3,
      "latency_ms": 1.84,
      "partial": false, "timed_out": false, "error": null,
      "shards_queried": 2, "failed_shards": [], "degraded_terms": [],
      "query_id": "q-17"
    }

Ingest body (``POST /ingest``, writable stores only)::

    {
      "v": 2,
      "ops": [{"op": "add", "shard": "s0", "term": "news", "values": [3, 17]},
              {"op": "del", "shard": "s0", "term": "news", "values": [17]}],
      "batch_id": "b-42"             # optional, echoed back
    }

Both bodies carry a versioned envelope, ``"v": 2``.  A request with any
other version — or with *no* ``v`` field at all — is answered 400
(release note in docs/serving.md).

The per-request deadline travels in the :data:`DEADLINE_HEADER` header
(milliseconds); a shed request answers 503 with a ``Retry-After``
header (seconds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.store.engine import QueryResult
from repro.store.plan import Query, QueryNode, query_from_json
from repro.store.segments import WritablePostingStore
from repro.store.wal import OP_ADD, OP_DELETE

#: Client-requested deadline for one query, in milliseconds.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Shard-map version a cluster-aware client pins its requests to.  The
#: router answers HTTP 410 (Gone) when the pinned version lags its
#: current map — the client must refetch ``GET /shardmap`` and re-send.
#: Requests without the header are version-agnostic and always routed
#: under the current map.
SHARDMAP_VERSION_HEADER = "X-Repro-Shardmap-Version"

#: Upper bound on accepted request bodies (a query AST, not a payload).
MAX_BODY_BYTES = 1 << 20

#: Current wire-envelope major version, sent as ``"v"`` in request
#: bodies.
WIRE_VERSION = 2

#: Versions this server answers; the ``v`` field is mandatory.
SUPPORTED_WIRE_VERSIONS = frozenset({WIRE_VERSION})


class ProtocolError(ReproError, ValueError):
    """A request the server cannot interpret (answered with HTTP 400)."""


def check_envelope(body: object) -> None:
    """Reject request bodies with a missing or unknown envelope version.

    Raises :class:`ProtocolError` (→ HTTP 400) unless ``body["v"]`` is
    one of :data:`SUPPORTED_WIRE_VERSIONS`.
    """
    if not isinstance(body, dict):
        return  # shape errors are reported by the request parser
    version = body.get("v")
    if version is None:
        raise ProtocolError(
            "request body is missing the wire version field 'v'; "
            f"this server speaks v{WIRE_VERSION}"
        )
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or version not in SUPPORTED_WIRE_VERSIONS
    ):
        raise ProtocolError(
            f"unsupported wire version {version!r}; this server speaks "
            f"v{WIRE_VERSION}"
        )


@dataclass(frozen=True)
class QueryRequest:
    """A parsed ``/query`` request body."""

    query: QueryNode
    shards: tuple[str, ...] | None = None
    query_id: str = ""
    strict: bool = False

    @classmethod
    def from_body(cls, body: object) -> "QueryRequest":
        """Validate and parse a decoded JSON request body."""
        if not isinstance(body, dict):
            raise ProtocolError(f"request body must be a JSON object, got {type(body).__name__}")
        check_envelope(body)
        if "query" not in body:
            raise ProtocolError("request body is missing 'query'")
        try:
            query = query_from_json(body["query"])
        except ValueError as exc:
            raise ProtocolError(f"bad query: {exc}") from exc
        shards = body.get("shards")
        if shards is not None:
            if not isinstance(shards, list) or not all(
                isinstance(s, str) for s in shards
            ):
                raise ProtocolError("'shards' must be a list of shard names")
            shards = tuple(shards)
        query_id = body.get("query_id", "")
        if not isinstance(query_id, str):
            raise ProtocolError("'query_id' must be a string")
        strict = body.get("strict", False)
        if not isinstance(strict, bool):
            raise ProtocolError("'strict' must be a boolean")
        return cls(query=query, shards=shards, query_id=query_id, strict=strict)

    def to_body(self) -> dict:
        """The JSON body the client sends."""
        out: dict = {"v": WIRE_VERSION, "query": self.query.to_json()}
        if self.shards is not None:
            out["shards"] = list(self.shards)
        if self.query_id:
            out["query_id"] = self.query_id
        if self.strict:
            out["strict"] = True
        return out

    def to_query(self) -> Query:
        return Query(
            expression=self.query, shards=self.shards, query_id=self.query_id
        )


@dataclass(frozen=True)
class QueryResponse:
    """A parsed ``/query`` response body (both directions)."""

    status: str
    values: list[int] | None
    n_results: int | None
    latency_ms: float
    partial: bool = False
    timed_out: bool = False
    error: str | None = None
    shards_queried: int = 0
    failed_shards: tuple[str, ...] = ()
    degraded_terms: tuple[str, ...] = ()
    query_id: str = ""
    #: Server-side annotations (e.g. strict-mode escalation note).
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_body(self) -> dict:
        out = {
            "status": self.status,
            "values": self.values,
            "n_results": self.n_results,
            "latency_ms": round(self.latency_ms, 4),
            "partial": self.partial,
            "timed_out": self.timed_out,
            "error": self.error,
            "shards_queried": self.shards_queried,
            "failed_shards": list(self.failed_shards),
            "degraded_terms": list(self.degraded_terms),
            "query_id": self.query_id,
        }
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_body(cls, body: object) -> "QueryResponse":
        if not isinstance(body, dict) or "status" not in body:
            raise ProtocolError("malformed query response body")
        return cls(
            status=body["status"],
            values=body.get("values"),
            n_results=body.get("n_results"),
            latency_ms=float(body.get("latency_ms", 0.0)),
            partial=bool(body.get("partial", False)),
            timed_out=bool(body.get("timed_out", False)),
            error=body.get("error"),
            shards_queried=int(body.get("shards_queried", 0)),
            failed_shards=tuple(body.get("failed_shards", ())),
            degraded_terms=tuple(body.get("degraded_terms", ())),
            query_id=body.get("query_id", ""),
            detail=body.get("detail", {}),
        )


#: Cap on ops per ingest batch — one WAL sync covers the whole batch,
#: so unbounded batches would stretch the acknowledgement barrier.
MAX_INGEST_OPS = 10_000

_INGEST_OPS = (OP_ADD, OP_DELETE)


@dataclass(frozen=True)
class IngestRequest:
    """A parsed ``/ingest`` request body.

    ``ops`` is a tuple of ``(op, shard, term, values)`` — the exact
    shape :meth:`WritablePostingStore.ingest_batch` takes, so the
    handler applies it without reshaping.
    """

    ops: tuple[tuple[str, str, str, list[int]], ...]
    batch_id: str = ""

    @classmethod
    def from_ops(cls, ops, batch_id: str = "") -> "IngestRequest":
        """From caller-side ``(op, shard, term, values)`` rows; values may
        be any int sequence (numpy arrays, ranges)."""
        return cls(
            ops=tuple(
                (kind, shard, term, [int(v) for v in values])
                for kind, shard, term, values in ops
            ),
            batch_id=batch_id,
        )

    @classmethod
    def from_body(cls, body: object) -> "IngestRequest":
        if not isinstance(body, dict):
            raise ProtocolError(f"request body must be a JSON object, got {type(body).__name__}")
        check_envelope(body)
        raw = body.get("ops")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("ingest body needs a non-empty 'ops' list")
        if len(raw) > MAX_INGEST_OPS:
            raise ProtocolError(
                f"ingest batch of {len(raw)} ops exceeds the {MAX_INGEST_OPS} cap"
            )
        ops = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ProtocolError(f"ops[{i}] must be an object")
            kind = item.get("op")
            if kind not in _INGEST_OPS:
                raise ProtocolError(
                    f"ops[{i}].op must be one of {list(_INGEST_OPS)}, got {kind!r}"
                )
            shard = item.get("shard")
            term = item.get("term")
            if not isinstance(shard, str) or not shard:
                raise ProtocolError(f"ops[{i}].shard must be a non-empty string")
            if not isinstance(term, str) or not term:
                raise ProtocolError(f"ops[{i}].term must be a non-empty string")
            values = item.get("values")
            if (
                not isinstance(values, list)
                or not values
                or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values)
            ):
                raise ProtocolError(
                    f"ops[{i}].values must be a non-empty list of non-negative ints"
                )
            ops.append((kind, shard, term, values))
        batch_id = body.get("batch_id", "")
        if not isinstance(batch_id, str):
            raise ProtocolError("'batch_id' must be a string")
        return cls(ops=tuple(ops), batch_id=batch_id)

    def to_body(self) -> dict:
        out: dict = {
            "v": WIRE_VERSION,
            "ops": [
                {"op": kind, "shard": shard, "term": term, "values": list(values)}
                for kind, shard, term, values in self.ops
            ],
        }
        if self.batch_id:
            out["batch_id"] = self.batch_id
        return out


@dataclass(frozen=True)
class IngestResponse:
    """A parsed ``/ingest`` response body (both directions).

    ``status == "ok"`` means the batch is *durable*: its WAL records
    were fsynced before the response was written.
    """

    status: str
    acked_ops: int
    latency_ms: float
    pending_ops: int = 0
    generation: int = 0
    error: str | None = None
    batch_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_body(self) -> dict:
        return {
            "status": self.status,
            "acked_ops": self.acked_ops,
            "latency_ms": round(self.latency_ms, 4),
            "pending_ops": self.pending_ops,
            "generation": self.generation,
            "error": self.error,
            "batch_id": self.batch_id,
        }

    @classmethod
    def from_body(cls, body: object) -> "IngestResponse":
        if not isinstance(body, dict) or "status" not in body:
            raise ProtocolError("malformed ingest response body")
        return cls(
            status=body["status"],
            acked_ops=int(body.get("acked_ops", 0)),
            latency_ms=float(body.get("latency_ms", 0.0)),
            pending_ops=int(body.get("pending_ops", 0)),
            generation=int(body.get("generation", 0)),
            error=body.get("error"),
            batch_id=body.get("batch_id", ""),
        )


def response_from_result(
    result: QueryResult, *, strict: bool = False
) -> QueryResponse:
    """Convert an engine result to the wire response.

    With ``strict=True`` any degraded outcome (partial / timed out) is
    escalated to ``failed`` — the server-side mirror of the store CLI's
    ``--strict`` exit-code policy.
    """
    status = result.status
    detail: dict = {}
    if strict and status not in ("ok", "failed"):
        detail["strict_violation"] = status
        status = "failed"
    values = result.values.tolist() if result.values is not None else None
    return QueryResponse(
        status=status,
        values=values,
        n_results=int(result.values.size) if result.values is not None else None,
        latency_ms=result.latency_ms,
        partial=result.partial,
        timed_out=result.timed_out,
        error=result.error,
        shards_queried=result.shards_queried,
        failed_shards=result.failed_shards,
        degraded_terms=result.degraded_terms,
        query_id=result.query_id,
        detail=detail,
    )


def apply_ingest(
    store: WritablePostingStore, request: IngestRequest, t0: float | None = None
) -> IngestResponse:
    """Apply one batch durably and describe the outcome — the ``/ingest``
    contract, shared by the server's worker job and ``LocalTarget``.

    Blocks until the WAL fsync, so an ``ok`` response is a durability
    claim.  Execution failures (unknown shard, closed store, WAL error)
    travel in the response status, never as an exception.  ``t0`` is the
    ``time.monotonic()`` arrival instant ``latency_ms`` counts from
    (default: now).
    """
    if t0 is None:
        t0 = time.monotonic()
    try:
        acked = store.ingest_batch(request.ops)
    except Exception as exc:  # repro: noqa[REPRO106] -- bad shard, closed store, WAL error: answer failed, keep serving other writers
        return IngestResponse(
            status="failed",
            acked_ops=0,
            latency_ms=(time.monotonic() - t0) * 1000.0,
            generation=store.generation,
            error=f"{type(exc).__name__}: {exc}",
            batch_id=request.batch_id,
        )
    return IngestResponse(
        status="ok",
        acked_ops=acked,
        latency_ms=(time.monotonic() - t0) * 1000.0,
        pending_ops=store.pending_ops(),
        generation=store.generation,
        batch_id=request.batch_id,
    )


def abandoned_response(query_id: str, latency_ms: float) -> QueryResponse:
    """The response for a request abandoned past its deadline grace."""
    return QueryResponse(
        status="timed_out",
        values=None,
        n_results=None,
        latency_ms=latency_ms,
        partial=True,
        timed_out=True,
        error="query abandoned after deadline",
        query_id=query_id,
    )


#: HTTP status per response status, for executed queries: degraded
#: results are still successful HTTP exchanges; only an outright failed
#: query maps to a server error.
HTTP_STATUS_FOR = {"ok": 200, "partial": 200, "timed_out": 200, "failed": 500}
