"""Blocking HTTP client for :mod:`repro.server`, with retry + backoff.

Built on :class:`http.client.HTTPConnection` (stdlib) with connection
reuse: one ``StoreClient`` holds one keep-alive connection and replays
requests over it, reconnecting transparently when the server or an
intermediary drops it.

Retry policy — the part worth getting right:

* **Retryable**: 503 (the server shed the request), socket timeouts,
  and connection errors.  These mean "the server is overloaded or
  unreachable *right now*"; the client backs off and retries up to
  ``max_retries`` times, then raises :class:`ServerUnavailableError`.
* **Not retryable**: 400 (the request itself is malformed — retrying
  re-sends the same bad bytes) raises :class:`QueryRejectedError`
  immediately.  500 responses carry a parseable failed
  :class:`QueryResponse` and are *returned*, not raised: an executed
  query that failed is an answer, and retrying it would re-run a query
  the server already reported as failing.

Backoff for attempt *n* (0-based) is **full jitter** over a capped
exponential ceiling: ``uniform(0, min(cap, base * 2**n))``, raised to
the server's ``Retry-After`` hint when one is present (the hint is a
floor the client never undercuts, itself capped at ``backoff_cap_s``).
Deterministic capped-exponential — what this client shipped first —
synchronises retry storms: every client shed by the same overloaded
server sleeps the *same* schedule and re-arrives in the same wave,
which a single server shrugs off but a router multiplying one logical
request into N backend requests amplifies fleet-wide.  Full jitter
(AWS architecture-blog folklore, and measurably best-in-class for
contended retries) decorrelates the waves.  A malformed or absent
``Retry-After`` header falls back to the jittered backoff (a proxy
mangling a header must never crash the client).  The *sum* of backoff
sleeps is additionally bounded by ``timeout_s``: each sleep is clamped
to the remaining budget, and when the budget is exhausted the client
stops retrying instead of backing off past the caller's deadline (each
attempt itself is already bounded by the per-attempt socket timeout).
Both the sleep function and the jitter RNG are injectable so tests
assert exact schedules without waiting them out.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Callable, Sequence

from repro.core.errors import ReproError
from repro.server.protocol import (
    DEADLINE_HEADER,
    IngestRequest,
    IngestResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
)
from repro.store.plan import QueryLike, parse_query


class ServerUnavailableError(ReproError):
    """Retries exhausted: every attempt was shed, timed out, or refused.

    ``retryable``: the failure is environmental (overload, network), so a
    *later* identical request may succeed — this is the error the cluster
    router's replica-failover and hedging logic treats as "try the other
    replica".
    """

    retryable = True

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


class QueryRejectedError(ReproError, ValueError):
    """The server answered 400: the request is malformed, don't retry."""


def full_jitter_backoff_s(
    attempt: int,
    *,
    base_s: float,
    cap_s: float,
    rng: random.Random,
    retry_after_s: float | None = None,
) -> float:
    """Full-jitter backoff before retry ``attempt`` (0-based): uniform
    over ``[0, min(cap, base * 2**attempt)]``, floored at the (capped)
    ``Retry-After`` hint.  The one retry schedule in the repo — this
    client's and the cluster router's follower shipping; the module
    docstring argues why it is jittered.
    """
    delay = rng.uniform(0.0, min(cap_s, base_s * (2**attempt)))
    if retry_after_s is not None:
        delay = max(delay, min(cap_s, retry_after_s))
    return delay


class StoreClient:
    """A connection-reusing client for one server endpoint.

    Args:
        host / port: server address.
        timeout_s: socket timeout per attempt (connect + response).
        max_retries: retries *after* the first attempt for retryable
            failures (503 / timeout / connection error).
        backoff_base_s: backoff *ceiling* for the first retry; the
            ceiling doubles per attempt and each sleep is drawn
            uniformly from ``[0, ceiling]`` (full jitter).
        backoff_cap_s: backoff ceiling cap.
        sleep: injectable sleep for tests.
        rng: injectable jitter source (``random.Random``); seed one for
            deterministic backoff schedules in tests.

    The transport behind :func:`repro.api.connect`
    (``api.connect("http://host:port").client``), which is the public
    entrypoint and returns the uniform
    :class:`~repro.api.targets.QueryTarget` surface.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 10.0,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport with retry
    # ------------------------------------------------------------------
    def backoff_s(self, attempt: int, retry_after_s: float | None = None) -> float:
        """:func:`full_jitter_backoff_s` under this client's base / cap / rng."""
        return full_jitter_backoff_s(
            attempt,
            base_s=self.backoff_base_s,
            cap_s=self.backoff_cap_s,
            rng=self._rng,
            retry_after_s=retry_after_s,
        )

    @staticmethod
    def _parse_retry_after(resp_headers: dict[str, str]) -> float | None:
        """A usable ``Retry-After`` seconds value, or None.

        Absent, non-numeric, non-finite, or negative values all mean
        "no hint" — the computed exponential backoff applies.  (RFC 7231
        also allows an HTTP-date here; those parse as "no hint" too and
        fall back to the exponential schedule.)
        """
        raw = resp_headers.get("retry-after")
        if raw is None:
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            return None
        if value != value or value in (float("inf"), float("-inf")) or value < 0:
            return None
        return value

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round trip with connection reuse, retry, and backoff.

        The per-attempt socket timeout bounds each try; the sleep
        budget below bounds the *sum* of the backoff sleeps between
        tries, so backoff alone can never exceed ``timeout_s``.
        """
        attempts = self.max_retries + 1
        last_failure = "no attempt made"
        sleep_budget = self.timeout_s if self.timeout_s is not None else None
        slept = 0.0
        made = 0
        for attempt in range(attempts):
            made = attempt + 1
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers or {})
                resp = conn.getresponse()
                payload = resp.read()
                resp_headers = {k.lower(): v for k, v in resp.getheaders()}
            except (socket.timeout, TimeoutError) as exc:
                self._drop_connection()
                last_failure = f"timeout: {exc or 'socket timeout'}"
                retry_after = None
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                self._drop_connection()
                last_failure = f"{type(exc).__name__}: {exc}"
                retry_after = None
            else:
                if resp.status != 503:
                    return resp.status, resp_headers, payload
                last_failure = "503: server shed the request"
                retry_after = self._parse_retry_after(resp_headers)
            if attempt + 1 < attempts:
                delay = self.backoff_s(attempt, retry_after)
                if sleep_budget is not None:
                    remaining = sleep_budget - slept
                    if remaining <= 0:
                        last_failure += " (retry budget exhausted)"
                        break
                    delay = min(delay, remaining)
                self._sleep(delay)
                slept += delay
        raise ServerUnavailableError(
            f"{method} {path} failed after {made} attempts "
            f"(last: {last_failure})",
            attempts=made,
        )

    def _call(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
        *,
        answers: tuple[int, ...] = (200,),
    ) -> tuple[int, dict]:
        """One JSON round trip: ``(status, parsed_body)``.

        The single place HTTP statuses become the
        :mod:`repro.api.errors` tree: 400 raises
        :class:`QueryRejectedError`, anything not in ``answers`` (and a
        non-JSON body) raises :class:`ProtocolError`; 503 never gets
        here — :meth:`_request` retries it into
        :class:`ServerUnavailableError`.
        """
        raw = None
        if body is not None:
            raw = json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json", **(headers or {})}
        status, _resp_headers, payload = self._request(method, path, raw, headers)
        try:
            parsed = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"server sent a non-JSON body for {method} {path}: {exc}"
            ) from exc
        if status == 400:
            raise QueryRejectedError(
                str(parsed.get("error", f"server rejected {method} {path}"))
            )
        if status not in answers:
            raise ProtocolError(f"unexpected HTTP {status} from {path}: {parsed!r}")
        return status, parsed

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def query(
        self,
        query: QueryLike,
        *,
        shards: Sequence[str] | None = None,
        query_id: str = "",
        strict: bool = False,
        deadline_ms: float | None = None,
    ) -> QueryResponse:
        """Execute one query; returns the parsed response (any status).

        Accepts the same query forms as the engine — AST nodes and bare
        term strings — and serialises the normalised AST onto the wire.
        """
        request = QueryRequest(
            query=parse_query(query),
            shards=tuple(shards) if shards is not None else None,
            query_id=query_id,
            strict=strict,
        )
        headers = {}
        if deadline_ms is not None:
            headers[DEADLINE_HEADER] = f"{deadline_ms:g}"
        return QueryResponse.from_body(self._post_query(request.to_body(), headers))

    def _post_query(self, body: dict, headers: dict[str, str]) -> dict:
        """``POST /query``; a 500 carries a failed response and is an answer."""
        return self._call("POST", "/query", body, headers, answers=(200, 500))[1]

    def ingest(
        self,
        ops: Sequence[tuple[str, str, str, Sequence[int]]],
        *,
        batch_id: str = "",
    ) -> IngestResponse:
        """Send one durable write batch; returns the parsed response.

        ``ops`` entries are ``(op, shard, term, values)`` with op
        ``"add"`` or ``"del"``.  A 200 response means the batch is on
        disk (WAL fsynced) server-side.  Retry caution: a batch whose
        *response* was lost (timeout, dropped connection) may still have
        been acked and applied — the retry re-applies it, which is
        harmless here because both ops are idempotent set operations,
        but callers tracking exact op counts should use ``batch_id`` to
        correlate.
        """
        request = IngestRequest.from_ops(ops, batch_id)
        return IngestResponse.from_body(
            self._call("POST", "/ingest", request.to_body(), answers=(200, 500))[1]
        )

    def healthz(self) -> dict:
        return self._call("GET", "/healthz")[1]

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")[1]
