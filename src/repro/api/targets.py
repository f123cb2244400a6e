"""``connect()``: one chokepoint, one protocol, three deployment shapes.

:func:`connect` is the only way to get "something I can query": it
accepts a *target* — a store directory, an ``http://host:port`` URL
(single server **or** cluster router; they speak the same wire
protocol), or an already-built :class:`QueryEngine` — and returns a
:class:`QueryTarget`, a uniform four-method surface::

    with api.connect("/data/index") as t:          # local store
        r = t.query(api.And("news", "2024"))
    with api.connect("http://10.0.0.5:8080") as t:  # server or cluster
        r = t.query(api.And("news", "2024"))

``query()`` always returns a wire-shaped
:class:`~repro.server.protocol.QueryResponse` — same status taxonomy,
same ``values`` list — so results are bit-identical across deployment
shapes and code written against a local store moves to a cluster by
changing only the target string.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable
from urllib.parse import urlsplit

from repro.api.errors import QueryRejectedError
from repro.server.client import StoreClient
from repro.server.protocol import (
    IngestRequest,
    IngestResponse,
    QueryResponse,
    apply_ingest,
    response_from_result,
)
from repro.store.cache import DecodeCache
from repro.store.engine import QueryEngine
from repro.store.plan import Query, QueryLike, parse_query
from repro.store.segments import WritablePostingStore
from repro.store.store import PostingStore

#: (op, shard, term, values) rows, exactly what ``ingest_batch`` takes.
IngestOps = Sequence[tuple[str, str, str, Sequence[int]]]


@runtime_checkable
class QueryTarget(Protocol):
    """What :func:`connect` returns: the uniform serving surface.

    Implementations: :class:`LocalTarget` (in-process engine),
    :class:`RemoteTarget` (HTTP client against a server or a cluster
    router).  All are context managers; ``close()`` is idempotent.
    """

    def query(
        self,
        query: QueryLike,
        *,
        shards: Sequence[str] | None = None,
        query_id: str = "",
        strict: bool = False,
        deadline_ms: float | None = None,
    ) -> QueryResponse: ...

    def ingest(self, ops: IngestOps, *, batch_id: str = "") -> IngestResponse: ...

    def metrics(self) -> dict: ...

    def close(self) -> None: ...

    def __enter__(self) -> "QueryTarget": ...

    def __exit__(self, *exc: object) -> None: ...


class LocalTarget:
    """A :class:`QueryTarget` over an in-process :class:`QueryEngine`.

    The engine stays reachable as ``target.engine`` for callers that
    need the richer in-process API (``execute_batch``, ``explain``,
    ``engine.store``); the four protocol methods are the portable
    subset.
    """

    def __init__(self, engine: QueryEngine, *, owns_engine: bool = True) -> None:
        self.engine = engine
        self._owns_engine = owns_engine
        self._closed = False

    def query(
        self,
        query: QueryLike,
        *,
        shards: Sequence[str] | None = None,
        query_id: str = "",
        strict: bool = False,
        deadline_ms: float | None = None,
    ) -> QueryResponse:
        result = self.engine.execute(
            Query(
                expression=parse_query(query),
                shards=tuple(shards) if shards is not None else None,
                query_id=query_id,
            ),
            timeout_s=deadline_ms / 1000.0 if deadline_ms is not None else None,
        )
        return response_from_result(result, strict=strict)

    def ingest(self, ops: IngestOps, *, batch_id: str = "") -> IngestResponse:
        """Durable local ingest, mirroring the server's ``/ingest`` contract.

        Read-only stores raise the same error class a server answers 400
        with; execution failures come back as a ``failed`` response, not
        an exception — exactly what a remote caller would see.
        """
        store = self.engine.store
        if not isinstance(store, WritablePostingStore):
            raise QueryRejectedError("store is read-only; connect with writable=True")
        return apply_ingest(store, IngestRequest.from_ops(ops, batch_id))

    def metrics(self) -> dict:
        return self.engine.metrics.snapshot()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            store = self.engine.store
            self.engine.close()
            if isinstance(store, WritablePostingStore):
                store.close()

    def __enter__(self) -> "LocalTarget":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RemoteTarget:
    """A :class:`QueryTarget` over HTTP — single server or cluster router.

    The underlying transport stays reachable as ``target.client`` for
    callers that need per-request knobs beyond the protocol surface.
    """

    def __init__(self, client: StoreClient) -> None:
        self.client = client

    def query(
        self,
        query: QueryLike,
        *,
        shards: Sequence[str] | None = None,
        query_id: str = "",
        strict: bool = False,
        deadline_ms: float | None = None,
    ) -> QueryResponse:
        return self.client.query(
            query,
            shards=shards,
            query_id=query_id,
            strict=strict,
            deadline_ms=deadline_ms,
        )

    def ingest(self, ops: IngestOps, *, batch_id: str = "") -> IngestResponse:
        return self.client.ingest(ops, batch_id=batch_id)

    def metrics(self) -> dict:
        return self.client.metrics()

    def healthz(self) -> dict:
        """Remote-only extra (not in :class:`QueryTarget`): ``GET /healthz``."""
        return self.client.healthz()

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteTarget":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def build_engine(
    directory: str,
    *,
    strict: bool = True,
    cache_entries: int = 256,
    max_workers: int = 4,
    timeout_s: float | None = None,
    writable: bool = False,
    compact_interval_s: float = 0.0,
) -> QueryEngine:
    """Load a saved store into a ready engine — :func:`connect`'s local path.

    Args:
        directory: a directory written by :meth:`PostingStore.save`.
        strict: raise :class:`ShardLoadError` on the first corrupt list
            (default), or load leniently and serve degraded (queries
            touching lost terms come back ``partial``).
        cache_entries: decode-cache size; ``0`` disables caching.
        max_workers: batch worker-pool width.
        timeout_s: default per-query deadline (``None`` = unbounded).
        writable: open as a :class:`WritablePostingStore` instead —
            creates the directory if absent, replays any WAL left by a
            crash, and accepts ``target.ingest(...)``.  Closing the
            target seals pending writes into compressed segments.
        compact_interval_s: with ``writable``, start the background
            compaction thread at this period (``0`` keeps compaction
            manual: ``target.engine.store.compact()``).
    """
    store: PostingStore
    if writable:
        wstore = WritablePostingStore.open(directory, strict=strict)
        if compact_interval_s > 0:
            wstore.start_compactor(compact_interval_s)
        store = wstore
    else:
        store = PostingStore.load(directory, strict=strict)
    cache = DecodeCache(max_entries=cache_entries) if cache_entries else None
    return QueryEngine(
        store, cache=cache, max_workers=max_workers, timeout_s=timeout_s
    )


#: connect() kwargs honoured per target kind, so a typo'd or misplaced
#: option fails fast instead of being silently dropped.
_LOCAL_KWARGS = frozenset(
    (
        "strict",
        "cache_entries",
        "max_workers",
        "timeout_s",
        "writable",
        "compact_interval_s",
    )
)
_REMOTE_KWARGS = frozenset(
    (
        "timeout_s",
        "max_retries",
        "backoff_base_s",
        "backoff_cap_s",
        "sleep",
        "rng",
    )
)


def _check_kwargs(kind: str, given: dict, allowed: frozenset) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise TypeError(
            f"connect() got unexpected option(s) for a {kind} target: "
            f"{', '.join(unknown)} (accepted: {', '.join(sorted(allowed))})"
        )


def connect(target: "str | QueryEngine", **options) -> QueryTarget:
    """Open a uniform :class:`QueryTarget` over *target*.

    Args:
        target: one of

            * a **directory path** written by :meth:`PostingStore.save` —
              returns a :class:`LocalTarget`; accepts the engine options
              ``strict`` / ``cache_entries`` / ``max_workers`` /
              ``timeout_s`` / ``writable`` / ``compact_interval_s``
              (see :func:`build_engine`); a legacy v1/v2 directory
              raises :class:`StoreError` naming the migrate command;
            * an ``http://host:port`` **URL** — returns a
              :class:`RemoteTarget`; works identically against a single
              :class:`~repro.server.app.StoreServer` and a
              :class:`~repro.cluster.router.ClusterRouter` (same wire
              protocol); accepts the client options ``timeout_s`` /
              ``max_retries`` / ``backoff_base_s`` / ``backoff_cap_s`` /
              ``sleep`` / ``rng``;
            * an existing :class:`QueryEngine` — wrapped without taking
              ownership (closing the target does not close your engine).

    Returns:
        A :class:`QueryTarget`; use as a context manager.
    """
    if isinstance(target, QueryEngine):
        _check_kwargs("engine", options, frozenset())
        return LocalTarget(target, owns_engine=False)
    if not isinstance(target, str):
        raise TypeError(
            f"connect() target must be a path, an http:// URL, or a "
            f"QueryEngine, got {type(target).__name__}"
        )
    if target.startswith(("http://", "https://")):
        parts = urlsplit(target)
        if parts.scheme != "http":
            raise ValueError(
                f"connect() speaks plain http:// (got {parts.scheme}://); "
                "terminate TLS in front of the server"
            )
        if parts.hostname is None or parts.port is None:
            raise ValueError(
                f"connect() needs an explicit host:port, got {target!r}"
            )
        _check_kwargs("remote", options, _REMOTE_KWARGS)
        return RemoteTarget(StoreClient(parts.hostname, parts.port, **options))
    _check_kwargs("local", options, _LOCAL_KWARGS)
    return LocalTarget(build_engine(target, **options), owns_engine=True)
