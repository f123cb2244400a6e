"""Shard-map-aware client for a :class:`~repro.cluster.router.ClusterRouter`.

A plain :class:`~repro.server.client.StoreClient` (what
``repro.api.connect("http://router")`` returns) already works against a
router — it never pins a map version, so it is never told 410.
:class:`RouterClient` is for callers that *cache placement*: it fetches
the shard map once (``GET /shardmap``), pins every request to that
version via the
:data:`~repro.server.protocol.SHARDMAP_VERSION_HEADER` header, and when
the router answers **410 Gone** (the topology changed underneath it),
refetches the map and replays the request exactly once before
surfacing :class:`~repro.api.errors.ShardMapStaleError` to the caller.
"""

from __future__ import annotations

import json

from repro.api.errors import (
    ProtocolError,
    QueryRejectedError,
    ShardMapStaleError,
)
from repro.cluster.shardmap import ShardMap
from repro.server.client import StoreClient
from repro.server.protocol import (
    DEADLINE_HEADER,
    SHARDMAP_VERSION_HEADER,
    QueryRequest,
    QueryResponse,
)
from repro.store.plan import parse_query


class RouterClient(StoreClient):
    """A :class:`StoreClient` that pins and refreshes the shard map."""

    def __init__(self, host: str, port: int, **kwargs) -> None:
        super().__init__(host, port, **kwargs)
        self.map: ShardMap | None = None

    def fetch_shardmap(self) -> ShardMap:
        """``GET /shardmap``: fetch, pin, and return the current map."""
        status, _headers, parsed = self._request_json("GET", "/shardmap")
        if status != 200:
            raise ProtocolError(f"unexpected HTTP {status} from /shardmap")
        self.map = ShardMap.from_json(parsed)
        return self.map

    @property
    def pinned_version(self) -> int | None:
        return self.map.version if self.map is not None else None

    def query(
        self,
        query,
        *,
        shards=None,
        query_id: str = "",
        strict: bool = False,
        deadline_ms: float | None = None,
    ) -> QueryResponse:
        """One routed query, pinned to the cached shard-map version.

        On 410 (stale map) the map is refetched and the request replayed
        once under the new version; a second 410 — the topology is
        churning faster than we can follow — raises
        :class:`ShardMapStaleError` (``retryable=True``).
        """
        if self.map is None:
            self.fetch_shardmap()
        request = QueryRequest(
            query=parse_query(query),
            shards=tuple(shards) if shards is not None else None,
            query_id=query_id,
            strict=strict,
        )
        body = json.dumps(request.to_body()).encode("utf-8")
        for replay in range(2):
            headers = {"Content-Type": "application/json"}
            assert self.map is not None
            headers[SHARDMAP_VERSION_HEADER] = str(self.map.version)
            if deadline_ms is not None:
                headers[DEADLINE_HEADER] = f"{deadline_ms:g}"
            status, _resp_headers, parsed = self._request_json(
                "POST", "/query", body, headers
            )
            if status == 410:
                self.fetch_shardmap()
                if replay == 0:
                    continue
                raise ShardMapStaleError(
                    str(parsed.get("error", "shard map stale")),
                    current_version=parsed.get("current_version"),
                )
            if status == 400:
                raise QueryRejectedError(
                    str(parsed.get("error", "router rejected the request"))
                )
            if status not in (200, 500):
                raise ProtocolError(
                    f"unexpected HTTP {status} from /query: {parsed!r}"
                )
            return QueryResponse.from_body(parsed)
        return None  # pragma: no cover — loop always returns or raises
