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

from repro.api.errors import ShardMapStaleError
from repro.cluster.shardmap import ShardMap
from repro.server.client import StoreClient
from repro.server.protocol import SHARDMAP_VERSION_HEADER


class RouterClient(StoreClient):
    """A :class:`StoreClient` that pins and refreshes the shard map."""

    def __init__(self, host: str, port: int, **kwargs) -> None:
        super().__init__(host, port, **kwargs)
        self.map: ShardMap | None = None

    def fetch_shardmap(self) -> ShardMap:
        """``GET /shardmap``: fetch, pin, and return the current map."""
        self.map = ShardMap.from_json(self._call("GET", "/shardmap")[1])
        return self.map

    @property
    def pinned_version(self) -> int | None:
        return self.map.version if self.map is not None else None

    def _post_query(self, body: dict, headers: dict[str, str]) -> dict:
        """``POST /query`` pinned to the cached shard-map version.

        On 410 (stale map) the map is refetched and the request replayed
        once under the new version; a second 410 — the topology is
        churning faster than we can follow — raises
        :class:`ShardMapStaleError` (``retryable=True``).
        """
        for _replay in range(2):
            version = (self.map or self.fetch_shardmap()).version
            status, parsed = self._call(
                "POST",
                "/query",
                body,
                {**headers, SHARDMAP_VERSION_HEADER: str(version)},
                answers=(200, 500, 410),
            )
            if status != 410:
                return parsed
            self.fetch_shardmap()
        raise ShardMapStaleError(
            str(parsed.get("error", "shard map stale")),
            current_version=parsed.get("current_version"),
        )
