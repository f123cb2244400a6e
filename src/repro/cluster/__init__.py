"""Distributed serving: scatter-gather routing over StoreServer backends.

The pieces, bottom-up:

* :mod:`repro.cluster.shardmap` — versioned consistent-hash placement
  of shards over replicated backends;
* :mod:`repro.cluster.router` — the :class:`ClusterRouter` front-end:
  hedged reads, replica failover, admission-aware routing, follower
  replication with bounded staleness.  It is a
  :class:`repro.server.http.JsonHttpServer` like the server it fronts,
  and fans out over that module's per-backend keep-alive pool
  (:class:`~repro.server.http.BackendConnections`: a connection is
  reused only after a complete response, so hedged losers still cancel
  by closing their socket);
* :mod:`repro.cluster.client` — :class:`RouterClient`, a shard-map-
  pinning client that handles the 410-refetch dance.

The router speaks the standard wire protocol, so the portable way in is
``repro.api.connect("http://router-host:port")``; everything here is
for operating the cluster itself (``python -m repro.cluster``) or for
shard-aware callers.

Error discipline: this package raises **only** from the unified
:mod:`repro.api.errors` tree (analyzer rule REPRO108), because the
retry/hedging machinery dispatches on the tree's ``retryable`` bit —
an off-tree exception would silently disable failover for that path.
"""

from repro.cluster.client import RouterClient
from repro.cluster.metrics import RouterMetrics
from repro.cluster.router import ClusterRouter
from repro.cluster.shardmap import Backend, ShardMap

__all__ = [
    "Backend",
    "ClusterRouter",
    "RouterClient",
    "RouterMetrics",
    "ShardMap",
]
