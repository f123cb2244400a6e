"""Network serving layer: JSON-over-HTTP access to a posting store.

The store's :class:`~repro.store.engine.QueryEngine` is an in-process
API; this package puts it behind a socket with the three properties a
shared service needs and a library call doesn't:

* **admission control** — a bounded pending queue; requests beyond it
  are shed immediately with 503 + ``Retry-After`` instead of queueing
  unboundedly (:mod:`repro.server.admission`);
* **deadline propagation** — the client's per-request deadline header
  becomes the engine's cooperative deadline, so a slow shard produces a
  ``partial`` response, not a stalled server (:mod:`repro.server.app`);
* **observability** — ``/metrics`` serves the engine's StoreMetrics
  snapshot extended with server-side counters and request-latency
  histograms (:mod:`repro.server.metrics`).

Underneath sit :mod:`repro.server.protocol` (the JSON bodies),
:mod:`repro.server.http` (every byte of HTTP/1.1 the repo speaks: the
connection loop and route table :class:`StoreServer` and the cluster
router both subclass, and the async exchange the router fans out over)
and :mod:`repro.server.client` (the blocking keep-alive client with
retry and the one backoff schedule).

Quickstart (see ``docs/serving.md`` for the wire protocol)::

    from repro.api import connect
    from repro.server import BackgroundServer, StoreServer
    from repro.store import And, PostingStore, QueryEngine

    engine = QueryEngine(store)
    with BackgroundServer(StoreServer(engine)) as server:
        with connect(f"http://127.0.0.1:{server.port}") as client:
            response = client.query(And("news", "2024"), deadline_ms=100)
            print(response.status, response.n_results)

(:class:`StoreClient` is the transport class behind that target;
:func:`repro.api.connect` is the entrypoint.)

Or from a shell::

    python -m repro.server --port 8080 &
    curl -s localhost:8080/query -H 'X-Repro-Deadline-Ms: 100' \\
         -d '{"v": 2, "query": {"op": "term", "name": "t001"}}'
"""

from repro.server.admission import AdmissionController
from repro.server.app import StoreServer
from repro.server.client import (
    QueryRejectedError,
    ServerUnavailableError,
    StoreClient,
)
from repro.server.http import BackgroundServer
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    DEADLINE_HEADER,
    ProtocolError,
    QueryRequest,
    QueryResponse,
)

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "DEADLINE_HEADER",
    "ProtocolError",
    "QueryRejectedError",
    "QueryRequest",
    "QueryResponse",
    "ServerMetrics",
    "ServerUnavailableError",
    "StoreClient",
    "StoreServer",
]
