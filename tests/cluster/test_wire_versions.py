"""Envelope versioning at the router boundary.

The router speaks the one supported wire version, like the server it
fronts; anything else — the retired v1 included — is a 400.  Shard-map
version skew rides a separate channel — the pin header — and resolves
via 410 + refetch.
"""

import json

import pytest

from repro.api.errors import QueryRejectedError, ShardMapStaleError
from repro.cluster import RouterClient
from repro.server.protocol import (
    SHARDMAP_VERSION_HEADER,
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
)

from tests.conftest import _raw_request


@pytest.mark.parametrize("version", sorted(SUPPORTED_WIRE_VERSIONS))
def test_router_accepts_every_supported_envelope(cluster_factory, version):
    cluster = cluster_factory(n_backends=2, replication=2)
    body = json.dumps({"v": version, "query": "a"}).encode()
    status, _headers, payload = _raw_request(
        cluster.port, "POST", "/query", body
    )
    assert status == 200
    parsed = json.loads(payload)
    assert parsed["status"] == "ok"
    assert parsed["values"]


@pytest.mark.parametrize(
    "body",
    [
        {"query": "a"},
        {"v": 99, "query": "a"},
        {"v": "2", "query": "a"},
        {"v": 1, "query": "a"},
    ],
    ids=["missing-v", "unknown-major", "string-v", "previous-major"],
)
def test_bad_envelopes_get_400_from_the_router(cluster_factory, body):
    cluster = cluster_factory(n_backends=2, replication=1)
    status, _headers, payload = _raw_request(
        cluster.port, "POST", "/query", json.dumps(body).encode()
    )
    assert status == 400
    error = json.loads(payload)["error"]
    assert f"v{WIRE_VERSION}" in error


def test_previous_major_ingest_gets_400_from_the_router(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=1)
    body = {"v": 1, "ops": [{"op": "add", "shard": "s0", "term": "a", "values": [1]}]}
    status, _headers, payload = _raw_request(
        cluster.port, "POST", "/ingest", json.dumps(body).encode()
    )
    assert status == 400
    assert "unsupported wire version 1" in json.loads(payload)["error"]


def test_shardmap_endpoint_serves_version_header(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2)
    status, headers, payload = _raw_request(cluster.port, "GET", "/shardmap")
    assert status == 200
    assert headers.get(SHARDMAP_VERSION_HEADER) == "1"
    parsed = json.loads(payload)
    assert parsed["version"] == 1
    assert {b["id"] for b in parsed["backends"]} == {"b0", "b1"}


def test_stale_pin_gets_410_with_current_version(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2)
    body = json.dumps({"v": 2, "query": "a"}).encode()
    status, headers, payload = _raw_request(
        cluster.port, "POST", "/query", body,
        headers=((SHARDMAP_VERSION_HEADER, "99"),),
    )
    assert status == 410
    parsed = json.loads(payload)
    assert parsed["current_version"] == 1
    assert headers.get(SHARDMAP_VERSION_HEADER) == "1"
    assert cluster.router.metrics.stale_map_rejects == 1


def test_garbled_pin_header_is_a_400_not_a_crash(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=1)
    body = json.dumps({"v": 2, "query": "a"}).encode()
    status, _headers, _payload = _raw_request(
        cluster.port, "POST", "/query", body,
        headers=((SHARDMAP_VERSION_HEADER, "banana"),),
    )
    assert status == 400


def test_router_client_refetches_once_on_topology_change(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2)
    with RouterClient("127.0.0.1", cluster.port) as client:
        assert client.fetch_shardmap().version == 1
        # Topology changes underneath the pinned client.
        cluster.router.map = cluster.router.map.with_backends(
            cluster.router.map.backends
        )
        response = client.query("a")
        assert response.status == "ok"
        assert client.pinned_version == 2
    assert cluster.router.metrics.stale_map_rejects == 1


def test_router_client_gives_up_after_the_replay(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=2)
    with RouterClient("127.0.0.1", cluster.port) as client:
        client.fetch_shardmap()
        original_fetch = client.fetch_shardmap

        def churning_fetch():
            shardmap = original_fetch()
            # The topology moves again the instant we refetched.
            cluster.router.map = cluster.router.map.with_backends(
                cluster.router.map.backends
            )
            return shardmap

        client.fetch_shardmap = churning_fetch
        cluster.router.map = cluster.router.map.with_backends(
            cluster.router.map.backends
        )
        with pytest.raises(ShardMapStaleError) as excinfo:
            client.query("a")
    assert excinfo.value.retryable is True
    # The error reports the version current when the replay was refused
    # (v3); the churning fixture has already moved the router to v4.
    assert excinfo.value.current_version == 3
    assert cluster.router.map.version == 4
    assert cluster.router.metrics.stale_map_rejects == 2


def test_bad_query_is_rejected_through_the_router_client(cluster_factory):
    cluster = cluster_factory(n_backends=2, replication=1)
    with RouterClient("127.0.0.1", cluster.port) as client:
        with pytest.raises(QueryRejectedError):
            client.query("a", shards=["nope"])
