"""The repro.api facade: one import covers the common paths.

``connect()`` is the serving entrypoint under test here: dispatch to
local / engine / remote targets, option validation, and the absence of
the removed ``open_store`` / ``mapped=`` surface.  The three-way
bit-identity check (local store vs single server vs cluster router)
lives in ``tests/cluster/test_bit_identity.py``.
"""

import warnings

import numpy as np
import pytest

from repro import api


def test_compress_decompress_round_trip():
    values = np.array([2, 5, 10, 100, 65_536])
    cs = api.compress(values)
    assert cs.codec_name == api.DEFAULT_CODEC
    assert np.array_equal(api.decompress(cs), values)


def test_compress_accepts_codec_name_and_plain_sequences():
    cs = api.compress([1, 5, 9], codec="WAH")
    assert cs.codec_name == "WAH"
    assert list(api.decompress(cs)) == [1, 5, 9]


def test_intersect_and_union():
    a = api.compress(np.arange(0, 1_000, 2))
    b = api.compress(np.arange(0, 1_000, 3))
    assert np.array_equal(api.intersect(a, b), np.arange(0, 1_000, 6))
    expected = np.union1d(np.arange(0, 1_000, 2), np.arange(0, 1_000, 3))
    assert np.array_equal(api.union(a, b), expected)


def _save_demo_store(path):
    store = api.PostingStore()
    shard = store.create_shard("s0", codec="Roaring", universe=1_000)
    shard.add("news", np.arange(0, 1_000, 2))
    shard.add("sports", np.arange(0, 1_000, 3))
    store.save(path)


def test_connect_local_round_trip(tmp_path):
    _save_demo_store(tmp_path / "index")
    with api.connect(str(tmp_path / "index")) as target:
        assert isinstance(target, api.LocalTarget)
        assert isinstance(target, api.QueryTarget)  # runtime protocol
        response = target.query(api.And("news", "sports"))
    assert response.status == "ok"
    assert response.values == list(range(0, 1_000, 6))


def test_connect_missing_directory_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        api.connect(str(tmp_path / "absent"))


def test_connect_wraps_existing_engine_without_owning_it(tmp_path):
    _save_demo_store(tmp_path / "index")
    engine = api.QueryEngine(api.PostingStore.load(tmp_path / "index"))
    with api.connect(engine) as target:
        assert target.engine is engine
        assert target.query("news").status == "ok"
    # closing the target must not close the caller's engine
    assert engine.execute("news").ok
    engine.close()


def test_connect_rejects_unknown_and_misplaced_options(tmp_path):
    _save_demo_store(tmp_path / "index")
    with pytest.raises(TypeError, match="unexpected option"):
        api.connect(str(tmp_path / "index"), max_retries=3)  # remote-only
    with pytest.raises(TypeError, match="unexpected option"):
        api.connect("http://127.0.0.1:1", writable=True)  # local-only
    with pytest.raises(TypeError, match="path, an http:// URL"):
        api.connect(12345)
    with pytest.raises(ValueError, match="plain http"):
        api.connect("https://127.0.0.1:8080")
    with pytest.raises(ValueError, match="host:port"):
        api.connect("http://localhost")


def test_connect_writable_ingests_and_reopens_readonly(tmp_path):
    with api.connect(str(tmp_path / "idx"), writable=True) as writer:
        assert isinstance(writer.engine.store, api.WritablePostingStore)
        writer.engine.store.create_shard("s0", codec="Roaring", universe=1_000)
        resp = writer.ingest(
            [("add", "s0", "news", [2, 4, 8]), ("del", "s0", "news", [4])]
        )
        assert resp.status == "ok"
        assert resp.acked_ops == 2
        assert writer.query("news").values == [2, 8]
    # context exit sealed deltas into compressed segments
    with api.connect(str(tmp_path / "idx")) as reader:
        assert not isinstance(reader.engine.store, api.WritablePostingStore)
        assert reader.query("news").values == [2, 8]
        with pytest.raises(api.QueryRejectedError, match="read-only"):
            reader.ingest([("add", "s0", "t", [1])])


def test_connect_writable_with_background_compactor(tmp_path):
    with api.connect(
        str(tmp_path / "idx"), writable=True, compact_interval_s=0.01
    ) as target:
        store = target.engine.store
        store.create_shard("s0", codec="Adaptive", universe=1_000)
        store.append("s0", "t", list(range(100)))
        for _ in range(500):
            if store.shard("s0").pending_ops() == 0:
                break
            import time

            time.sleep(0.01)
        assert store.shard("s0").pending_ops() == 0
        assert target.query("t").values == list(range(100))


# ----------------------------------------------------------------------
# One entrypoint
# ----------------------------------------------------------------------
def test_open_store_and_mapped_option_are_removed(tmp_path):
    assert not hasattr(api, "open_store")
    assert "open_store" not in api.__all__
    _save_demo_store(tmp_path / "index")
    with pytest.raises(TypeError, match="mapped"):
        api.connect(str(tmp_path / "index"), mapped=True)


def test_connect_does_not_warn(tmp_path):
    _save_demo_store(tmp_path / "index")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with api.connect(str(tmp_path / "index")) as target:
            target.query("news")


def test_error_hierarchy_is_rooted_at_repro_error():
    for exc in (
        api.CodecError,
        api.InvalidInputError,
        api.CorruptPayloadError,
        api.DomainOverflowError,
        api.UnknownCodecError,
        api.StoreError,
        api.ShardLoadError,
        api.UnknownShardError,
        api.ProtocolError,
        api.QueryRejectedError,
        api.ServerUnavailableError,
        api.ClusterError,
        api.ShardMapError,
        api.ShardMapStaleError,
        api.BackendUnavailableError,
        api.NoReplicaAvailableError,
    ):
        assert issubclass(exc, api.ReproError)


def test_retryable_bit_partitions_the_tree():
    retryable = {
        api.ServerUnavailableError,
        api.ShardMapStaleError,
        api.BackendUnavailableError,
        api.NoReplicaAvailableError,
    }
    for exc in retryable:
        assert exc.retryable is True
    for exc in (api.ReproError, api.CodecError, api.QueryRejectedError,
                api.ShardMapError, api.StoreError):
        assert exc.retryable is False
    assert api.is_retryable(api.ShardMapStaleError("stale"))
    assert not api.is_retryable(api.ShardMapError("bad map"))
    assert api.is_retryable(ConnectionResetError("peer"))  # transport-level
    assert api.is_retryable(TimeoutError())
    assert not api.is_retryable(ValueError("not transport, not repro"))


def test_bad_input_raises_facade_error():
    with pytest.raises(api.ReproError):
        api.compress(np.array([5, 3, 1]))  # not increasing
    with pytest.raises(api.UnknownCodecError):
        api.compress(np.array([1, 2]), codec="NoSuchCodec")


def test_all_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_query_ast_exports_compose():
    node = api.And(api.Or("a", "b"), api.Term("c"))
    assert api.parse_query(node) is node
    assert api.query_from_json(node.to_json()) == node


def test_codec_capabilities_lookup():
    caps = api.codec_capabilities("Roaring")
    assert isinstance(caps, frozenset)
    assert api.Capability.INTERSECT_COMPRESSED in caps
    assert api.Capability.RANK_SELECT_SKIP in api.codec_capabilities("PEF")
    assert api.Capability.INTERSECT_COMPRESSED not in api.codec_capabilities("PEF")
    with pytest.raises(api.UnknownCodecError):
        api.codec_capabilities("NoSuchCodec")
