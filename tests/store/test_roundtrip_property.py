"""Property-based write-path round trips (hypothesis).

One invariant, many codecs: for an arbitrary interleaved stream of
append/delete batches, the store must agree bit for bit with a plain
sorted-set oracle at every observation point —

* live, through the delta overlay (no compaction yet);
* after a simulated crash (WAL replay, no ``close()``);
* after compaction folds the deltas into compressed segments;
* after a final read-only ``PostingStore.load`` of the directory;
* after that loaded store is saved back over its own directory.

Codecs sweep the registry (plus ``Adaptive``), so every representation's
compress/decompress sits under the same churn.  Every writer
(``compact`` / ``close`` / ``save``) is also held to the format census:
manifest version 3, one ``.rpro3`` per shard, no per-term ``.rpro``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import all_codec_names
from repro.store.engine import QueryEngine
from repro.store.plan import Term
from repro.store.segments import WritablePostingStore
from repro.store.store import PostingStore
from repro.store.wal import OP_ADD, OP_DELETE

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Small universe keeps bitmap group arrays cheap across examples.
UNIVERSE = 1 << 12
TERMS = ("alpha", "beta", "gamma")


@st.composite
def op_streams(draw):
    """Batches of (op, term, values) — deletes may target absent ids."""
    n_batches = draw(st.integers(1, 4))
    batches = []
    for _ in range(n_batches):
        n_ops = draw(st.integers(1, 5))
        ops = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from([OP_ADD, OP_ADD, OP_DELETE]))
            term = draw(st.sampled_from(TERMS))
            values = draw(
                st.lists(
                    st.integers(0, UNIVERSE - 1),
                    min_size=1,
                    max_size=40,
                    unique=True,
                )
            )
            ops.append((kind, term, values))
        batches.append(ops)
    return batches


def _oracle(batches):
    state: dict[str, set] = {t: set() for t in TERMS}
    for ops in batches:
        for kind, term, values in ops:
            if kind == OP_ADD:
                state[term].update(values)
            else:
                state[term].difference_update(values)
    return {t: sorted(v) for t, v in state.items()}


def _assert_format_census(directory, label):
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["version"] == 3, label
    assert not list(directory.rglob("*.rpro")), label
    assert len(list(directory.rglob("*.rpro3"))) == len(manifest["shards"]), label


def _assert_matches(store, oracle, label):
    engine = QueryEngine(store)
    for term in TERMS:
        result = engine.execute(Term(term))
        assert result.ok, f"{label}/{term}: {result.status} {result.error}"
        got = result.values.tolist()
        assert got == oracle[term], f"{label}/{term}"


@pytest.mark.parametrize("codec", sorted(all_codec_names()) + ["Adaptive"])
@given(batches=op_streams())
@SETTINGS
def test_ingest_replay_compact_roundtrip(codec, batches, tmp_path_factory):
    if codec == "List":
        # The uncompressed baseline is the overlay's own wrapper codec;
        # it still participates via every other codec's run.
        pytest.skip("List is the overlay representation itself")
    tmp = tmp_path_factory.mktemp("prop")
    oracle = _oracle(batches)

    store = WritablePostingStore.open(tmp, fsync=False)
    store.create_shard("s0", codec=codec, universe=UNIVERSE)
    for ops in batches:
        store.ingest_batch(
            [(kind, "s0", term, values) for kind, term, values in ops]
        )
    _assert_matches(store, oracle, "live-delta")

    # Simulated crash: abandon without close(), reopen replays the WAL.
    del store
    recovered = WritablePostingStore.open(tmp, fsync=False)
    _assert_matches(recovered, oracle, "wal-replay")

    recovered.compact()
    assert recovered.shard("s0").pending_ops() == 0
    _assert_matches(recovered, oracle, "compacted")
    _assert_format_census(tmp, "compacted")
    recovered.close()
    _assert_format_census(tmp, "closed")

    readonly = PostingStore.load(tmp)
    _assert_matches(readonly, oracle, "readonly-reload")

    # Re-saving over the directory the store is mapped from must not
    # tear the segment under its own reader.
    readonly.save(tmp)
    _assert_format_census(tmp, "re-saved")
    _assert_matches(PostingStore.load(tmp), oracle, "re-saved-reload")
