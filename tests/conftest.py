"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import all_codec_names, bitmap_codec_names, get_codec, invlist_codec_names
from repro.ops import And, Or


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20170514)


def pytest_generate_tests(metafunc):
    """Parametrise tests that request codec-name fixtures over the full
    registry so a new codec is automatically enrolled in the generic
    suites."""
    if "codec_name" in metafunc.fixturenames:
        metafunc.parametrize("codec_name", all_codec_names())
    if "bitmap_name" in metafunc.fixturenames:
        metafunc.parametrize("bitmap_name", bitmap_codec_names())
    if "invlist_name" in metafunc.fixturenames:
        metafunc.parametrize("invlist_name", invlist_codec_names())


@pytest.fixture
def codec(codec_name):
    return get_codec(codec_name)


@pytest.fixture
def bitmap_codec(bitmap_name):
    return get_codec(bitmap_name)


@pytest.fixture
def invlist_codec(invlist_name):
    return get_codec(invlist_name)


def sorted_unique(rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    """Random sorted-unique posting list helper used across suites."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(domain, size=min(n, domain), replace=False)).astype(
        np.int64
    )


def _union(*arrays: np.ndarray) -> np.ndarray:
    return np.unique(np.concatenate(arrays)).astype(np.int64)


#: The tree shapes a served query compiles to, over operands a, b, c:
#: ``label -> (tree over three leaves, numpy oracle over three arrays)``.
QUERY_TREES = {
    "Or(a,b)": (lambda a, b, c: Or(a, b), lambda a, b, c: _union(a, b)),
    "Or(a,b,c)": (lambda a, b, c: Or(a, b, c), _union),
    "And(a,b)": (lambda a, b, c: And(a, b), lambda a, b, c: np.intersect1d(a, b)),
    "And(Or(a,b),c)": (
        lambda a, b, c: And(Or(a, b), c),
        lambda a, b, c: np.intersect1d(_union(a, b), c),
    ),
    "Or(And(a,b),c)": (
        lambda a, b, c: Or(And(a, b), c),
        lambda a, b, c: _union(np.intersect1d(a, b), c),
    ),
}


def _raw_request(port, method, path, body=b"", headers=()):
    """One HTTP exchange on a fresh connection: ``(status, headers, payload)``."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=dict(headers))
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def corrupt_term_payload(directory, shard: str, term: str) -> None:
    """Flip one byte inside *term*'s payload blob in a saved store's segment."""
    import json
    from pathlib import Path

    from repro.store.mapped import MappedSegment

    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    path = directory / manifest["shards"][shard]["segment"]
    segment = MappedSegment.open(path)
    blob = bytes(segment.raw_blob(segment.find(term)))
    segment.release()
    data = bytearray(path.read_bytes())
    data[data.index(blob) + len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
