"""Cache-aware decode entry point.

Every consumer that materialises a compressed set — the query engine,
the expression evaluator, the bench harness's served mode — funnels
through :func:`decode` instead of calling ``codec.decompress`` directly.
That one chokepoint is where the serving layer attaches its decode
cache (Roaring's design keeps containers decodable in isolation for the
same reason: reuse of decoded state is a first-class concern) and its
observability (per-codec decode counts and time).

The function itself stays dependency-free: caches and observers are
structural protocols, so :mod:`repro.core` does not import the store
package that implements them.
"""

from __future__ import annotations

import time
from typing import Hashable, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.base import CompressedIntegerSet, IntegerSetCodec
from repro.core.registry import get_codec

#: Cache keys are (shard, term, codec_name) triples in the store, but any
#: hashable value works — the decode layer never inspects them.
DecodeKey = Hashable


@runtime_checkable
class ArrayCache(Protocol):
    """Minimal cache surface :func:`decode` consults.

    ``get`` returns the cached decoded array or ``None``; ``put`` stores
    one.  :class:`repro.store.cache.DecodeCache` is the bounded LRU
    implementation; any mapping-like object with these two methods works.
    """

    def get(self, key: DecodeKey) -> Optional[np.ndarray]: ...

    def put(self, key: DecodeKey, values: np.ndarray) -> None: ...


@runtime_checkable
class DecodeObserver(Protocol):
    """Callback surface for decode accounting (implemented by
    :class:`repro.store.metrics.StoreMetrics`)."""

    def record_decode(self, codec_name: str, n: int, seconds: float) -> None: ...


class FlightTicket(Protocol):
    """One caller's handle on a coalesced decode (see
    :class:`repro.store.cache.DecodeFlight`)."""

    @property
    def leader(self) -> bool: ...

    def wait(self) -> Optional[np.ndarray]: ...

    def complete(self, values: np.ndarray) -> None: ...

    def abort(self) -> None: ...


@runtime_checkable
class CoalescingCache(Protocol):
    """Cache that additionally supports single-flight decode coalescing.

    ``begin_flight`` elects exactly one leader per key; concurrent
    callers for the same key block on the leader's ticket and share its
    result instead of stampeding the decoder.
    """

    def get(self, key: DecodeKey) -> Optional[np.ndarray]: ...

    def put(self, key: DecodeKey, values: np.ndarray) -> None: ...

    def begin_flight(self, key: DecodeKey) -> FlightTicket: ...


def decode(
    cs: CompressedIntegerSet,
    *,
    codec: IntegerSetCodec | None = None,
    cache: ArrayCache | None = None,
    key: DecodeKey | None = None,
    observer: DecodeObserver | None = None,
) -> np.ndarray:
    """Decompress *cs*, consulting *cache* under *key* when both are given.

    Args:
        cs: the compressed set.
        codec: explicit codec instance; defaults to a registry lookup on
            ``cs.codec_name``.  Unregistered wrapper codecs (e.g.
            :class:`repro.hybrid.AdaptiveCodec`) must be passed explicitly.
        cache: optional :class:`ArrayCache`; consulted and filled only
            when *key* is also provided.
        key: cache key identifying this set (the store uses
            ``(shard, term, codec_name)``).
        observer: optional accounting hook; sees only *actual* decodes,
            never cache hits.

    Returns:
        The decoded posting array.  Cached arrays are returned read-only
        (``writeable=False``) so one query cannot corrupt another's hit.

    A miss continues in :func:`decode_miss`.
    """
    if cache is not None and key is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    return decode_miss(cs, codec=codec, cache=cache, key=key, observer=observer)


def decode_miss(
    cs: CompressedIntegerSet,
    *,
    codec: IntegerSetCodec | None = None,
    cache: ArrayCache | None = None,
    key: DecodeKey | None = None,
    observer: DecodeObserver | None = None,
) -> np.ndarray:
    """The miss half of :func:`decode`: decompress *cs* and fill *cache*.

    For callers that have already looked *key* up themselves (the
    expression evaluator does, to choose a strategy) — going through
    :func:`decode` again would count every cold leaf as two misses.

    When *cache* implements :class:`CoalescingCache`, the decode enters
    the single-flight path: one leader decodes while concurrent callers
    for the same key wait on its ticket and share the result — each
    compressed set decodes at most once per stampede.  ``begin_flight``
    re-checks the cache, so an entry published since the caller's lookup
    is still served.  A follower whose leader aborts (or whose wait times
    out) falls back to decoding independently.
    """
    if cache is not None and key is not None:
        if isinstance(cache, CoalescingCache):
            flight = cache.begin_flight(key)
            if flight.leader:
                try:
                    values = _decompress(cs, codec, observer)
                except BaseException:
                    flight.abort()
                    raise
                flight.complete(values)
                return values
            shared = flight.wait()
            if shared is not None:
                return shared
            return _decompress(cs, codec, observer)
    values = _decompress(cs, codec, observer)
    if cache is not None and key is not None:
        values.flags.writeable = False
        cache.put(key, values)
    return values


def _decompress(
    cs: CompressedIntegerSet,
    codec: IntegerSetCodec | None,
    observer: DecodeObserver | None,
) -> np.ndarray:
    """The actual decode, with observer accounting.

    Sets served off a memory-mapped segment carry a ``source`` handle
    (see :mod:`repro.store.mapped`): the decode runs under its ``pin()``
    so compaction cannot dispose the mapping mid-decode, and a result
    that is itself a view over the map (e.g. the uncompressed ``List``
    codec) is defensively copied — callers may hold the array long after
    the segment is retired.
    """
    if codec is None:
        codec = get_codec(cs.codec_name)
    source = getattr(cs, "source", None)
    t0 = time.perf_counter()
    if source is not None:
        with source.pin():
            values = codec.decompress(cs)
            if not values.flags.owndata and values.base is not None:
                values = np.array(values)
    else:
        values = codec.decompress(cs)
    elapsed = time.perf_counter() - t0
    if observer is not None:
        observer.record_decode(cs.codec_name, int(values.size), elapsed)
    return values
