"""Percentiles that refuse to over-claim, and the spread used by --compare."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100).

    Raises :class:`TooFewSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond the percentile — with
    fewer, the figure is one outlier's latency, not a percentile.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return _nearest_rank(samples, q)


def _nearest_rank(samples: Sequence[float], q: float) -> float:
    return float(sorted(samples)[max(1, math.ceil(q / 100.0 * len(samples))) - 1])


def sliced_percentile(
    samples: Sequence[float], at_s: Sequence[float], q: float, slice_s: float = 1.0
) -> float:
    """Median over the window's *slice_s*-second slices of each slice's
    nearest-rank q-th percentile; ``at_s[i]`` is when sample *i* was due.

    On a shared host a burst of interference lasts about a second.  It
    moves one slice's value, so the median over the slices stays put,
    where the whole window's percentile moves with every burst.  The
    window as a whole must still support the percentile
    (:func:`percentile`'s rule); one slice alone need not.
    """
    percentile(samples, q)  # refuses a window that cannot support q at all
    slices: dict[int, list[float]] = {}
    for value, at in zip(samples, at_s, strict=True):
        slices.setdefault(int(at // slice_s), []).append(value)
    return float(statistics.median(_nearest_rank(part, q) for part in slices.values()))


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median, the run-to-run spread the bounds are set from."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
