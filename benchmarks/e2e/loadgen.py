"""Load generators: a closed loop and a due-time (open-loop) scheduler.

A closed loop sends its next request only after the previous one
returned, so a slow target simply receives less load.  The scheduler
sends each request at its *due* time whatever happened to the earlier
ones and measures latency from that due time, so a stall is charged to
every request it delayed (no coordinated omission).

With a fixed number of connections a due request can find them all
busy.  That wait (``backlog``: due time → a worker free to take it) is
the target's slowness and stays in the latency.  ``lag`` is only the
generator's own lateness: the time from when the request was both due
and had a free worker to when the send began.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass
class Samples:
    """Per-request timings in ms, in completion order per worker."""

    latency_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    backlog_ms: list[float] = field(default_factory=list)
    #: Offset of each request's due time from the window start, in s
    #: (closed loop: when it was sent).
    due_s: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0

    def extend(self, other: "Samples") -> None:
        self.latency_ms += other.latency_ms
        self.lag_ms += other.lag_ms
        self.backlog_ms += other.backlog_ms
        self.due_s += other.due_s


def closed_loop(
    send: Callable[[int], float],
    seconds: float,
    *,
    start_index: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    stop: threading.Event | None = None,
) -> Samples:
    """Call ``send(i)`` back to back for *seconds*; time each call.

    ``send`` returns the seconds it spent on work that is not the
    request (checking the answer); they are taken off each latency and
    off ``elapsed_s``, so throughput counts request time only.
    """
    out = Samples()
    i = start_index
    t0 = clock()
    excluded = 0.0
    while True:
        start = clock()
        if start - t0 >= seconds or (stop is not None and stop.is_set()):
            break
        spent = send(i)
        out.latency_ms.append((clock() - start - spent) * 1000.0)
        out.due_s.append(start - t0)
        excluded += spent
        i += 1
    out.elapsed_s = clock() - t0 - excluded
    return out


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> list[float]:
    """Due times of a Poisson process over ``[0, seconds)``, conditioned
    on its expected count ``rate × seconds`` (given the count, Poisson
    arrival times are sorted uniforms), so every seed offers the same
    number of requests."""
    return [float(t) for t in np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds))))]


def paced_schedule(rate: float, seconds: float) -> list[float]:
    return [i / rate for i in range(int(rate * seconds))]


class DueTimeRunner:
    """Workers that pull the next due request and send it on time.

    ``send(i)`` returns the seconds it spent checking the answer; they
    are not part of the request's latency.  A set *stop* event ends the
    schedule early (the request in flight still completes).
    """

    def __init__(
        self,
        due: Sequence[float],
        *,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        stop: threading.Event | None = None,
    ) -> None:
        self._due = due
        self._stop = stop
        self._clock = clock
        self._sleep = sleep
        self._next = 0
        self._lock = threading.Lock()
        self._t0 = 0.0

    def start_clock(self) -> None:
        self._t0 = self._clock()

    def work(self, send: Callable[[int], float]) -> Samples:
        """One worker's loop; run it in as many threads as connections."""
        out = Samples()
        while True:
            with self._lock:
                i = self._next
                if i >= len(self._due) or (self._stop is not None and self._stop.is_set()):
                    out.elapsed_s = self._clock() - self._t0
                    return out
                self._next += 1
            due = self._t0 + self._due[i]
            free = self._clock()
            if free < due:
                self._sleep(due - free)
            start = self._clock()
            spent = send(i)
            end = self._clock()
            out.latency_ms.append((end - spent - due) * 1000.0)
            out.lag_ms.append((start - max(due, free)) * 1000.0)
            out.backlog_ms.append(max(0.0, free - due) * 1000.0)
            out.due_s.append(self._due[i])

    def run(self, sends: Sequence[Callable[[int], float]]) -> Samples:
        """Run one worker thread per ``send`` and merge their samples."""
        results: list[Samples | BaseException] = [Samples()] * len(sends)

        def body(k: int) -> None:
            try:
                results[k] = self.work(sends[k])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                results[k] = exc

        threads = [threading.Thread(target=body, args=(k,)) for k in range(len(sends))]
        self.start_clock()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = Samples()
        for res in results:
            if isinstance(res, BaseException):
                raise res
            merged.extend(res)
        merged.elapsed_s = self._clock() - self._t0
        return merged


def backlog_grows(samples: Samples, limit_ms: float) -> bool:
    """Whether requests queued up faster than they were sent: the last
    quarter's median backlog is beyond *limit_ms* and more than twice
    the first quarter's."""
    if len(samples.backlog_ms) < 8:
        return False
    order = np.argsort(samples.due_s)
    backlog = np.asarray(samples.backlog_ms)[order]
    quarter = len(backlog) // 4
    first, last = float(np.median(backlog[:quarter])), float(np.median(backlog[-quarter:]))
    return last > limit_ms and last > 2.0 * first
