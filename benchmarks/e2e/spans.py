"""In-memory spans recorded from outside the program, and their self time.

A span is ``{trace_id, span_id, parent_id, name, workload, start_ns,
end_ns, attrs}``.  Spans of one query share ``trace_id``; a span opened
while another is open becomes its child.  Nothing is written until
:meth:`Tracer.write_jsonl` at the end of the run.
"""

from __future__ import annotations

import json
import time

from stats import TooFewSamples, median, percentile


class _OpenSpan:
    """Context manager for one span (a class, not a generator: the
    traced pass wraps ~15 calls per query, so enter/exit cost counts)."""

    __slots__ = ("_open", "_span")

    def __init__(self, open_spans: list[dict], span: dict) -> None:
        self._open = open_spans
        self._span = span

    def __enter__(self) -> dict:
        self._open.append(self._span)
        self._span["start_ns"] = time.perf_counter_ns()
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span["end_ns"] = time.perf_counter_ns()
        self._open.pop()


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._traces = 0

    def span(self, name: str, **attrs) -> _OpenSpan:
        """``with tracer.span(...) as span``: time the body; the body may
        add to ``span["attrs"]``.  A span opened inside another is its
        child; one opened at top level starts a new trace."""
        if not self._open:
            self._traces += 1
        span = {
            "trace_id": self._traces,
            "span_id": len(self.spans) + 1,
            "parent_id": self._open[-1]["span_id"] if self._open else None,
            "name": name,
            "workload": self.workload,
            "start_ns": 0,
            "end_ns": 0,
            "attrs": attrs,
        }
        self.spans.append(span)
        return _OpenSpan(self._open, span)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """span_id → duration minus the part of it covered by child spans.

    Children may overlap each other (parallel parts); the covered part
    is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append((span["start_ns"], span["end_ns"]))
    out = {}
    for span in spans:
        lo, hi = span["start_ns"], span["end_ns"]
        covered = 0
        reach = lo
        for start, end in sorted(children.get(span["span_id"], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["span_id"]] = (hi - lo) - covered
    return out


def stage_self_ms(spans: list[dict], root: str) -> dict[str, list[float]]:
    """stage name → self time in ms for every trace rooted at *root*.

    A stage that runs once per shard contributes the sum over shards and
    a stage a trace never entered contributes 0, so every figure is
    "ms per query".
    """
    selfs = self_times_ns(spans)
    traces = [span["trace_id"] for span in spans if span["name"] == root]
    per_stage: dict[str, dict[int, int]] = {}
    for span in spans:
        by_trace = per_stage.setdefault(span["name"], dict.fromkeys(traces, 0))
        if span["trace_id"] in by_trace:
            by_trace[span["trace_id"]] += selfs[span["span_id"]]
    return {name: [ns / 1e6 for ns in by_trace.values()] for name, by_trace in per_stage.items()}


def summarize(samples: list[float]) -> dict:
    """p50, the highest of p99/p95/p90 the sample supports, and the count."""
    out = {"p50_ms": median(samples), "tail_q": None, "tail_ms": None, "samples": len(samples)}
    for q in (99, 95, 90):
        try:
            out["tail_q"], out["tail_ms"] = q, percentile(samples, q)
            break
        except TooFewSamples:
            continue
    return out
