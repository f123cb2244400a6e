from spans import Tracer, self_times_ns, stage_self_ms, summarize


def _span(sid, parent, name, start, end, trace=1):
    return {"trace_id": trace, "span_id": sid, "parent_id": parent, "name": name,
            "workload": "t", "start_ns": start, "end_ns": end, "attrs": {}}


def test_self_time_with_overlapping_children():
    spans = [
        _span(1, None, "root", 0, 100),
        _span(2, 1, "a", 10, 40),
        _span(3, 1, "b", 30, 60),   # overlaps a: union [10, 60) covers 50
        _span(4, 1, "c", 70, 80),
        _span(5, 3, "b.inner", 35, 45),
        _span(6, 1, "late", 90, 120),  # child outlives parent: clipped at 100
    ]
    selfs = self_times_ns(spans)
    assert selfs[1] == 100 - (50 + 10 + 10)
    assert selfs[2] == 30
    assert selfs[3] == 30 - 10
    assert selfs[5] == 10


def test_stage_self_ms_sums_shards_and_fills_zeros():
    spans = [
        _span(1, None, "replay", 0, 10_000_000, trace=1),
        _span(2, 1, "execute", 0, 2_000_000, trace=1),
        _span(3, 1, "execute", 3_000_000, 4_000_000, trace=1),
        _span(4, None, "replay", 0, 5_000_000, trace=2),  # cache hit: no execute
        _span(5, None, "other-root", 0, 1_000_000, trace=3),
    ]
    stages = stage_self_ms(spans, "replay")
    assert stages["execute"] == [3.0, 0.0]
    assert stages["replay"] == [7.0, 5.0]
    assert stages["other-root"] == [0.0, 0.0]  # not under a replay root


def test_tracer_links_parents_and_traces():
    tracer = Tracer("w")
    with tracer.span("request") as root:
        with tracer.span("child", shard="s0") as child:
            child["attrs"]["results"] = 3
    with tracer.span("request") as second:
        pass
    assert root["parent_id"] is None and child["parent_id"] == root["span_id"]
    assert child["trace_id"] == root["trace_id"] != second["trace_id"]
    assert child["attrs"] == {"shard": "s0", "results": 3}
    assert root["start_ns"] <= child["start_ns"] <= child["end_ns"] <= root["end_ns"]
    assert set(root) == {"trace_id", "span_id", "parent_id", "name", "workload",
                         "start_ns", "end_ns", "attrs"}


def test_summarize_picks_highest_supported_tail():
    assert summarize([1.0] * 50)["tail_q"] is None
    assert summarize([float(i) for i in range(300)])["tail_q"] == 95
    assert summarize([float(i) for i in range(1000)])["tail_q"] == 99
