"""The due-time scheduler on a fake clock."""

import pytest

from loadgen import DueTimeRunner, Samples, backlog_grows, closed_loop, paced_schedule, poisson_schedule


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_stall_is_charged_to_later_requests():
    clock = FakeClock()
    due = [0.0, 0.010, 0.020, 0.030, 0.200]

    def send(i):
        clock.now += 0.100 if i == 1 else 0.001  # request 1 stalls 100 ms
        return 0.0

    runner = DueTimeRunner(due, clock=clock, sleep=clock.sleep)
    runner.start_clock()
    out = runner.work(send)
    # Request 1 was sent on time and took its 100 ms.
    assert out.latency_ms[1] == pytest.approx(100.0)
    # Request 2 was due at 20 ms but could only start at 110 ms: its
    # latency is measured from the due time, so it carries the stall.
    assert out.latency_ms[2] == pytest.approx(110.0 + 1.0 - 20.0)
    assert out.latency_ms[3] == pytest.approx(111.0 + 1.0 - 30.0)
    # ... and the backlog says how long each waited for a free worker,
    assert out.backlog_ms[2] == pytest.approx(90.0)
    assert out.backlog_ms[3] == pytest.approx(81.0)
    # ... while the generator itself was never late,
    assert max(out.lag_ms) == pytest.approx(0.0)
    # ... and the backlog drains: request 4 is on time again.
    assert out.latency_ms[4] == pytest.approx(1.0) and out.backlog_ms[4] == 0.0


def test_generator_lateness_is_lag_not_backlog():
    clock = FakeClock()

    def oversleep(seconds):
        clock.now += seconds + 0.003  # the timer fires 3 ms late

    runner = DueTimeRunner([0.010, 0.050], clock=clock, sleep=oversleep)
    runner.start_clock()
    out = runner.work(lambda i: 0.0)
    assert out.lag_ms == pytest.approx([3.0, 3.0])
    assert out.backlog_ms == [0.0, 0.0]
    assert out.latency_ms == pytest.approx([3.0, 3.0])  # lateness is in the latency


def test_checking_time_is_not_latency():
    clock = FakeClock()

    def send(i):
        clock.now += 0.005  # 2 ms of request, 3 ms of checking the answer
        return 0.003

    runner = DueTimeRunner([0.0], clock=clock, sleep=clock.sleep)
    runner.start_clock()
    assert runner.work(send).latency_ms == pytest.approx([2.0])
    clock.now = 0.0
    closed = closed_loop(send, 0.0475, clock=clock)
    assert closed.latency_ms == pytest.approx([2.0] * 10)
    assert closed.elapsed_s == pytest.approx(0.020)  # request time only


def test_backlog_grows_flags_an_overloaded_run():
    steady = Samples(backlog_ms=[0.0, 1.0] * 20, due_s=[i * 0.01 for i in range(40)])
    assert not backlog_grows(steady, limit_ms=5.0)
    growing = Samples(backlog_ms=[float(i) for i in range(40)], due_s=[i * 0.01 for i in range(40)])
    assert backlog_grows(growing, limit_ms=5.0)


def test_schedules():
    import numpy as np

    assert paced_schedule(100.0, 0.05) == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])
    a = poisson_schedule(np.random.default_rng(1), 200.0, 5.0)
    b = poisson_schedule(np.random.default_rng(1), 200.0, 5.0)
    assert a == b and a == sorted(a) and a[-1] < 5.0
    assert 800 < len(a) < 1200


def test_threads_share_one_schedule():
    due = [i * 0.001 for i in range(50)]
    seen = []
    out = DueTimeRunner(due).run([lambda i: seen.append(i) or 0.0] * 2)
    assert sorted(seen) == list(range(50)) and len(out.latency_ms) == 50
