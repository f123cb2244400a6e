import pytest

from stats import TooFewSamples, iqr_share, median, percentile, sliced_percentile


def test_percentile_refuses_without_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)  # 9 beyond
    assert percentile(list(range(1, 1001)), 99) == 990  # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(100)), 95)
    assert percentile(list(range(1, 201)), 95) == 190


def test_percentile_rejects_bad_q():
    for q in (0, 100, -1):
        with pytest.raises(ValueError):
            percentile(list(range(2000)), q)


def test_median_and_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(TooFewSamples):
        median([])
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / 14.5)


def test_sliced_percentile_ignores_a_burst_in_one_slice():
    calm = [float(i % 200) for i in range(2000)]  # 10 slices, each the values 0–199
    at_s = [i / 200.0 for i in range(2000)]
    assert sliced_percentile(calm, at_s, 99) == percentile(calm, 99) == 197.0
    burst = list(calm)
    for i in range(600, 800):  # the whole fourth second is ten times slower
        burst[i] *= 10.0
    assert percentile(burst, 99) > 900.0  # the whole window's p99 is the burst
    assert sliced_percentile(burst, at_s, 99) == 197.0
    with pytest.raises(TooFewSamples):  # 9 beyond p99 over the whole window
        sliced_percentile(calm[:999], at_s[:999], 99)
