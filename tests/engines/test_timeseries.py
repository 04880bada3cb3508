"""Tests for the time-series engine."""

import numpy as np
import pytest

from repro.engines.timeseries.analytics import (
    anomalies,
    correlation,
    difference,
    euclidean_distance,
    exponential_smoothing,
    interpolate_gaps,
    moving_average,
    normalize,
    resample,
)
from repro.engines.timeseries.compression import compression_ratio, decode, encode
from repro.engines.timeseries.series import TimeSeries
from repro.errors import TimeSeriesError


def make(n=100, interval=60, base=20.0):
    ts = np.arange(n) * interval
    values = base + np.sin(np.arange(n) / 5.0)
    return TimeSeries(ts, values)


def test_series_sorts_and_rejects_duplicates():
    series = TimeSeries([30, 10, 20], [3.0, 1.0, 2.0])
    assert list(series.timestamps) == [10, 20, 30]
    assert list(series.values) == [1.0, 2.0, 3.0]
    with pytest.raises(TimeSeriesError):
        TimeSeries([1, 1], [1.0, 2.0])
    with pytest.raises(TimeSeriesError):
        TimeSeries([1, 2], [1.0])


def test_value_at_and_slice():
    series = make(10)
    assert series.value_at(60) == pytest.approx(series.values[1])
    assert series.value_at(61) is None
    window = series.slice(60, 180)
    assert len(window) == 3
    assert window.start == 60 and window.end == 180


def test_compression_round_trip_exact_at_scale():
    series = make(500)
    blob = encode(series, value_scale=3)
    restored = decode(blob)
    assert np.array_equal(series.timestamps, restored.timestamps)
    assert np.allclose(series.values, restored.values, atol=5e-4)


def test_compression_ratio_high_for_regular_data():
    # regular interval, slowly moving values: the paper's sensor sweet spot
    series = TimeSeries(np.arange(1000) * 60, np.full(1000, 21.5))
    assert compression_ratio(series) > 5.0


def test_compression_handles_irregular_and_jumpy_data():
    rng = np.random.default_rng(1)
    ts = np.cumsum(rng.integers(1, 1000, 300))
    values = rng.normal(0, 1e6, 300)
    restored = decode(encode(TimeSeries(ts, values), value_scale=2))
    assert np.allclose(values, restored.values, atol=6e-3)


def test_compression_empty_and_bad_blob():
    assert len(decode(encode(TimeSeries([], [])))) == 0
    with pytest.raises(TimeSeriesError):
        decode(b"garbage")
    with pytest.raises(TimeSeriesError):
        encode(make(5), value_scale=12)


def test_resample_mean_and_last():
    series = TimeSeries([0, 30, 60, 90], [1.0, 3.0, 5.0, 7.0])
    mean = resample(series, 60, "mean")
    assert list(mean.timestamps) == [0, 60]
    assert list(mean.values) == [2.0, 6.0]
    last = resample(series, 60, "last")
    assert list(last.values) == [3.0, 7.0]
    with pytest.raises(TimeSeriesError):
        resample(series, 60, "mode")


def test_correlation_of_identical_and_inverted():
    base = make(200)
    inverted = TimeSeries(base.timestamps, -base.values)
    assert correlation(base, base) == pytest.approx(1.0)
    assert correlation(base, inverted) == pytest.approx(-1.0)


def test_correlation_requires_overlap():
    a = TimeSeries([0, 1], [1.0, 2.0])
    b = TimeSeries([10, 11], [1.0, 2.0])
    with pytest.raises(TimeSeriesError):
        correlation(a, b)


def test_euclidean_distance():
    a = TimeSeries([0, 1], [0.0, 0.0])
    b = TimeSeries([0, 1], [3.0, 4.0])
    assert euclidean_distance(a, b) == 5.0


def test_moving_average_and_smoothing():
    series = TimeSeries(range(5), [0.0, 10.0, 0.0, 10.0, 0.0])
    sma = moving_average(series, 2)
    assert list(sma.values) == [5.0, 5.0, 5.0, 5.0]
    ema = exponential_smoothing(series, alpha=1.0)
    assert list(ema.values) == list(series.values)
    with pytest.raises(TimeSeriesError):
        exponential_smoothing(series, alpha=0.0)


def test_difference_and_normalize():
    series = TimeSeries([0, 1, 2], [1.0, 3.0, 6.0])
    assert list(difference(series).values) == [2.0, 3.0]
    z = normalize(series)
    assert np.mean(z.values) == pytest.approx(0.0, abs=1e-12)
    flat = normalize(TimeSeries([0, 1], [5.0, 5.0]))
    assert list(flat.values) == [0.0, 0.0]


def test_interpolate_gaps():
    series = TimeSeries([0, 100], [0.0, 100.0])
    filled = interpolate_gaps(series, 25)
    assert list(filled.values) == [0.0, 25.0, 50.0, 75.0, 100.0]


def test_anomaly_detection_flags_spike():
    values = [10.0] * 50
    rng = np.random.default_rng(0)
    values = list(10 + rng.normal(0, 0.1, 50))
    values[40] = 50.0
    series = TimeSeries(range(len(values)), values)
    flagged = anomalies(series, window=20, threshold=4.0)
    assert 40 in flagged


def test_a_timeseries_column_holds_series_through_insert_merge_and_read():
    from repro.core.database import Database

    database = Database()
    database.execute("CREATE TABLE readings (id INT, s TIMESERIES)")
    table = database.table("readings")
    first, second = TimeSeries([1, 2], [1.0, 2.0]), TimeSeries([3], [5.0])
    gap = TimeSeries([1, 2], [1.0, float("nan")])  # a NaN value orders after every number
    txn = database.begin()
    table.insert_many([[1, first], [2, second], [3, None], [5, gap]], txn)
    database.commit(txn)
    database.merge("readings")
    txn = database.begin()
    table.insert_many([[4, TimeSeries([1, 2], [1.0, 2.0])]], txn)  # equal to first, in the delta
    table.insert_many([[6, TimeSeries([1, 2], [1.0, float("nan")])]], txn)  # equal to gap
    database.commit(txn)
    expected = [[1, first], [2, second], [3, None], [4, first], [5, gap], [6, gap]]
    assert database.execute("SELECT id, s FROM readings ORDER BY id").rows == expected
    database.merge("readings")
    rows = database.execute("SELECT id, s FROM readings ORDER BY id").rows
    assert rows == expected
    assert hash(rows[3][1]) == hash(first)


def test_series_order_agrees_with_equality():
    from repro.columnstore.dictionary import SortedDictionary

    nan = float("nan")
    series = [
        TimeSeries([1, 2], [1.0, nan]),
        TimeSeries([1, 2], [1.0, 2.0]),
        TimeSeries([1, 2], [nan, 0.0]),
        TimeSeries([1, 2], [1.0, 1.0 + 1e-12]),  # close to, but not, the second
        TimeSeries([1, 2], [1.0, nan]),
        TimeSeries([3], [0.0]),
    ]
    for a in series:
        for b in series:
            assert (a == b) == (not a < b and not b < a)
            assert a != b or hash(a) == hash(b)
    dictionary = SortedDictionary(series)
    assert len(dictionary) == 5
    assert all(a < b for a, b in zip(dictionary.values, dictionary.values[1:]))
    for value in series:
        assert dictionary.values[dictionary.vid_of(value)] == value
