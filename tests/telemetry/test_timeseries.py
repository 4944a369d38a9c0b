"""Tests for scraped-sample storage and windowed lookups."""

import math

import pytest

from repro.errors import TelemetryError
from repro.telemetry.names import ProxySample
from repro.telemetry.timeseries import SampleSeries, TimeSeriesStore


class TestSampleSeries:
    def test_append_and_len(self):
        series = SampleSeries()
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert len(series) == 2

    def test_out_of_order_rejected(self):
        series = SampleSeries()
        series.append(5.0, 1.0)
        with pytest.raises(TelemetryError):
            series.append(4.0, 1.0)

    def test_equal_timestamps_allowed(self):
        series = SampleSeries()
        series.append(5.0, 1.0)
        series.append(5.0, 2.0)
        assert len(series) == 2

    def test_window_inclusive_bounds(self):
        series = SampleSeries()
        for t in (1.0, 2.0, 3.0, 4.0):
            series.append(t, t * 10)
        window = series.window(2.0, 3.0)
        assert [t for t, _v in window] == [2.0, 3.0]

    def test_first_last_requires_two_samples(self):
        series = SampleSeries()
        series.append(1.0, 10.0)
        assert series.first_last_in_window(0.0, 5.0) is None
        series.append(2.0, 20.0)
        (t0, v0), (t1, v1) = series.first_last_in_window(0.0, 5.0)
        assert (t0, v0) == (1.0, 10.0)
        assert (t1, v1) == (2.0, 20.0)

    def test_latest_in_window(self):
        series = SampleSeries()
        for t in (1.0, 2.0, 3.0):
            series.append(t, t)
        assert series.latest_in_window(0.0, 2.5) == (2.0, 2.0)
        assert series.latest_in_window(5.0, 9.0) is None

    def test_retention_trims_old_samples(self):
        series = SampleSeries(max_age_s=10.0)
        series.append(0.0, 1.0)
        series.append(100.0, 2.0)
        assert len(series) == 1
        assert series.latest_in_window(0.0, 100.0) == (100.0, 2.0)

    def test_invalid_retention_rejected(self):
        with pytest.raises(TelemetryError):
            SampleSeries(max_age_s=0.0)

    def test_stores_arbitrary_values(self):
        series = SampleSeries()
        series.append(1.0, (1, 2, 3))
        assert series.latest_in_window(0.0, 2.0)[1] == (1, 2, 3)


class TestChangeStamp:
    """``changed_at``: the last append whose value is not the previous
    value object."""

    def test_empty_series_never_changed(self):
        assert SampleSeries().changed_at == -math.inf

    def test_first_append_is_a_change(self):
        series = SampleSeries()
        series.append(3.0, ProxySample(0.0, 0.0, (0,), 0.0, 0, (0,), 0.0))
        assert series.changed_at == 3.0

    def test_re_appending_the_same_object_is_not(self):
        series = SampleSeries()
        row = ProxySample(1.0, 0.0, (1,), 0.1, 1, (0,), 0.0)
        for t in (5.0, 10.0, 15.0):
            series.append(t, row)
        assert series.changed_at == 5.0

    def test_an_equal_but_distinct_row_is_a_change(self):
        # Identity, not equality: the stamp never compares row contents.
        series = SampleSeries()
        series.append(5.0, ProxySample(1.0, 0.0, (1,), 0.1, 1, (0,), 0.0))
        series.append(10.0, ProxySample(1.0, 0.0, (1,), 0.1, 1, (0,), 0.0))
        assert series.changed_at == 10.0

    def test_trimming_keeps_the_stamp(self):
        series = SampleSeries(max_age_s=10.0)
        row = ProxySample(1.0, 0.0, (1,), 0.1, 1, (0,), 0.0)
        series.append(0.0, object())
        series.append(1.0, row)
        for i in range(1, 600):  # past the trim threshold, many times over
            series.append(1.0 + i, row)
        assert len(series._times) < 600  # the expired prefix went
        assert series.changed_at == 1.0
        # Every retained sample is that one object: the window's edges
        # are identical, which is what lets a query skip the look-up.
        first, last = series.first_last_in_window(500.0, 600.0)
        assert first[1] is last[1] is row

    def test_trim_keeps_exactly_the_live_samples(self):
        series = SampleSeries(max_age_s=10.0)
        for t in range(400):
            series.append(float(t), t)
        assert series.window(0.0, 400.0) == [
            (float(t), t) for t in range(389, 400)]


class TestTimeSeriesStore:
    def test_series_created_on_first_use(self):
        store = TimeSeriesStore()
        series = store.series("backend", "metric")
        assert series is store.series("backend", "metric")

    def test_backends_enumeration(self):
        store = TimeSeriesStore()
        store.series("a", "m1")
        store.series("b", "m2")
        assert store.backends() == {"a", "b"}

    def test_retention_propagates(self):
        store = TimeSeriesStore(max_age_s=42.0)
        assert store.series("a", "m").max_age_s == 42.0
