"""Property-based tests for substrate data structures."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.percentiles import exact_percentile
from repro.sim.engine import Simulator
from repro.sim.resources import Server
from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.timeseries import SampleSeries
from repro.workloads.profiles import PiecewiseSeries
from tests.conftest import occupy

latencies = st.floats(min_value=0.0, max_value=120.0)


class TestHistogramProperties:
    @given(st.lists(latencies, min_size=1, max_size=300))
    def test_count_sum_and_monotone_buckets(self, values):
        histogram = LatencyHistogram()
        for value in values:
            histogram.observe(value)
        assert histogram.count == len(values)
        assert math.isclose(histogram.sum, sum(values), rel_tol=1e-9,
                            abs_tol=1e-9)
        cumulative = histogram.cumulative_counts()
        assert list(cumulative) == sorted(cumulative)
        assert cumulative[-1] == len(values)

    @given(st.lists(latencies, min_size=1, max_size=300),
           st.floats(min_value=0.01, max_value=0.99))
    def test_quantile_monotone_in_q(self, values, q):
        histogram = LatencyHistogram()
        for value in values:
            histogram.observe(value)
        lower = histogram.quantile(q * 0.5)
        upper = histogram.quantile(min(q * 1.5, 1.0))
        assert lower <= upper + 1e-12

    @given(st.lists(st.floats(min_value=1e-4, max_value=50.0),
                    min_size=20, max_size=300),
           st.floats(min_value=0.05, max_value=0.99))
    def test_estimate_shares_bucket_with_rank_order_statistic(self, values,
                                                              q):
        """The interpolated estimate lies in the bucket holding the
        ceil(q*n)-th order statistic — Prometheus's rank convention.

        (Comparing against the *interpolated* exact percentile is too
        strict: its rank convention, q*(n-1), can differ by one sample
        and therefore one whole bucket at boundaries.)
        """
        import bisect
        import math

        histogram = LatencyHistogram()
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        rank_value = sorted(values)[
            min(math.ceil(q * len(values)) - 1, len(values) - 1)]
        bounds = histogram.bounds
        bucket = bisect.bisect_left(bounds, rank_value)
        if bucket >= len(bounds):
            # Overflow bucket: the estimate clamps to the top bound.
            assert estimate == bounds[-1]
        else:
            lower = bounds[bucket - 1] if bucket > 0 else 0.0
            assert lower <= estimate <= bounds[bucket] + 1e-12


class TestPercentileProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_within_sample_range(self, values, q):
        result = exact_percentile(values, q)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_subnormal=False),
                    min_size=2, max_size=200))
    def test_percentile_monotone(self, values):
        # Subnormals are excluded: interpolating between two 5e-324
        # values underflows to 0.0, a one-ulp artifact of IEEE denormal
        # arithmetic rather than a property violation.
        results = [exact_percentile(values, q)
                   for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert results == sorted(results)


class TestSeriesProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e4),
                              st.floats(min_value=-1e6, max_value=1e6)),
                    min_size=1, max_size=50,
                    unique_by=lambda p: p[0]),
           st.floats(min_value=0.0, max_value=1e4))
    def test_piecewise_value_within_control_range(self, points, when):
        series = PiecewiseSeries(points)
        value = series.value_at(when)
        assert series.min_value() - 1e-6 <= value <= series.max_value() + 1e-6

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e3),
                              st.floats(min_value=0.0, max_value=1e6)),
                    min_size=1, max_size=50))
    def test_sample_series_window_sorted(self, samples):
        series = SampleSeries(max_age_s=1e9)
        for when, value in sorted(samples, key=lambda s: s[0]):
            series.append(when, value)
        window = series.window(0.0, 1e3)
        times = [t for t, _v in window]
        assert times == sorted(times)


class TestServerProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.floats(min_value=0.01, max_value=2.0),
                    min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_capacity(self, capacity, hold_times):
        """Every request completes; concurrency never exceeds capacity."""
        sim = Simulator()
        server = Server(sim, capacity)
        done = []
        peak = {"value": 0}

        def started():
            peak["value"] = max(peak["value"], server.in_use)

        for hold in hold_times:
            occupy(sim, server, hold, lambda hold=hold: done.append(hold),
                   started=started)
        sim.run()
        assert len(done) == len(hold_times)
        assert peak["value"] <= capacity
        assert server.in_use == 0
        assert server.queue_len == 0
