"""Prometheus text-exposition emit→parse round-trip, pinned to the scraper."""

import math

import pytest

from repro.errors import TelemetryError
from repro.live.exposition import parse_exposition, render_exposition
from repro.telemetry import names
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore


def traffic_bundle(name="cluster-1|api/cluster-2"):
    telemetry = BackendTelemetry("api/cluster-2", scrape_name=name)
    for latency, success in [(0.010, True), (0.080, True), (0.450, True),
                             (0.030, False), (2.5, False)]:
        telemetry.on_request_sent()
        telemetry.on_response(latency, success)
    telemetry.on_request_sent()  # one left in flight
    return telemetry


class TestRoundTrip:
    def test_parse_equals_simulated_scrape(self):
        """The live path (render→parse) must store the exact values the
        simulated scraper stores — the sim↔live parity contract."""
        telemetry = traffic_bundle()

        store = TimeSeriesStore()
        scraper = Scraper(store)
        scraper.register(telemetry)
        scraper.scrape_once(7.0)

        parsed = parse_exposition(render_exposition([telemetry]))
        series = telemetry.scrape_name
        assert set(parsed) == {series}
        _when, row = store.series(series, names.PROXY_SAMPLE).latest_in_window(0.0, 7.0)
        assert set(parsed[series]) == set(names.PROXY_METRICS)
        for metric in names.PROXY_METRICS:
            assert parsed[series][metric] == getattr(row, metric), metric

    def test_bucket_tuples_are_cumulative_and_inf_terminated(self):
        telemetry = traffic_bundle()
        parsed = parse_exposition(render_exposition([telemetry]))
        buckets = parsed[telemetry.scrape_name][names.SUCCESS_LATENCY_BUCKETS]
        assert buckets == telemetry.success_latency.cumulative_counts()
        assert all(b2 >= b1 for b1, b2 in zip(buckets, buckets[1:]))
        assert buckets[-1] == telemetry.success_latency.count

    def test_series_label_escaping_round_trips(self):
        weird = 'cluster "a"\\|svc/b\nc'
        telemetry = BackendTelemetry("svc/b", scrape_name=weird)
        telemetry.on_request_sent()
        telemetry.on_response(0.01, True)
        parsed = parse_exposition(render_exposition([telemetry]))
        assert weird in parsed
        assert parsed[weird][names.REQUESTS_TOTAL] == 1.0

    def test_custom_gauges_render_under_their_series(self):
        text = render_exposition(
            [], gauges=[(names.server_series_name("api/cluster-1"),
                         names.SERVER_QUEUE, lambda: 7)])
        parsed = parse_exposition(text)
        assert parsed == {
            "server|api/cluster-1": {names.SERVER_QUEUE: 7.0}}

    def test_multiple_targets_stay_separate(self):
        bundles = [traffic_bundle("cluster-1|api/cluster-2"),
                   BackendTelemetry("api/cluster-3",
                                    scrape_name="cluster-1|api/cluster-3")]
        parsed = parse_exposition(render_exposition(bundles))
        assert set(parsed) == {"cluster-1|api/cluster-2",
                               "cluster-1|api/cluster-3"}
        assert parsed["cluster-1|api/cluster-3"][names.REQUESTS_TOTAL] == 0.0


class TestRenderFormat:
    def test_type_lines_present(self):
        text = render_exposition([traffic_bundle()])
        assert f"# TYPE {names.REQUESTS_TOTAL} counter" in text
        assert "# TYPE success_latency histogram" in text
        assert f"# TYPE {names.INFLIGHT} gauge" in text

    def test_inf_bucket_spelled_prometheus_style(self):
        text = render_exposition([traffic_bundle()])
        assert 'le="+Inf"' in text
        assert "inf}" not in text  # no Python float repr leaking out

    def test_empty_page_is_just_a_newline(self):
        assert render_exposition([]) == "\n"


class TestParseErrors:
    def test_sample_without_labels_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition("requests_total 5\n")

    def test_sample_without_series_label_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition('requests_total{other="x"} 5\n')

    def test_bad_value_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition('requests_total{series="a"} banana\n')

    def test_non_cumulative_histogram_rejected(self):
        text = ('success_latency_bucket{series="a",le="0.1"} 5\n'
                'success_latency_bucket{series="a",le="+Inf"} 3\n')
        with pytest.raises(TelemetryError):
            parse_exposition(text)

    def test_unknown_families_ignored(self):
        text = ('something_else{series="a"} 5\n'
                'failure_latency_sum{series="a"} 1.5\n'
                'requests_total{series="a"} 2\n')
        parsed = parse_exposition(text)
        assert parsed == {"a": {names.REQUESTS_TOTAL: 2.0}}

    def test_inf_values_parse(self):
        parsed = parse_exposition(f'{names.INFLIGHT}{{series="a"}} +Inf\n')
        assert parsed["a"][names.INFLIGHT] == math.inf
