"""Differential oracle for the windowed read path.

Drives ``Scraper.scrape_once`` over random counter/histogram trajectories
(with paused ticks, irregular intervals, a failures counter that restarts
alone, idle stretches longer than the window — where the change-stamp
shortcut answers — and a retention horizon shorter than the widest
window) and
compares every field ``PromMetricsSource`` returns against a
straight-line reference computed here from the raw values the bundle
showed at each scrape — exact float equality, because the row store must
not change a single operation of the arithmetic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.histogram import DEFAULT_BUCKET_BOUNDS_S as BOUNDS
from repro.telemetry.metrics import BackendTelemetry, Counter
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore

RETENTION_S = 20.0

responses = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=90.0), st.booleans()),
    max_size=12)
ticks = st.lists(
    st.tuples(st.sampled_from([0.5, 5.0, 5.0, 5.0, 7.25]),  # interval
              st.sampled_from([False, False, False, True]),  # paused tick
              responses,
              st.integers(min_value=0, max_value=3),  # left in flight
              st.sampled_from([False, False, False, True]),  # reset
              st.sampled_from([0, 0, 0, 1, 3, 8])),  # idle scrapes after
    min_size=2, max_size=30)
queries = st.tuples(st.sampled_from([6.0, 10.0, 30.0]),
                    st.sampled_from([0.5, 0.99, 0.999]))


def reference_quantile(before, after, q):
    """PromQL histogram_quantile over a bucket delta, written out."""
    delta = [b - a for a, b in zip(before, after)]
    total = delta[-1]
    if total <= 0:
        return None
    rank = q * total
    index = next(i for i, count in enumerate(delta) if count >= rank)
    if index >= len(BOUNDS):
        return BOUNDS[-1]
    lower = BOUNDS[index - 1] if index else 0.0
    below = delta[index - 1] if index else 0
    in_bucket = delta[index] - below
    if in_bucket <= 0:
        return BOUNDS[index]
    return lower + (BOUNDS[index] - lower) * ((rank - below) / in_bucket)


def reference_edges(scrapes, now, window_s):
    """First and last raw scrape a window query may see, else None."""
    if not scrapes:
        return None
    start = max(now - window_s, scrapes[-1]["t"] - RETENTION_S)
    seen = [s for s in scrapes if start <= s["t"] <= now]
    return (seen[0], seen[-1]) if len(seen) >= 2 else None


def reference_sample(scrapes, now, window_s, q):
    edges = reference_edges(scrapes, now, window_s)
    if edges is None:
        return None
    first, last = edges
    requests = last["requests"] - first["requests"]
    if requests <= 0:
        return None
    failures = last["failures"] - first["failures"]
    if failures < 0:  # the failures counter restarted inside the window
        return None
    count = last["count"] - first["count"]
    return {
        "rps": requests / (last["t"] - first["t"]),
        "success_rate": min(max(1.0 - failures / requests, 0.0), 1.0),
        "latency_s": reference_quantile(first["ok"], last["ok"], q),
        "mean_latency_s": ((last["sum"] - first["sum"]) / count
                           if count > 0 else None),
        "inflight": max(last["inflight"], 0.0),
    }


def replay(trajectory, window_s, q) -> int:
    """Scrape and query along ``trajectory``, checking every read against
    the reference; returns how many reads took the change-stamp shortcut
    (answered "no data" without a window look-up)."""
    store = TimeSeriesStore(max_age_s=RETENTION_S)
    scraper = Scraper(store)
    telemetry = BackendTelemetry("b")
    scraper.register(telemetry)
    source = PromMetricsSource(store)
    looked_up = []
    full_path = source._collect_backend

    def spy(*args):
        looked_up.append(args)
        return full_path(*args)

    source._collect_backend = spy
    scrapes = []
    reads = 0
    now = 0.0

    def scrape_and_check(interval, paused):
        nonlocal now, reads
        now += interval
        if not paused:
            scraper.scrape_once(now)
            scrapes.append({
                "t": now,
                "requests": telemetry.requests_total.value,
                "failures": telemetry.failures_total.value,
                "ok": telemetry.success_latency.cumulative_counts(),
                "sum": telemetry.success_latency.sum,
                "count": telemetry.success_latency.count,
                "failed": telemetry.failure_latency.cumulative_counts(),
                "inflight": telemetry.inflight.value,
            })
        # The controller reconciles whether or not the scrape happened.
        got = source.collect(["b"], now, window_s, q)["b"]
        reads += 1
        want = reference_sample(scrapes, now, window_s, q)
        if want is None:
            assert got is None
        else:
            assert {field: getattr(got, field) for field in want} == want
        edges = reference_edges(scrapes, now, window_s)
        assert source.failure_latency_quantile("b", now, window_s, q) == (
            reference_quantile(edges[0]["failed"], edges[1]["failed"], q)
            if edges else None)

    for (interval, paused, completed, left_in_flight, reset,
         idle_scrapes) in trajectory:
        if reset:
            telemetry.failures_total = Counter()
        for latency, success in completed:
            telemetry.on_request_sent()
            telemetry.on_response(latency, success)
        for _ in range(left_in_flight):
            telemetry.on_request_sent()
        scrape_and_check(interval, paused)
        # Nothing happens to the bundle: every scrape stores its last row.
        for _ in range(idle_scrapes):
            scrape_and_check(5.0, False)
    return reads - len(looked_up)


@settings(max_examples=150, deadline=None)
@given(ticks, queries)
def test_collect_matches_the_straight_line_reference(trajectory, query):
    replay(trajectory, *query)


def test_idle_stretches_take_the_shortcut_and_stay_exact():
    """Idle runs longer than every window: the shortcut provably fires,
    and each read still equals the reference."""
    busy = [(0.004, True), (0.02, True), (0.3, False), (1.5, True)]
    trajectory = [
        (5.0, False, busy, 1, False, 0),
        (5.0, False, busy, 0, False, 8),   # 40 s idle
        (0.5, False, [], 0, True, 0),      # failures counter restarts
        (5.0, False, busy, 2, False, 8),
        (7.25, True, busy, 0, False, 8),   # a paused tick, then idle
    ]
    for window_s in (6.0, 10.0, 30.0):
        for q in (0.5, 0.99):
            assert replay(trajectory, window_s, q) > 0
