"""The canonical metric names of the telemetry pipeline.

Every layer that produces or consumes scraped series — the simulated
scrape loop (:mod:`repro.telemetry.scraper`), the windowed query layer
(:mod:`repro.telemetry.query`) and the live testbed's Prometheus
text-exposition endpoint (:mod:`repro.live.exposition`) — imports the
names from here, so the simulated and live pipelines cannot drift: a
renamed metric is a one-line change that every emitter and parser picks
up, and the round-trip test in ``tests/live/test_exposition.py`` pins
the text format to these exact names.

Series are keyed in the :class:`~repro.telemetry.timeseries.TimeSeriesStore`
by ``(series_name, metric_name)``; the series name carries the vantage
point (``"cluster-1|api/cluster-2"`` for a proxy's view of a backend,
``"server|api/cluster-2"`` for a backend's own server-side signals). In
the Prometheus text format the series name travels as the value of the
:data:`SERIES_LABEL` label, because series names contain characters
(``|``, ``/``) that are invalid in Prometheus metric names.

A proxy's seven per-backend metrics are always scraped at one timestamp
and read over one window, so the store keeps them as one
:class:`ProxySample` row per scrape under the metric name
:data:`PROXY_SAMPLE`; their names stay the exposition vocabulary.
"""

from __future__ import annotations

from typing import NamedTuple

# --- metric names (exposition families; ProxySample fields) ----------- #

REQUESTS_TOTAL = "requests_total"
FAILURES_TOTAL = "failures_total"
SUCCESS_LATENCY_BUCKETS = "success_latency_buckets"
SUCCESS_LATENCY_SUM = "success_latency_sum"
SUCCESS_LATENCY_COUNT = "success_latency_count"
FAILURE_LATENCY_BUCKETS = "failure_latency_buckets"
INFLIGHT = "inflight"
SERVER_QUEUE = "server_queue"
REPLICA_COUNT = "replica_count"
AUTOSCALE_EVENTS = "autoscale_events"


class ProxySample(NamedTuple):
    """One scrape of one proxy's per-backend bundle: a store row whose
    fields are named after the metrics above, so a parsed exposition page
    groups into rows by name."""

    requests_total: float
    failures_total: float
    success_latency_buckets: tuple
    success_latency_sum: float
    success_latency_count: float
    failure_latency_buckets: tuple
    inflight: float


# Metric name of a scrape target's one row series; its metrics, row order.
PROXY_SAMPLE = "proxy_sample"
PROXY_METRICS = ProxySample._fields

# --- controller introspection (repro.core.introspection) --------------- #

WEIGHT = "weight"
RAW_WEIGHT = "raw_weight"
LATENCY_EWMA_S = "latency_ewma_s"
SUCCESS_RATE_EWMA = "success_rate_ewma"
RPS_EWMA = "rps_ewma"
INFLIGHT_EWMA = "inflight_ewma"
RELATIVE_CHANGE = "relative_change"
RECONCILE_COUNT = "reconcile_count"
TOTAL_RPS_EWMA = "total_rps_ewma"
DEGRADED_RECONCILES = "degraded_reconciles"
AUDIT_DECISIONS = "audit_decisions"

# --- Prometheus text-exposition vocabulary ----------------------------- #

# Label under which the store's series name travels in the text format.
SERIES_LABEL = "series"

# Counter metrics: exposition name == store name, value is a float.
COUNTER_METRICS = (REQUESTS_TOTAL, FAILURES_TOTAL, AUTOSCALE_EVENTS)

# Gauge metrics: exposition name == store name, value is a float.
GAUGE_METRICS = (INFLIGHT, SERVER_QUEUE, REPLICA_COUNT)

# Histogram families: store name of the cumulative-bucket tuple → the
# exposition family base name. Prometheus convention derives the three
# exposed series from the base: ``<base>_bucket{le=...}``, ``<base>_sum``
# and ``<base>_count``. The sum/count store names are listed so parsers
# can map them back without string surgery.
HISTOGRAM_FAMILIES = {
    SUCCESS_LATENCY_BUCKETS: "success_latency",
    FAILURE_LATENCY_BUCKETS: "failure_latency",
}

# Histogram families whose _sum/_count series are also scraped into the
# store (the failure histogram's sum/count are not part of the scrape
# set — only its buckets feed the dynamic-penalty extension).
HISTOGRAM_SUM_COUNT = {
    "success_latency": (SUCCESS_LATENCY_SUM, SUCCESS_LATENCY_COUNT),
}


def server_series_name(backend: str) -> str:
    """Series name of a backend's own server-side signals (unscoped).

    Server-reported metrics (queue occupancy) are properties of the
    backend itself, shared by every vantage point — never scope-prefixed.
    """
    return f"server|{backend}"


def scoped_series_name(scope: str, backend: str) -> str:
    """Series name of one vantage point's view of a backend."""
    return f"{scope}|{backend}"
