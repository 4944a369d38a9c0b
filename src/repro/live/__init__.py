"""The live localhost testbed: the real L3 control plane over sockets.

Runs the **unmodified** control plane — ``L3Balancer`` with its
``L3Controller`` and ``TrafficSplit``, ``PromMetricsSource``,
``TimeSeriesStore`` — on a wall clock against a real networked
mesh on localhost: asyncio HTTP replica servers whose latency/failure
behaviour follows the same :class:`~repro.workloads.profiles.BackendProfile`
schedules the simulator uses, a client-side weighted proxy speaking the
``mesh`` data-plane semantics over TCP, a Prometheus text-exposition
``/metrics`` endpoint, an HTTP scrape loop, and an open-loop load
generator. The simulation validates the control algorithm against a
model; the live harness validates it against the realities a model hides
(scheduling jitter, socket teardown, wall-clock scrape skew).
DESIGN.md §5e states the parity contract between the two substrates.

:mod:`repro.live.chaos` adds wall-clock fault injection on top: the same
``--faults`` vocabulary the simulator uses, executed against the running
testbed (listeners close and re-bind, links partition, /metrics pages
break, controller replicas crash out of the lease election). DESIGN.md
§5f states the live failure model and the failover contract.
"""

from repro.live.chaos import LiveFaultInjector, LiveLinkShaper
from repro.live.clock import FakeClock, WallClock
from repro.live.exposition import parse_exposition, render_exposition
from repro.live.harness import (
    LIVE_ALGORITHMS,
    LiveConfig,
    LiveHarness,
    live_c3_config,
    live_l3_config,
    run_live,
    weight_points,
)
from repro.live.loadgen import LiveLoadGenerator
from repro.live.proxy import HttpTransport, LiveProxy
from repro.live.scrape import HttpScraper, fetch_metrics
from repro.live.server import MetricsServer, ReplicaServer, start_http_server

__all__ = [
    "LIVE_ALGORITHMS",
    "FakeClock",
    "HttpScraper",
    "HttpTransport",
    "LiveConfig",
    "LiveFaultInjector",
    "LiveHarness",
    "LiveLinkShaper",
    "LiveLoadGenerator",
    "LiveProxy",
    "MetricsServer",
    "ReplicaServer",
    "WallClock",
    "fetch_metrics",
    "live_c3_config",
    "live_l3_config",
    "parse_exposition",
    "render_exposition",
    "run_live",
    "start_http_server",
    "weight_points",
]
