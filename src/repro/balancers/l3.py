"""L3 as a mesh balancer: controller + TrafficSplit glued together.

This is the integration the paper's Fig. 5 shows: the L3 operator watches
Prometheus (our :class:`~repro.telemetry.query.PromMetricsSource`), runs
the weighting and rate-control algorithms every 5 s, and writes the result
into the service's TrafficSplit, which the data-plane proxies sample on
every request.
"""

from __future__ import annotations

from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.config import L3Config
from repro.core.controller import L3Controller
from repro.sim.engine import Simulator


class L3Balancer(PeriodicSplitBalancer):
    """The paper's system: L3 controller driving a TrafficSplit."""

    def __init__(self, sim: Simulator, service: str, backend_names,
                 metrics_source, config: L3Config | None = None,
                 propagation_delay_s: float = 0.5):
        self.config = config or L3Config()
        super().__init__(
            sim, service, backend_names,
            lambda split: L3Controller(
                list(backend_names), metrics_source, split,
                config=self.config, start_time=sim.now),
            propagation_delay_s=propagation_delay_s)
