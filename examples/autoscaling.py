#!/usr/bin/env python3
"""Rate control meets autoscaling (paper §3.2's motivating interplay).

A demand surge quadruples the offered load in one step. L3's rate
controller spreads the surge across all backends (Algorithm 2 pulls
weights toward the mean for positive relative change), buying time for the
HPA-style autoscaler to add replicas; once capacity catches up and the RPS
trend flattens, the weighting algorithm re-concentrates traffic on the
fast backends.

Run with::

    python examples/autoscaling.py
"""

from repro.autoscale import AutoscalePolicy, SimAutoscaleSet
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.config import L3Config
from repro.core.controller import L3Controller
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.loadgen import OpenLoopLoadGenerator
from repro.workloads.profiles import (
    PiecewiseSeries,
    constant_backend_profile,
)
from repro.analysis.percentiles import exact_percentile

CLUSTERS = ["cluster-1", "cluster-2", "cluster-3"]


def main() -> None:
    sim = Simulator()
    rng = RngRegistry(seed=11)
    mesh = ServiceMesh(sim, rng, clusters=CLUSTERS,
                       wan_link=WanLink(base_delay_s=0.010))
    # Tight capacity: 2 replicas x 8 concurrent per cluster. At 40 ms
    # mean service time each cluster absorbs ~400 RPS before queueing.
    mesh.deploy_service("api", profiles={
        cluster: constant_backend_profile(0.040, 0.120)
        for cluster in CLUSTERS
    }, replicas=2, replica_capacity=8)

    store = TimeSeriesStore()
    scraper = Scraper(store, interval_s=5.0)
    source = PromMetricsSource(store, scope="cluster-1")
    deployment = mesh.deployment("api")
    balancer = PeriodicSplitBalancer(sim, "api", deployment.backend_names(),
                                     source, L3Controller, config=L3Config())
    proxy = mesh.client_proxy("cluster-1", "api", balancer)
    mesh.register_all_telemetry(scraper)

    # One scaler per cluster, reading the scraped server-side in-flight
    # gauge: hold utilization at 50 %, 20 s from decision to serving.
    policy = AutoscalePolicy(metric="inflight", target=0.5, interval_s=10.0,
                             provisioning_lag_s=20.0, max_replicas=8)
    autoscalers = SimAutoscaleSet(
        deployment, {cluster: policy for cluster in CLUSTERS}, source,
        scraper, controller=balancer.controller)

    scrape_loop = sim.every(scraper.interval_s, scraper.tick)
    balancer.start(sim)
    autoscalers.start(sim)

    # 200 RPS for a minute, then a step to 800 RPS.
    rps = PiecewiseSeries(
        [(0.0, 200.0), (60.0, 200.0), (61.0, 800.0), (240.0, 800.0)])
    records = []
    loadgen = OpenLoopLoadGenerator(proxy, rps, rng.stream("load"), records)
    loadgen.start(sim, 240.0)
    sim.run(until=270.0)
    balancer.stop()
    autoscalers.stop(270.0)
    scrape_loop.cancel()
    sim.run(until=280.0)

    def window_p99(start, end):
        values = [r.latency_s * 1000.0 for r in records
                  if start <= r.intended_start_s < end]
        return exact_percentile(values, 0.99) if values else float("nan")

    print(f"completed {len(records)} requests")
    print(f"P99 before surge   (t 20-60s):   {window_p99(20, 60):7.1f} ms")
    print(f"P99 during surge   (t 61-100s):  {window_p99(61, 100):7.1f} ms")
    print(f"P99 after scale-up (t 150-240s): {window_p99(150, 240):7.1f} ms")
    for scaler in autoscalers.scalers.values():
        ups = sum(1 for _t, delta, _after in scaler.events if delta > 0)
        print(f"{scaler.backend_name}: scaled up {ups} times, now "
              f"{scaler.replica_count} replicas")


if __name__ == "__main__":
    main()
