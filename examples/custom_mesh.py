#!/usr/bin/env python3
"""Building a custom multi-cluster topology from the low-level API.

Shows the full construction path the benchmark coordinator otherwise hides:
simulator → mesh → service deployment → telemetry pipeline → L3 balancer →
open-loop client. The topology is deliberately asymmetric (a transatlantic
cluster with 80 ms links and a degraded local cluster) to show L3
weighting both network distance and service health.

Run with::

    python examples/custom_mesh.py
"""

from repro.balancers.l3 import L3Balancer
from repro.core.config import L3Config
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.loadgen import OpenLoopLoadGenerator
from repro.workloads.profiles import (
    BackendProfile,
    PiecewiseSeries,
    constant_series,
)
from repro.analysis.percentiles import percentile_summary


def main() -> None:
    sim = Simulator()
    rng = RngRegistry(seed=42)

    # Three clusters; eu pairs are 10 ms apart, us-east is 40 ms away.
    mesh = ServiceMesh(sim, rng,
                       clusters=["eu-central", "eu-west", "us-east"],
                       wan_link=WanLink(base_delay_s=0.010))
    far_link = WanLink(base_delay_s=0.040)
    mesh.network.set_link("eu-central", "us-east", far_link)
    mesh.network.set_link("eu-west", "us-east", far_link)

    # The eu-west deployment degrades badly between t=60s and t=120s.
    degraded = BackendProfile(
        median_latency_s=PiecewiseSeries(
            [(0.0, 0.030), (60.0, 0.030), (65.0, 0.300), (120.0, 0.300),
             (125.0, 0.030), (300.0, 0.030)]),
        p99_latency_s=PiecewiseSeries(
            [(0.0, 0.090), (60.0, 0.090), (65.0, 1.000), (120.0, 1.000),
             (125.0, 0.090), (300.0, 0.090)]),
        failure_prob=constant_series(0.0),
    )
    healthy = BackendProfile(
        median_latency_s=constant_series(0.030),
        p99_latency_s=constant_series(0.090),
        failure_prob=constant_series(0.0),
    )
    mesh.deploy_service("api", profiles={
        "eu-central": healthy,
        "eu-west": degraded,
        "us-east": healthy,
    }, replicas=3)

    # Telemetry: Prometheus-like store scraped every 5 s, queried from the
    # eu-central vantage point (where our client and L3 instance live).
    store = TimeSeriesStore()
    scraper = Scraper(store, interval_s=5.0)
    source = PromMetricsSource(store, scope="eu-central")

    deployment = mesh.deployment("api")
    balancer = L3Balancer(sim, "api", deployment.backend_names(), source,
                          config=L3Config())
    proxy = mesh.client_proxy("eu-central", "api", balancer)
    mesh.register_all_telemetry(scraper)

    sim.every(scraper.interval_s, scraper.tick)
    balancer.start(sim)

    records = []
    loadgen = OpenLoopLoadGenerator(proxy, 150.0, rng.stream("load"), records)
    loadgen.start(sim, 300.0)

    # Observe the weights around the degradation episode.
    checkpoints = {}
    for when in (55.0, 100.0, 200.0):
        sim.call_at(when, lambda w=when: checkpoints.update(
            {w: dict(balancer.split.weights)}))
    sim.run(until=330.0)
    balancer.stop()
    sim.run(until=340.0)

    print(f"completed {len(records)} requests")
    latencies = [r.latency_s * 1000.0 for r in records]
    for name, value in percentile_summary(latencies).items():
        print(f"  {name}: {value:.1f} ms")

    print("\nTrafficSplit weights over time:")
    for when, weights in sorted(checkpoints.items()):
        phase = ("before degradation" if when < 60
                 else "during eu-west degradation" if when < 125
                 else "after recovery")
        print(f"  t={when:5.0f}s ({phase}): {weights}")


if __name__ == "__main__":
    main()
