"""Telemetry-driven elasticity: HPA-style autoscaling over scraped metrics.

§3.2 of the paper motivates latency-aware load balancing partly by its
interplay with cluster autoscaling — spreading load toward faster
backends "enables the cluster's autoscaling mechanisms to promptly
scale up". This package closes that loop: per-cluster horizontal
autoscalers run *concurrently* with the L3/C3 weight controllers,
reading the same scraped telemetry (the server-side in-flight gauge,
RPS, P99), so the two control loops interact through the plant exactly
as they do in a real mesh — weights shift traffic, replicas change
capacity, both react to what the other did one scrape interval ago.

The core (:class:`~repro.autoscale.controller.BackendAutoscaler`) is a
clock-agnostic ``step(now)`` state machine with Kubernetes-HPA
semantics — provisioning lag, scale-up/down stabilization windows,
cold-start warmup, replica-seconds cost accounting — driven by two
substrates: simulated benchmarks (:class:`SimAutoscaleSet`) and plain
unit tests (the live testbed does not autoscale; DESIGN.md §5i).
Policies come from :class:`AutoscalePolicy` or the CLI ``--autoscale``
spec grammar (:func:`parse_autoscale_spec`). Everything is strictly
opt-in: with no policy configured, no loop, gauge, or RNG draw is
created and simulation digests are byte-identical to autoscale-free
builds.

The elasticity study (capacity modes, flap and settle estimators) is a
declaration over the bench layer's :mod:`repro.bench.study`.
"""

from repro.autoscale.controller import BackendAutoscaler
from repro.autoscale.driver import SimAutoscaleSet
from repro.autoscale.policy import METRIC_NAMES, AutoscalePolicy
from repro.autoscale.spec import (
    AUTOSCALE_SPEC_KEYS,
    describe_policies,
    parse_autoscale_spec,
    resolve_autoscale_policies,
)
from repro.autoscale.targets import SimBackendTarget

__all__ = [
    "AUTOSCALE_SPEC_KEYS",
    "AutoscalePolicy",
    "BackendAutoscaler",
    "METRIC_NAMES",
    "SimAutoscaleSet",
    "SimBackendTarget",
    "describe_policies",
    "parse_autoscale_spec",
    "resolve_autoscale_policies",
]
