"""Balancer registry: one table names every algorithm the harness races.

Algorithms register themselves with the :func:`register_balancer`
decorator; :data:`BALANCER_NAMES`, the CLI's ``--algorithm`` choices and
the tournament's enumeration all derive from that single table, so
adding an algorithm is exactly one decorated builder function here (plus
its implementation module). Registration order is presentation order —
the paper's set first, then the extensions, then the retrieved-work zoo
— and it is frozen into :data:`BALANCER_NAMES` at import time.

A builder receives the full wiring context (simulator, service,
backends, metrics source, config knobs) and returns a ready
:class:`~repro.balancers.base.Balancer`; per-request algorithms simply
ignore the parts they do not need. Each builder imports its own
implementation, so reading the table (the CLI's choices, the
tournament's enumeration) loads no algorithm and a run loads only the
one it builds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import L3Config
from repro.errors import ConfigError


@dataclass(frozen=True)
class BalancerSpec:
    """One registry row: how to build an algorithm, and what it is."""

    name: str
    builder: object
    summary: str
    #: True when the algorithm runs a periodic reconcile-loop controller
    #: (exposed as ``balancer.controller``) — what ControllerPause
    #: faults target and what the coordinator introspects weights from.
    controller: bool = False


_REGISTRY: dict[str, BalancerSpec] = {}


def register_balancer(name: str, *, summary: str, controller: bool = False):
    """Class decorator-style registration of one balancer builder."""
    def decorate(builder):
        if name in _REGISTRY:
            raise ConfigError(f"balancer {name!r} registered twice")
        _REGISTRY[name] = BalancerSpec(
            name=name, builder=builder, summary=summary,
            controller=controller)
        return builder
    return decorate


def _periodic(ctx, controller_type, config=None):
    """The controller-based algorithms' one balancer class."""
    from repro.balancers.periodic import PeriodicSplitBalancer

    return PeriodicSplitBalancer(
        ctx.sim, ctx.service, ctx.backend_names, ctx.metrics_source,
        controller_type, config=config,
        propagation_delay_s=ctx.propagation_delay_s)


@register_balancer(
    "round-robin",
    summary="cycle through backends in fixed order (paper baseline)")
def _build_round_robin(ctx):
    from repro.balancers.round_robin import RoundRobinBalancer

    return RoundRobinBalancer(ctx.backend_names)


@register_balancer(
    "c3", controller=True,
    summary="cubic queue-aware scoring, adapted (paper comparator)")
def _build_c3(ctx):
    from repro.balancers.c3 import C3Controller

    return _periodic(ctx, C3Controller)


@register_balancer(
    "l3", controller=True,
    summary="the paper's latency-aware controller (EWMA filter)")
def _build_l3(ctx):
    from repro.core.controller import L3Controller

    config = replace(ctx.l3_config or L3Config(), use_peak_ewma=False)
    return _periodic(ctx, L3Controller, config)


@register_balancer(
    "l3-peak", controller=True,
    summary="L3 with the PeakEWMA latency filter (paper §5.2.2)")
def _build_l3_peak(ctx):
    from repro.core.controller import L3Controller

    config = replace(ctx.l3_config or L3Config(), use_peak_ewma=True)
    return _periodic(ctx, L3Controller, config)


@register_balancer(
    "p2c",
    summary="power-of-two-choices + PeakEWMA cost (Linkerd default)")
def _build_p2c(ctx):
    from repro.balancers.p2c import P2cPeakEwmaBalancer

    return P2cPeakEwmaBalancer(ctx.backend_names, start_time=ctx.sim.now)


@register_balancer(
    "failover",
    summary="locality failover on health checks (related work §6)")
def _build_failover(ctx):
    from repro.balancers.failover import FailoverBalancer
    from repro.mesh.cluster import split_backend_name

    ordered = sorted(
        ctx.backend_names,
        key=lambda n: (split_backend_name(n)[1] != ctx.local_cluster, n))
    return FailoverBalancer(ordered)


@register_balancer(
    "least-outstanding",
    summary="fewest in-flight requests wins (classical client-side)")
def _build_least_outstanding(ctx):
    from repro.balancers.least_outstanding import LeastOutstandingBalancer

    return LeastOutstandingBalancer(ctx.backend_names)


@register_balancer(
    "ewma",
    summary="greedy lowest-EWMA-latency pick with epsilon exploration")
def _build_ewma(ctx):
    from repro.balancers.ewma_latency import EwmaLatencyBalancer

    return EwmaLatencyBalancer(ctx.backend_names, start_time=ctx.sim.now)


@register_balancer(
    "knapsack", controller=True,
    summary="KnapsackLB: greedy knapsack over calibrated latency curves")
def _build_knapsack(ctx):
    from repro.balancers.knapsack import KnapsackLbController

    return _periodic(ctx, KnapsackLbController)


@register_balancer(
    "gradient",
    summary="distributed projected-gradient split on observed latency")
def _build_gradient(ctx):
    from repro.balancers.gradient import GradientDescentBalancer

    return GradientDescentBalancer(ctx.backend_names)


@register_balancer(
    "service-rate", controller=True,
    summary="workload-dependent service-rate estimation + fixed point")
def _build_service_rate(ctx):
    from repro.balancers.service_rate import ServiceRateController

    return _periodic(ctx, ServiceRateController)


#: Every registered algorithm, in registration (= presentation) order.
BALANCER_NAMES = tuple(_REGISTRY)


@dataclass(frozen=True)
class _BuildContext:
    """The wiring a builder may draw from (builders ignore the rest)."""

    sim: object
    service: str
    backend_names: tuple
    metrics_source: object
    l3_config: L3Config | None
    propagation_delay_s: float
    local_cluster: str | None


def balancer_specs() -> tuple[BalancerSpec, ...]:
    """The registry rows, in registration order."""
    return tuple(_REGISTRY.values())


def controller_balancer_names() -> tuple[str, ...]:
    """Algorithms that run a reconcile-loop controller."""
    return tuple(spec.name for spec in _REGISTRY.values() if spec.controller)


def make_balancer(name: str, sim, service: str, backend_names,
                  metrics_source, l3_config: L3Config | None = None,
                  propagation_delay_s: float = 0.5,
                  local_cluster: str | None = None):
    """Build the named balancer wired for ``service``.

    Args:
        name: one of :data:`BALANCER_NAMES`.
        sim: the simulator (needed by controller-based balancers).
        service: destination service (TrafficSplit identity).
        backend_names: the service's backend names.
        metrics_source: the windowed metrics source (ignored by
            per-request balancers).
        l3_config: L3 tunables; for ``"l3-peak"`` the PeakEWMA flag is
            forced on (and off for plain ``"l3"``).
        propagation_delay_s: control-plane weight push latency.
        local_cluster: the caller's cluster; required by ``"failover"``
            (the local backend is the top preference).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown balancer {name!r}; expected one of {BALANCER_NAMES}")
    ctx = _BuildContext(
        sim=sim, service=service, backend_names=tuple(backend_names),
        metrics_source=metrics_source, l3_config=l3_config,
        propagation_delay_s=propagation_delay_s,
        local_cluster=local_cluster)
    return spec.builder(ctx)
