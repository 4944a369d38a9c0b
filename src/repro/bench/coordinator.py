"""The benchmark coordinator (paper §5.1, "TIER Mobility" paragraph).

Mirrors the paper's procedure: deploy the workload on a three-cluster
mesh, warm up (to populate caches and establish EWMA baselines), run the
scenario for its duration with an open-loop client, then collect every
request's latency and status and compute exact percentiles and success
rates.

What every run uses is imported here; what only some runs use (the
autoscaler, the call-graph applications) is imported by the branch or
function that runs it (DESIGN.md, "What a process imports").
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

# The paper's algorithm, which the benchmarks run, loads with the
# coordinator rather than inside the first run; the registry imports
# every other balancer when one is built.
import repro.balancers.periodic  # noqa: F401
import repro.core.controller  # noqa: F401
from repro.analysis.percentiles import Percentiles
from repro.analysis.stats import success_rate as _success_rate
from repro.balancers.factory import controller_balancer_names, make_balancer
from repro.core.config import L3Config
from repro.env import MeshEnv
from repro.errors import ConfigError
from repro.faults.base import FaultInjector
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.scraper import Scraper
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.loadgen import OpenLoopLoadGenerator
from repro.workloads.scenarios import Scenario, build_scenario

# The logical service name TIER-like scenarios are deployed under.
SCENARIO_SERVICE = "api"


@dataclass(frozen=True, kw_only=True)
class ScenarioBenchConfig(MeshEnv):
    """The simulated mesh: :class:`~repro.env.MeshEnv` plus a warm-up and
    the paper's topology (§5.1) — three replicas per cluster, ~10 ms
    inter-cluster one-way delay."""

    warmup_s: float = 30.0
    replicas: int = 3
    wan_base_delay_s: float = 0.010
    propagation_delay_s: float = 0.5

    _FLOORS = MeshEnv._FLOORS + (("warmup_s", 0), ("replicas", 1))


_DEFAULT_ENV = ScenarioBenchConfig()
# ScenarioBenchConfig fields that configure the scenario benchmarks' one
# client proxy; call-graph applications build their own proxies.
_PROXY_KNOBS = ("max_retries", "retry_backoff_s", "request_timeout_s",
                "outlier_ejection")


@dataclass
class BenchmarkResult:
    """Everything one benchmark run produced.

    Attributes:
        scenario: scenario (or application) name.
        algorithm: balancer name.
        seed: master seed of the run.
        duration_s: measured period (excludes warm-up).
        records: every completed request record of the measured period.
        controller_weights: final TrafficSplit weights, if the algorithm
            is controller-based (introspection, as the paper's coordinator
            retrieves L3's internal state).
        fault_log: ``(sim_time, description)`` per applied/reverted fault,
            when the run injected any.
        tracer: the :class:`~repro.tracing.recorder.MeshTracer` the run
            recorded into, when one was passed — its recorder feeds the
            exporters and the critical-path report.
        events_processed: kernel events the run's simulator dispatched
            (warm-up and drain included) — the numerator of the
            events/sec perf baseline in ``benchmarks/bench_perf.py``.
        autoscale_events: merged ``(time, backend, delta,
            replicas_after)`` log of every replica admitted or retired,
            when the run autoscaled (times include warm-up).
        replica_seconds: per-backend cost integrals
            ∫(running + provisioning) dt over the whole run.
        weight_samples: ``(time, {backend: weight})`` TrafficSplit
            snapshots taken at autoscaler ticks — the raw series of the
            control-loop interaction study.
        final_replicas: per-backend replica counts at the end of the run.
    """

    scenario: str
    algorithm: str
    seed: int
    duration_s: float
    records: list
    controller_weights: dict = field(default_factory=dict)
    fault_log: list = field(default_factory=list)
    tracer: object | None = None
    events_processed: int = 0
    autoscale_events: list = field(default_factory=list)
    replica_seconds: dict = field(default_factory=dict)
    weight_samples: list = field(default_factory=list)
    final_replicas: dict = field(default_factory=dict)

    @property
    def total_replica_seconds(self) -> float:
        """Fleet-wide elasticity cost (0.0 when the run never autoscaled)."""
        return sum(self.replica_seconds.values())

    @property
    def request_count(self) -> int:
        return len(self.records)

    @property
    def success_rate(self) -> float:
        """Fraction of successful requests in the measured period."""
        return _success_rate(self.records)

    def latency_percentiles(self) -> Percentiles:
        """Percentile reader over the measured latencies (sorted once).

        The sort is cached on the result: reading a whole spectrum plus
        p50/p90/p99 costs one O(n log n) pass total.
        """
        if not self.records:
            raise ValueError("no records captured")
        cached = self.__dict__.get("_latency_percentiles")
        if cached is None or len(cached) != len(self.records):
            cached = Percentiles(r.latency_s for r in self.records)
            self.__dict__["_latency_percentiles"] = cached
        return cached

    def latency_percentile_ms(self, q: float) -> float:
        """Exact latency percentile over all measured requests, in ms."""
        return self.latency_percentiles().percentile(q) * 1000.0

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile_ms(0.50)

    @property
    def p90_ms(self) -> float:
        return self.latency_percentile_ms(0.90)

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile_ms(0.99)


def _build_world(clusters, seed: int, env: ScenarioBenchConfig, tracer):
    """A fresh simulator, RNG registry, mesh and telemetry pipeline."""
    # A finished run's world is one reference cycle (mesh <-> proxies <->
    # sim <-> pre-bound callbacks), so dead worlds pile up until
    # CPython's next gen-2 pass and peak RSS depends on how many runs
    # fit before it — in run_cells workers and in the ledger's repeats.
    gc.collect()
    sim = Simulator()
    rng = RngRegistry(seed)
    mesh = ServiceMesh(
        sim, rng, clusters=clusters,
        wan_link=WanLink(base_delay_s=env.wan_base_delay_s), tracer=tracer)
    store = TimeSeriesStore()
    scraper = Scraper(store, interval_s=env.scrape_interval_s)
    return sim, rng, mesh, store, scraper


def _run_measured(sim, rng, scraper, target, rps, control,
                  env: ScenarioBenchConfig, duration_s: float,
                  autoscale_set=None) -> list:
    """Warm up, measure, drain; returns the measured period's records.

    ``control`` is whatever owns the control loops (``start(sim)`` /
    ``stop()``): a balancer, or a call-graph app with one per hop.
    """
    scrape_loop = sim.every(scraper.interval_s, scraper.tick)
    control.start(sim)
    if autoscale_set is not None:
        autoscale_set.start(sim)

    records: list = []
    loadgen = OpenLoopLoadGenerator(
        target, rps, rng.stream("loadgen"), records, arrival=env.arrival)
    total = env.warmup_s + duration_s
    loadgen.start(sim, total)

    sim.run(until=total)
    control.stop()
    if autoscale_set is not None:
        autoscale_set.stop(total)
    scrape_loop.cancel()
    # Let in-flight requests finish so tail samples are not truncated.
    sim.run(until=total + env.drain_s)
    return [r for r in records
            if env.warmup_s <= r.intended_start_s < total]


def run_scenario_benchmark(scenario: str | Scenario, algorithm: str,
                           duration_s: float = 600.0, seed: int = 1,
                           l3_config: L3Config | None = None,
                           env: ScenarioBenchConfig | None = None,
                           faults: list | None = None,
                           tracer=None,
                           engine: str = "fast",
                           autoscale=None,
                           ) -> BenchmarkResult:
    """Run one TIER-like scenario under one balancing algorithm.

    Args:
        scenario: a scenario name (see
            :data:`repro.workloads.scenarios.SCENARIO_NAMES`) or a
            prebuilt :class:`Scenario`.
        algorithm: balancer name (see
            :data:`repro.balancers.factory.BALANCER_NAMES`).
        duration_s: measured duration (the paper runs 10 minutes; shorter
            runs keep the same trace character).
        seed: master seed — one seed, one fully deterministic run.
        l3_config: L3 tunables (penalty sweeps etc.).
        env: environment knobs; defaults to the paper's setup.
        faults: extra :class:`~repro.faults.base.Fault` schedules, merged
            with ``scenario.faults``. Fault times count from the start of
            the measured period (warm-up is prepended automatically).
            A controller fault the run cannot carry out raises
            :class:`~repro.errors.FaultSpecError` before it starts.
        tracer: optional :class:`~repro.tracing.recorder.MeshTracer`;
            when given, every request of the run (warm-up included) emits
            spans into it, and a controller-based algorithm additionally
            records its decision audit log, joinable to the data-plane
            spans via the ``decision_id`` attribute.
        engine: ``"fast"`` or its alias ``"vector"``; there is one
            request lifecycle, anything else is a :class:`ConfigError`.
        autoscale: per-cluster elasticity — an
            :class:`~repro.autoscale.policy.AutoscalePolicy` (applied to
            every cluster), ``{cluster: policy}``, or a CLI-style spec
            string (:func:`~repro.autoscale.spec.parse_autoscale_spec`).
            ``None`` falls back to ``scenario.autoscale``; when that is
            also ``None`` the run is byte-identical to autoscale-free
            builds.
    """
    env = env or ScenarioBenchConfig()
    # The parameter survives only because benchmarks/ledger/workloads.py,
    # which this change may not touch, passes these two values.
    if engine not in ("fast", "vector"):
        raise ConfigError(f"engine must be 'fast': {engine!r}")
    if isinstance(scenario, str):
        # Always build the canonical 10-minute trace (it is a fixed,
        # deterministic recording); a shorter benchmark simply measures a
        # prefix of it, a longer one wraps around.
        scenario = build_scenario(scenario)
    all_faults = list(scenario.faults) + list(faults or [])
    if all_faults:
        from repro.faults.spec import check_controller_faults

        check_controller_faults(
            all_faults, algorithm,
            has_controller=algorithm in controller_balancer_names())
    sim, rng, mesh, store, scraper = _build_world(
        scenario.clusters(), seed, env, tracer)
    # Fleet scenarios carry their own topology: per-cluster replica
    # counts, capacities, and a WAN link matrix replace the uniform
    # defaults.
    topology = scenario.topology
    replicas: int | dict = env.replicas
    replica_capacity: int | dict = env.replica_capacity
    if topology is not None:
        replicas = topology.replicas
        replica_capacity = topology.capacities
        for (src, dst), link in topology.links.items():
            mesh.network.set_link(src, dst, link, symmetric=False)
    mesh.deploy_service(
        SCENARIO_SERVICE, profiles=scenario.cluster_profiles,
        replicas=replicas, replica_capacity=replica_capacity)
    # The benchmark client (and its L3 instance) live in the client
    # cluster; metrics are queried from that cluster's vantage point.
    source = PromMetricsSource(store, scope=env.client_cluster)

    deployment = mesh.deployment(SCENARIO_SERVICE)
    balancer = make_balancer(
        algorithm, sim, SCENARIO_SERVICE, deployment.backend_names(),
        source, l3_config=l3_config,
        propagation_delay_s=env.propagation_delay_s,
        local_cluster=env.client_cluster)
    proxy = mesh.client_proxy(
        env.client_cluster, SCENARIO_SERVICE, balancer,
        max_retries=env.max_retries, retry_backoff_s=env.retry_backoff_s,
        request_timeout_s=env.request_timeout_s,
        outlier_ejection=env.outlier_ejection)
    mesh.register_all_telemetry(scraper)
    controller = getattr(balancer, "controller", None)

    if tracer is not None and controller is not None:
        from repro.tracing.audit import DecisionAuditLog

        audit = DecisionAuditLog(tracer, prefix=algorithm)
        controller.audit = audit
        tracer.audit = audit

    injector = None
    if all_faults:
        injector = FaultInjector(
            mesh, scraper=scraper,
            controllers=[controller] if controller is not None else [])
        injector.schedule_all(all_faults, offset_s=env.warmup_s)

    if autoscale is None:
        autoscale = scenario.autoscale
    autoscale_set = None
    if autoscale is not None:
        from repro.autoscale.driver import SimAutoscaleSet
        from repro.autoscale.spec import resolve_autoscale_policies

        policies = resolve_autoscale_policies(
            autoscale, scenario.clusters())
        autoscale_set = SimAutoscaleSet(
            deployment, policies, source, scraper,
            controller=controller)

    measured = _run_measured(
        sim, rng, scraper, proxy, scenario.rps, balancer, env, duration_s,
        autoscale_set=autoscale_set)
    weights = {}
    if controller is not None:
        weights = dict(controller.last_weights)
    result = BenchmarkResult(
        scenario=scenario.name, algorithm=algorithm, seed=seed,
        duration_s=duration_s, records=measured,
        controller_weights=weights,
        fault_log=list(injector.log) if injector else [],
        tracer=tracer, events_processed=sim.events_processed)
    if autoscale_set is not None:
        result.autoscale_events = autoscale_set.event_log()
        result.replica_seconds = autoscale_set.replica_seconds()
        result.weight_samples = list(autoscale_set.weight_samples)
        result.final_replicas = autoscale_set.final_replicas()
    return result


def run_callgraph_benchmark(build_application, app_name: str,
                            algorithm: str, rps: float = 200.0,
                            duration_s: float = 1200.0, seed: int = 1,
                            l3_config: L3Config | None = None,
                            env: ScenarioBenchConfig | None = None,
                            tracer=None,
                            ) -> BenchmarkResult:
    """Run any call-graph application under one balancing algorithm.

    Args:
        build_application: ``f(mesh, client_cluster, balancer_factory,
            rng) -> CallGraphApp`` (e.g.
            :func:`~repro.workloads.hotel.build_hotel_application` or
            :func:`~repro.workloads.social.build_social_application`).
        app_name: label recorded in the result.
        algorithm / rps / duration_s / seed / l3_config / env: as in
            :func:`run_scenario_benchmark`.
        tracer: optional :class:`~repro.tracing.recorder.MeshTracer`;
            every service-to-service hop of the call graph emits its own
            trace (hops are separate proxy dispatches).
    """
    env = env or ScenarioBenchConfig()
    for knob in _PROXY_KNOBS:
        if getattr(env, knob) != getattr(_DEFAULT_ENV, knob):
            raise ConfigError(
                f"{knob} is not wired into call-graph applications "
                f"(their proxies run the paper's configuration): "
                f"{getattr(env, knob)!r}")
    sim, rng, mesh, store, scraper = _build_world(
        ["cluster-1", "cluster-2", "cluster-3"], seed, env, tracer)

    def balancer_factory(service, backend_names, source_cluster):
        # One controller per (source cluster, destination service): each
        # cluster runs its own L3/C3 instance over its own TrafficSplit,
        # fed by metrics from its own proxies' vantage point.
        source = PromMetricsSource(store, scope=source_cluster)
        return make_balancer(
            algorithm, sim, service, backend_names, source,
            l3_config=l3_config,
            propagation_delay_s=env.propagation_delay_s,
            local_cluster=source_cluster)

    app = build_application(
        mesh, env.client_cluster, balancer_factory,
        rng.stream("callgraph-app"))
    app.prewire()
    mesh.register_all_telemetry(scraper)

    measured = _run_measured(
        sim, rng, scraper, app, rps, app, env, duration_s)
    return BenchmarkResult(
        scenario=app_name, algorithm=algorithm, seed=seed,
        duration_s=duration_s, records=measured, tracer=tracer,
        events_processed=sim.events_processed)


def run_hotel_benchmark(algorithm: str, rps: float = 200.0,
                        duration_s: float = 1200.0, seed: int = 1,
                        l3_config: L3Config | None = None,
                        env: ScenarioBenchConfig | None = None,
                        ) -> BenchmarkResult:
    """Run the DeathStarBench hotel-reservation benchmark (Fig. 9).

    The paper generates a 100 %-success workload at 200 RPS for 20
    minutes against the cluster-local frontend; every internal hop is
    balanced by ``algorithm``.
    """
    from repro.workloads.hotel import build_hotel_application

    return run_callgraph_benchmark(
        build_hotel_application, "hotel-reservation", algorithm,
        rps=rps, duration_s=duration_s, seed=seed, l3_config=l3_config,
        env=env)


def run_social_benchmark(algorithm: str, rps: float = 200.0,
                         duration_s: float = 600.0, seed: int = 1,
                         l3_config: L3Config | None = None,
                         env: ScenarioBenchConfig | None = None,
                         ) -> BenchmarkResult:
    """Run the social-network application (extension workload)."""
    from repro.workloads.social import build_social_application

    return run_callgraph_benchmark(
        build_social_application, "social-network", algorithm,
        rps=rps, duration_s=duration_s, seed=seed, l3_config=l3_config,
        env=env)
