"""LiveHarness: the real L3 control plane over a real networked mesh.

Boots N "clusters" as asyncio HTTP replica servers on localhost ports
(latency/failure behaviour driven by the scenario's
:class:`~repro.workloads.profiles.BackendProfile` schedules), routes an
open-loop load through a client-side weighted proxy, exposes the proxy's
telemetry on a Prometheus text ``/metrics`` endpoint, scrapes it over
HTTP into the existing :class:`~repro.telemetry.timeseries.TimeSeriesStore`,
and runs the simulator's own :class:`~repro.balancers.l3.L3Balancer`
(or C3, or plain round-robin) on a :class:`~repro.live.clock.WallClock`
against it for a wall-clock duration — one control plane, two substrates.

The run returns the same :class:`~repro.bench.coordinator.BenchmarkResult`
the simulation coordinator emits, so every report/analysis path works on
live results unchanged. Shutdown is graceful: the load generator stops
first, in-flight requests get a bounded drain, control loops are
cancelled, listeners close — and the harness records whether anything
leaked (:attr:`LiveHarness.leaked_tasks`, checked by the CI smoke job).
A control tick that raised is re-raised once teardown is done.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace

from repro.balancers.base import Balancer
from repro.balancers.c3 import C3Balancer, C3Config, C3Controller
from repro.balancers.l3 import L3Balancer
from repro.balancers.periodic import PeriodicSplitBalancer
from repro.balancers.round_robin import RoundRobinBalancer
from repro.bench.coordinator import SCENARIO_SERVICE, BenchmarkResult
from repro.core.config import L3Config
from repro.core.controller import L3Controller
from repro.core.leader import ControllerReplica, LeaseLock
from repro.errors import ConfigError, FaultSpecError
from repro.faults.base import Fault
from repro.faults.spec import parse_fault_spec, validate_fault_spec
from repro.live.chaos import LiveFaultInjector, LiveLinkShaper
from repro.live.clock import WallClock
from repro.live.exposition import render_exposition
from repro.live.loadgen import LiveLoadGenerator
from repro.live.proxy import LiveProxy
from repro.live.scrape import HttpScraper
from repro.live.server import MetricsServer, ReplicaServer
from repro.mesh.cluster import backend_name as make_backend_name
from repro.sim.rng import RngRegistry
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.scenarios import Scenario, build_scenario

# Algorithms the live harness can run. The per-request in-proxy policies
# (p2c, failover) are omitted: the live testbed exists to exercise the
# *controller* path (metrics → weights → split).
LIVE_ALGORITHMS = ("round-robin", "l3", "l3-peak", "c3")

# The paper's control cadence (reconcile every 5 s, 10 s windows) assumes
# multi-minute runs; live smoke runs last tens of seconds, so the default
# cadence scales the whole loop down proportionally from this reference.
_PAPER_INTERVAL_S = 5.0


def live_l3_config(reconcile_interval_s: float,
                   base: L3Config | None = None,
                   scrape_interval_s: float | None = None) -> L3Config:
    """An L3Config with the paper's loop proportionally re-timed.

    Every time constant of the control loop (windows, EWMA half-lives,
    staleness horizon) scales by ``reconcile_interval_s / 5 s``, so a
    1-second live cadence behaves like the paper's 5-second loop does
    over a 5x longer run. Non-temporal tunables are taken from ``base``.

    When ``scrape_interval_s`` is given, the metrics window is floored
    at **three** scrape intervals: ``rate()`` needs two samples inside
    the trailing window, and on the wall clock a round's samples land
    up to one interval after the tick that scheduled them (sleep drift,
    concurrent fetches), so the simulator's exactly-two-intervals
    minimum flaps between one and two visible samples live.
    """
    factor = reconcile_interval_s / _PAPER_INTERVAL_S
    base = base or L3Config()
    window_s = base.metrics_window_s * factor
    if scrape_interval_s is not None:
        window_s = max(window_s, 3.0 * scrape_interval_s)
    return replace(
        base,
        reconcile_interval_s=reconcile_interval_s,
        metrics_window_s=window_s,
        latency_half_life_s=base.latency_half_life_s * factor,
        inflight_half_life_s=base.inflight_half_life_s * factor,
        success_half_life_s=base.success_half_life_s * factor,
        rps_half_life_s=base.rps_half_life_s * factor,
        staleness_s=base.staleness_s * factor,
    )


def live_c3_config(reconcile_interval_s: float,
                   scrape_interval_s: float | None = None) -> C3Config:
    """A C3Config re-timed the same way as :func:`live_l3_config`."""
    factor = reconcile_interval_s / _PAPER_INTERVAL_S
    base = C3Config()
    window_s = base.metrics_window_s * factor
    if scrape_interval_s is not None:
        window_s = max(window_s, 3.0 * scrape_interval_s)
    return C3Config(
        reconcile_interval_s=reconcile_interval_s,
        metrics_window_s=window_s,
        latency_half_life_s=base.latency_half_life_s * factor,
        queue_half_life_s=base.queue_half_life_s * factor,
    )


def weight_points(weights: dict[str, int]) -> dict[str, float]:
    """Weights normalised to shares of 100 ("weight points")."""
    total = sum(weights.values())
    if total <= 0:
        share = 100.0 / max(len(weights), 1)
        return {name: share for name in weights}
    return {name: 100.0 * w / total for name, w in weights.items()}


@dataclass
class LiveConfig:
    """Environment knobs of one live run."""

    algorithm: str = "l3"
    duration_s: float = 30.0
    port_base: int = 18080
    host: str = "127.0.0.1"
    client_cluster: str = "cluster-1"
    seed: int = 1
    # Offered load; None uses the scenario's own RPS series (typically
    # hundreds of RPS — heavier than a CI smoke run needs).
    rps: float | None = 100.0
    scrape_interval_s: float = 1.0
    reconcile_interval_s: float = 1.0
    l3_config: L3Config | None = None
    replica_capacity: int = 64
    max_retries: int = 0
    retry_backoff_s: float = 0.0
    # Live runs default to a bounded per-attempt deadline: a wedged
    # localhost socket must not hang a CI job.
    request_timeout_s: float | None = 5.0
    outlier_ejection: object | None = None
    # Controller replicas; > 1 runs lease-based HA (satellite of §4).
    ha_replicas: int = 1
    lease_ttl_s: float = 3.0
    drain_s: float = 5.0
    arrival: str = "uniform"
    # Chaos: a --faults spec string or a parsed Fault list; times are
    # seconds into the run. None runs fault-free (no shaper, no task).
    faults: object = None

    def __post_init__(self):
        """Reject every unrunnable value before a single port is bound."""
        if self.algorithm not in LIVE_ALGORITHMS:
            raise ConfigError(
                f"algorithm must be one of {LIVE_ALGORITHMS}: "
                f"{self.algorithm!r}")
        for name in ("duration_s", "scrape_interval_s", "reconcile_interval_s",
                     "lease_ttl_s", "rps", "request_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive: {value}")
        for name, floor in (("drain_s", 0), ("max_retries", 0),
                            ("retry_backoff_s", 0), ("ha_replicas", 1),
                            ("replica_capacity", 1)):
            if getattr(self, name) < floor:
                raise ConfigError(
                    f"{name} must be >= {floor}: {getattr(self, name)}")
        if not 0 < self.port_base < 65536 - 256:
            raise ConfigError(f"port_base out of range: {self.port_base}")


@dataclass
class _LiveParts:
    """Everything the boot phase wires together (torn down in reverse)."""

    servers: dict[str, ReplicaServer] = field(default_factory=dict)
    metrics_server: MetricsServer | None = None
    proxy: LiveProxy | None = None
    balancer: Balancer | None = None
    controllers: list = field(default_factory=list)
    replicas: list[ControllerReplica] = field(default_factory=list)
    lease: LeaseLock | None = None
    scraper: HttpScraper | None = None
    # The WallClock.every handles: the scrape loop and the control tick.
    loops: list = field(default_factory=list)
    loadgen: LiveLoadGenerator | None = None
    shaper: LiveLinkShaper | None = None
    injector: LiveFaultInjector | None = None
    chaos: asyncio.Task | None = None


class LiveHarness:
    """Orchestrates one live run end to end."""

    def __init__(self, scenario: str | Scenario,
                 config: LiveConfig | None = None):
        if isinstance(scenario, str):
            scenario = build_scenario(scenario)
        self.scenario = scenario
        self.config = config or LiveConfig()
        self.clock: WallClock | None = None
        self.records: list = []
        self.parts = _LiveParts()
        # The split's applied-weight trajectory as (now, weights), one
        # entry per applied reconcile (empty for round-robin).
        self.weight_history: list[tuple[float, dict[str, int]]] = []
        # Post-run shutdown accounting, read by the CLI and CI smoke job.
        self.leaked_tasks: list[str] = []
        self.ports: list[int] = []

    # ------------------------------------------------------------- boot #

    def _parse_faults(self) -> list[Fault]:
        """The run's fault schedule, validated against this topology.

        Spec strings and pre-built fault lists both go through
        :func:`~repro.faults.spec.validate_fault_spec` with the
        scenario's clusters and the harness's service, plus the live
        substrate's own constraints — controller-crash needs HA mode
        and an existing replica index, and each live backend has
        exactly one (process-level) replica — so a schedule that cannot
        run fails before a single port is bound.
        """
        from repro.faults.faults import ControllerCrash, ControllerPause

        config = self.config
        if config.faults is None:
            return []
        clusters = set(self.scenario.clusters())
        services = {SCENARIO_SERVICE}
        if isinstance(config.faults, str):
            faults = parse_fault_spec(config.faults, clusters=clusters,
                                      services=services)
        else:
            faults = list(config.faults)
            validate_fault_spec(faults, clusters=clusters,
                                services=services)
        for fault in faults:
            if isinstance(fault, (ControllerCrash, ControllerPause)) \
                    and config.algorithm == "round-robin":
                raise FaultSpecError(
                    f"fault spec: {fault} targets the controller, but "
                    f"round-robin runs without one")
            if isinstance(fault, ControllerCrash):
                if config.ha_replicas < 2:
                    raise FaultSpecError(
                        f"fault spec: {fault} needs HA mode "
                        f"(ha_replicas > 1); got {config.ha_replicas}")
                if fault.replica_index >= config.ha_replicas:
                    raise FaultSpecError(
                        f"fault spec: {fault} names replica "
                        f"{fault.replica_index}, but only "
                        f"{config.ha_replicas} run")
            index = getattr(fault, "replica_index", None)
            if not isinstance(fault, ControllerCrash) and index:
                raise FaultSpecError(
                    f"fault spec: {fault} names replica {index}, but "
                    f"each live backend is a single server (index 0)")
        return faults

    async def _boot_servers(self, rng: RngRegistry) -> dict[str, tuple]:
        """Start one replica server per cluster; returns name → address."""
        config = self.config
        addresses: dict[str, tuple[str, int]] = {}
        next_port = config.port_base
        for cluster in self.scenario.clusters():
            name = make_backend_name(SCENARIO_SERVICE, cluster)
            server = ReplicaServer(
                name, self.scenario.cluster_profiles[cluster],
                rng.stream(f"live-server-{cluster}"), self.clock,
                host=config.host, capacity=config.replica_capacity)
            port = await server.start(next_port)
            self.parts.servers[name] = server
            addresses[name] = (config.host, port)
            self.ports.append(port)
            next_port = port + 1
        return addresses

    def _build_balancer(self, backend_names, store: TimeSeriesStore,
                        ) -> Balancer:
        """The algorithm's balancer on the wall clock, at zero propagation.

        HA mode adds standby controllers on the same split, each wrapped
        in a :class:`~repro.core.leader.ControllerReplica` over one lease.
        """
        config = self.config
        if config.algorithm == "round-robin":
            return RoundRobinBalancer(backend_names)
        source = PromMetricsSource(store, scope=config.client_cluster)
        if config.algorithm == "c3":
            make, standby = C3Balancer, C3Controller
            controller_config = live_c3_config(config.reconcile_interval_s,
                                               config.scrape_interval_s)
        else:
            make, standby = L3Balancer, L3Controller
            controller_config = replace(
                live_l3_config(config.reconcile_interval_s,
                               base=config.l3_config,
                               scrape_interval_s=config.scrape_interval_s),
                use_peak_ewma=(config.algorithm == "l3-peak"))
        balancer = make(self.clock, SCENARIO_SERVICE, backend_names, source,
                        config=controller_config, propagation_delay_s=0.0)
        self.parts.controllers = [balancer.controller] + [
            standby(list(backend_names), source, balancer.split,
                    config=balancer.config, start_time=self.clock.now)
            for _ in range(config.ha_replicas - 1)]
        if config.ha_replicas > 1:
            lease = LeaseLock(ttl_s=config.lease_ttl_s, clock=self.clock)
            self.parts.lease = lease
            self.parts.replicas = [
                ControllerReplica(f"replica-{i}", controller, lease)
                for i, controller in enumerate(self.parts.controllers)]
        return balancer

    # -------------------------------------------------------------- run #

    def run(self) -> BenchmarkResult:
        """Synchronous entry point: boot, run, tear down, report."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> BenchmarkResult:
        """Boot, load, tear down; re-raises a control tick's exception.

        Teardown runs however the run ends, a half-done boot included.
        """
        self.clock = WallClock()
        faults = self._parse_faults()
        try:
            await self._boot(faults)
            await self.parts.loadgen.run(self.config.duration_s)
        finally:
            await self._shutdown()
        for loop in self.parts.loops:
            if loop.error is not None:
                raise loop.error
        return self._result()

    async def _boot(self, faults: list[Fault]) -> None:
        config = self.config
        parts = self.parts
        rng = RngRegistry(config.seed)
        store = TimeSeriesStore()
        addresses = await self._boot_servers(rng)
        parts.balancer = balancer = self._build_balancer(
            list(addresses), store)

        parts.shaper = LiveLinkShaper() if faults else None
        parts.proxy = proxy = LiveProxy(
            config.client_cluster, SCENARIO_SERVICE, addresses,
            balancer, rng.stream("live-proxy"), self.clock,
            max_retries=config.max_retries,
            retry_backoff_s=config.retry_backoff_s,
            request_timeout_s=config.request_timeout_s,
            outlier_ejection=config.outlier_ejection,
            link=parts.shaper)

        parts.metrics_server = MetricsServer(
            lambda: render_exposition(proxy.telemetry_bundles()),
            host=config.host)
        metrics_port = await parts.metrics_server.start(
            max(self.ports, default=config.port_base) + 1)
        self.ports.append(metrics_port)

        targets = [(config.host, metrics_port)] + list(addresses.values())
        parts.scraper = HttpScraper(store, targets, self.clock,
                                    interval_s=config.scrape_interval_s)

        rps = self.scenario.rps if config.rps is None else config.rps
        parts.loadgen = LiveLoadGenerator(
            proxy, rps, rng.stream("live-loadgen"), self.records,
            self.clock, arrival=config.arrival)

        if faults:
            parts.injector = LiveFaultInjector(
                SCENARIO_SERVICE, parts.servers, parts.shaper, self.clock,
                metrics_server=parts.metrics_server,
                controllers=parts.controllers, replicas=parts.replicas)
            parts.injector.schedule_all(faults)
            parts.chaos = asyncio.ensure_future(parts.injector.run())
            parts.chaos.set_name("chaos-injector")

        parts.loops.append(
            self.clock.every(parts.scraper.interval_s, parts.scraper.tick))
        if isinstance(balancer, PeriodicSplitBalancer):
            parts.loops.append(self.clock.every(
                config.reconcile_interval_s, self._control_tick))

    def _control_tick(self, now: float) -> None:
        """One reconcile turn (the balancer's, or each HA replica's);
        records the split's weights when the turn applied an update."""
        split = self.parts.balancer.split
        applied = split.update_count
        if self.parts.replicas:
            for replica in self.parts.replicas:
                replica.step(now)
        else:
            self.parts.balancer.tick(now)
        if split.update_count != applied:
            self.weight_history.append((now, split.weights))

    async def _shutdown(self) -> None:
        """Drain in-flight requests, stop loops, release ports.

        The chaos injector dies first — no new faults land mid-teardown
        — and everything it stalled (blackholed handlers, broken
        /metrics pages, partitioned links) is released, so requests
        parked on injected silence resolve during the drain instead of
        showing up in the leak report. A run that ends with a replica
        still crashed must exit as clean as a fault-free one. Parts a
        failed boot never built are skipped.
        """
        parts = self.parts
        if parts.chaos is not None:
            parts.chaos.cancel()
            await asyncio.gather(parts.chaos, return_exceptions=True)
        if parts.injector is not None:
            parts.injector.close()
        if parts.shaper is not None:
            parts.shaper.release()
        for server in parts.servers.values():
            server.release_stalls()
        if parts.metrics_server is not None:
            parts.metrics_server.release_stalls()
        loadgen = parts.loadgen
        if loadgen is not None and loadgen.inflight:
            _done, pending = await asyncio.wait(
                set(loadgen.inflight), timeout=self.config.drain_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

        for loop in parts.loops:
            loop.cancel()
        if parts.scraper is not None:
            await parts.scraper.cancel_rounds()

        # Client pools go before the servers: a parked connection is an
        # idle handler on the other side, and both ends should be gone
        # by the time the leak report is taken.
        for client in self.http_clients():
            await client.aclose()
        if parts.metrics_server is not None:
            await parts.metrics_server.stop()
        for server in parts.servers.values():
            await server.stop()

        current = asyncio.current_task()
        self.leaked_tasks = sorted(
            task.get_name() for task in asyncio.all_tasks()
            if task is not current and not task.done())

    # ----------------------------------------------------------- report #

    @property
    def clean_shutdown(self) -> bool:
        """True when teardown left no running tasks behind."""
        return not self.leaked_tasks

    def http_clients(self) -> list:
        """The pooled clients of the run: the proxy's and the scraper's."""
        clients = []
        if self.parts.proxy is not None:
            clients.append(self.parts.proxy.transport.client)
        if self.parts.scraper is not None:
            clients.append(self.parts.scraper.client)
        return clients

    @property
    def connections_opened(self) -> int:
        """TCP connections the proxy and scraper opened over the run."""
        return sum(c.connections_opened for c in self.http_clients())

    @property
    def connection_reuse_ratio(self) -> float:
        """Share of HTTP requests that rode an already-open connection."""
        sent = sum(c.requests_sent for c in self.http_clients())
        return 1.0 - self.connections_opened / sent if sent else 0.0

    @property
    def fault_log(self) -> list[tuple[float, str]]:
        """Applied/reverted faults as ``(run_time_s, description)``."""
        injector = self.parts.injector
        return list(injector.log) if injector is not None else []

    @property
    def chaos_errors(self) -> list[str]:
        """Faults that could not run (misconfigured experiments)."""
        injector = self.parts.injector
        return list(injector.errors) if injector is not None else []

    @property
    def lease_transitions(self) -> list[tuple[float, str]]:
        """Leadership changes as ``(run_time_s, replica_name)`` (HA)."""
        lease = self.parts.lease
        return list(lease.transitions) if lease is not None else []

    def final_weights(self) -> dict[str, int]:
        """The last weights the leader pushed (empty for round-robin)."""
        for controller in self.parts.controllers:
            if controller.last_weights:
                return dict(controller.last_weights)
        return {}

    def _result(self) -> BenchmarkResult:
        return BenchmarkResult(
            scenario=self.scenario.name,
            algorithm=self.config.algorithm,
            seed=self.config.seed,
            duration_s=self.config.duration_s,
            records=list(self.records),
            controller_weights=self.final_weights(),
        )


def run_live(scenario: str | Scenario, algorithm: str = "l3",
             duration_s: float = 30.0, port_base: int = 18080,
             seed: int = 1, faults: object = None,
             config: LiveConfig | None = None,
             ) -> tuple[BenchmarkResult, LiveHarness]:
    """Convenience wrapper: build a harness, run it, return both.

    ``config`` overrides the individual keyword arguments when given.
    """
    if config is None:
        config = LiveConfig(algorithm=algorithm, duration_s=duration_s,
                            port_base=port_base, seed=seed, faults=faults)
    harness = LiveHarness(scenario, config)
    return harness.run(), harness
