"""Generic microservice call-graph execution over the mesh.

A call-graph application is a set of services, each with its own compute
time and a sequence of *stages* it runs while serving a request: a stage
either fans out to downstream services in parallel, or performs a cached
read (hit the cache, fall through to the database on a miss). Entry points
(endpoints) define per-request-type flows at the root service, selected by
weight — modelling a wrk2 script's request mix.

Every service-to-service hop goes through a client-side proxy, so every
hop is load-balanced between clusters by the algorithm under test — except
services marked ``local_only`` (stateful caches/databases), which pin to
the caller's cluster, as the paper's deployment does implicitly by having
stateful backends per cluster.

Execution is continuation-style on the one request lifecycle
(:mod:`repro.mesh.fastdispatch`): a hop is a proxy dispatch whose flight
runs the called service's stages as a *body* on the chosen replica —
holding its slot, thread-per-request — and resumes when the last stage
is done (:class:`_Body`, which also documents the event order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.balancers.static_weights import StaticWeightBalancer
from repro.errors import ConfigError, MeshError
from repro.mesh.cluster import backend_name
from repro.workloads.profiles import constant_backend_profile


@dataclass(frozen=True)
class ParallelCalls:
    """One stage: call these services concurrently, wait for all."""

    services: tuple[str, ...]

    def __post_init__(self):
        if not self.services:
            raise ConfigError("a parallel stage needs at least one service")


@dataclass(frozen=True)
class CachedRead:
    """One stage: read through a cache with fall-through to a database."""

    cache: str
    db: str
    hit_prob: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.hit_prob <= 1.0:
            raise ConfigError(f"hit prob must be in [0, 1]: {self.hit_prob}")


@dataclass(frozen=True)
class ServiceSpec:
    """Static description of one microservice.

    Attributes:
        name: service name.
        cpu_median_s / cpu_p99_s: the service's own compute time
            distribution (log-normal pinned at these percentiles).
        stages: downstream work performed while serving a request.
        local_only: pin calls to this service to the caller's cluster
            (stateful caches and databases).
        replicas: replicas per cluster.
        replica_capacity: concurrent requests per replica — the lever that
            creates saturation at high RPS (paper §5.3.1: ~1000 RPS
            saturates the hotel services at their scale).
    """

    name: str
    cpu_median_s: float
    cpu_p99_s: float
    stages: tuple = ()
    local_only: bool = False
    replicas: int = 3
    replica_capacity: int = 16


@dataclass(frozen=True)
class EndpointSpec:
    """One request type of the workload mix (a wrk2 script branch)."""

    name: str
    weight: float
    stages: tuple

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError(f"endpoint weight must be > 0: {self.weight}")


class CallGraphApp:
    """A deployed call-graph application bound to one client cluster.

    Implements the load-generator target protocol (``dispatch``): each
    dispatched request picks an endpoint by weight, enters the root
    service in the client's cluster, and flows through the graph with
    every non-local hop balanced by the algorithm under test.
    """

    def __init__(self, mesh, services: dict[str, ServiceSpec],
                 endpoints, root_service: str, client_cluster: str,
                 balancer_factory, rng):
        """Args:
            mesh: a :class:`~repro.mesh.mesh.ServiceMesh` with every
                service in ``services`` already deployed.
            services: service name → spec.
            endpoints: iterable of :class:`EndpointSpec`.
            root_service: where requests enter (pinned to client cluster,
                as the paper's benchmark client hits the cluster-local
                frontend).
            client_cluster: the cluster the benchmark client runs in.
            balancer_factory: ``f(service, backend_names, source_cluster)
                -> Balancer`` building the multi-cluster balancer for one
                (destination service, source cluster) pair — each cluster
                runs its own controller instance, as the paper intends.
            rng: private random stream (endpoint mix, cache hits).
        """
        self.mesh = mesh
        self.services = dict(services)
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise ConfigError("an application needs at least one endpoint")
        if root_service not in self.services:
            raise ConfigError(f"unknown root service: {root_service!r}")
        self.root_service = root_service
        self.client_cluster = client_cluster
        self.rng = rng
        self._endpoint_total = sum(e.weight for e in self.endpoints)
        self._balancer_factory = balancer_factory
        self._shared_balancers: dict[str, object] = {}
        self._proxies: dict[tuple[str, str], object] = {}
        self.balancers: list = []

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def _balancer_for(self, service: str, source_cluster: str):
        spec = self.services.get(service)
        if spec is None:
            raise MeshError(f"call to undeclared service {service!r}")
        if spec.local_only or service == self.root_service:
            # Pinned: the root is entered locally; stateful services are
            # always the caller's cluster-local instance.
            pin = source_cluster if spec.local_only else self.client_cluster
            return StaticWeightBalancer({backend_name(service, pin): 1.0})
        key = (service, source_cluster)
        balancer = self._shared_balancers.get(key)
        if balancer is None:
            names = self.mesh.deployment(service).backend_names()
            balancer = self._balancer_factory(service, names, source_cluster)
            self._shared_balancers[key] = balancer
            self.balancers.append(balancer)
        return balancer

    def _proxy(self, source_cluster: str, service: str):
        key = (source_cluster, service)
        proxy = self._proxies.get(key)
        if proxy is None:
            proxy = self.mesh.client_proxy(
                source_cluster, service,
                self._balancer_for(service, source_cluster))
            self._proxies[key] = proxy
        return proxy

    def prewire(self) -> None:
        """Eagerly create every proxy the graph can use.

        Proxies are otherwise created on first use; telemetry must be
        registered with the scraper *before* traffic flows, so benchmark
        set-up calls this right after construction.
        """
        clusters = list(self.mesh.clusters)
        self._proxy(self.client_cluster, self.root_service)
        for service, spec in self.services.items():
            if service == self.root_service:
                continue
            for cluster in clusters:
                self._proxy(cluster, service)

    def start(self, sim) -> None:
        """Start all balancer control loops (L3/C3 reconcilers)."""
        for balancer in self.balancers:
            balancer.start(sim)

    def stop(self) -> None:
        for balancer in self.balancers:
            balancer.stop()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _pick_endpoint(self) -> EndpointSpec:
        threshold = self.rng.random() * self._endpoint_total
        running = 0.0
        for endpoint in self.endpoints:
            running += endpoint.weight
            if threshold < running:
                return endpoint
        return self.endpoints[-1]

    def dispatch(self, intended_start_s: float, done) -> None:
        """Run one request of the weighted endpoint mix end to end.

        ``done(record)`` fires with the root service's record. The
        endpoint is drawn and the root request sent within this call.
        """
        endpoint = self._pick_endpoint()
        self._call(self.root_service, self.client_cluster,
                   intended_start_s, done, stages=endpoint.stages)

    def _call(self, service: str, source_cluster: str,
              intended_start_s: float, done, stages=None) -> None:
        """Invoke ``service`` from ``source_cluster`` through its proxy;
        the request starts within this call."""
        proxy = self._proxy(source_cluster, service)
        if stages is None:
            stages = self.services[service].stages
        body_factory = partial(_Body, self, stages) if stages else None
        proxy.dispatch(intended_start_s, done, body_factory)


class _Body:
    """One service body in flight: its stages, run in order on ``cluster``.

    Called by the request's flight as ``body(resume)`` once the replica's
    own compute time has elapsed; calls ``resume(ok)`` after the last
    stage. Downstream requests are ordinary proxy dispatches, and every
    stage transition runs inside the callback that caused it (part of
    the determinism contract of :mod:`repro.mesh.fastdispatch`):

    * a stage's downstream requests start within the callback that
      reached the stage — a :class:`ParallelCalls` fan-out sends its
      branches in listed order, a :class:`CachedRead` its cache leg;
    * the cache-miss draw is taken when the cache leg completes, and the
      database leg starts then;
    * a fan-out's branch is counted when its record arrives, and the
      next stage starts within the callback that delivered the last one.
    """

    __slots__ = ("app", "stages", "cluster", "resume", "index", "ok",
                 "pending", "stage")

    def __init__(self, app: CallGraphApp, stages, cluster: str):
        self.app = app
        self.stages = stages
        self.cluster = cluster
        self.index = 0
        self.ok = True
        self.pending = 0

    def __call__(self, resume) -> None:
        self.resume = resume
        self._next_stage()

    def _next_stage(self) -> None:
        if self.index == len(self.stages):
            self.resume(self.ok)
            return
        stage = self.stages[self.index]
        self.index += 1
        app = self.app
        now = app.mesh.sim.now
        if isinstance(stage, ParallelCalls):
            services = stage.services
            if len(services) == 1:
                app._call(services[0], self.cluster, now, self._leg_done)
            else:
                self.pending = len(services)
                for child in services:
                    app._call(child, self.cluster, now, self._branch_done)
        elif isinstance(stage, CachedRead):
            self.stage = stage
            app._call(stage.cache, self.cluster, now, self._cache_done)
        else:
            raise ConfigError(f"unknown stage type: {stage!r}")

    def _leg_done(self, record) -> None:
        self.ok = self.ok and record.success
        self._next_stage()

    def _cache_done(self, record) -> None:
        self.ok = self.ok and record.success
        app = self.app
        if app.rng.random() >= self.stage.hit_prob:
            app._call(self.stage.db, self.cluster, app.mesh.sim.now,
                      self._leg_done)
        else:
            self._next_stage()

    def _branch_done(self, record) -> None:
        self.ok = self.ok and record.success
        self.pending -= 1
        if self.pending == 0:
            self._next_stage()


def deploy_callgraph_services(mesh, services: dict[str, ServiceSpec],
                              cluster_noise: dict | None = None) -> None:
    """Deploy every service of a call graph into every mesh cluster.

    Args:
        mesh: target mesh.
        services: specs to deploy.
        cluster_noise: optional cluster → ``(median_series, p99_series)``
            multiplier pair applied to every service in that cluster —
            models transient per-cluster degradation (noisy neighbours,
            CPU throttling) that inflates the tail more than the median,
            the condition §5.3.1's latency-aware gains rely on.
    """
    from repro.workloads.profiles import BackendProfile, scaled_series

    clusters = list(mesh.clusters)
    cluster_noise = cluster_noise or {}
    for spec in services.values():
        profiles = {}
        for cluster in clusters:
            noise = cluster_noise.get(cluster)
            if noise is None:
                profiles[cluster] = constant_backend_profile(
                    spec.cpu_median_s, spec.cpu_p99_s)
            else:
                median_mult, p99_mult = noise
                profiles[cluster] = BackendProfile(
                    median_latency_s=scaled_series(
                        median_mult, spec.cpu_median_s),
                    p99_latency_s=scaled_series(p99_mult, spec.cpu_p99_s),
                    failure_prob=constant_backend_profile(
                        spec.cpu_median_s, spec.cpu_p99_s).failure_prob,
                )
        mesh.deploy_service(
            spec.name, profiles=profiles,
            replicas=spec.replicas,
            replica_capacity=spec.replica_capacity)
