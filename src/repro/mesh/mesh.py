"""Wiring of clusters, services, network and proxies into one mesh."""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.errors import MeshError
from repro.mesh.cluster import Cluster
from repro.mesh.network import NetworkModel, WanLink
from repro.mesh.proxy import ClientProxy
from repro.mesh.service import Backend, ServiceDeployment
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry.names import SERVER_QUEUE, ProxySample, server_series_name
from repro.workloads.profiles import BackendProfile


def _per_cluster(value: int | dict, cluster: str, what: str) -> int:
    """Resolve a uniform-or-per-cluster deployment knob for ``cluster``."""
    if not isinstance(value, dict):
        return value
    found = value.get(cluster)
    if found is None:
        raise MeshError(f"no {what} entry for cluster {cluster!r}")
    return found


class ServiceMesh:
    """The multi-cluster service mesh: topology plus deployed services.

    Typical construction::

        sim = Simulator()
        rng = RngRegistry(seed=7)
        mesh = ServiceMesh(sim, rng, clusters=["cluster-1", "cluster-2",
                                               "cluster-3"])
        mesh.deploy_service("api", profiles={...}, replicas=3)
        proxy = mesh.client_proxy("cluster-1", "api", balancer)
    """

    def __init__(self, sim: Simulator, rng_registry: RngRegistry, clusters,
                 wan_link: WanLink | None = None, tracer=None):
        self.sim = sim
        self.rng = rng_registry
        # Optional distributed tracing: a repro.tracing.MeshTracer makes
        # every proxy emit per-request spans. None (the default) keeps the
        # data plane untraced — one attribute check per request.
        self.tracer = tracer
        self.clusters: dict[str, Cluster] = {}
        for entry in clusters:
            cluster = entry if isinstance(entry, Cluster) else Cluster(entry)
            if cluster.name in self.clusters:
                raise MeshError(f"duplicate cluster: {cluster.name}")
            self.clusters[cluster.name] = cluster
        self.network = NetworkModel(list(self.clusters), default_wan=wan_link)
        self._deployments: dict[str, ServiceDeployment] = {}
        self._proxies: list[ClientProxy] = []

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #

    def deploy_service(self, service: str,
                       profiles: dict[str, BackendProfile],
                       replicas: int | dict[str, int] = 3,
                       replica_capacity: int | dict[str, int] = 64,
                       ) -> ServiceDeployment:
        """Deploy ``service`` with one backend per cluster in ``profiles``.

        Args:
            service: logical service name.
            profiles: cluster name → that backend's behaviour profile.
            replicas: replicas per backend (paper: 3 per cluster), or a
                per-cluster dict for heterogeneous fleets.
            replica_capacity: concurrent requests per replica, or a
                per-cluster dict.
        """
        if service in self._deployments:
            raise MeshError(f"service already deployed: {service}")
        if not profiles:
            raise MeshError(f"service {service!r} needs at least one backend")
        deployment = ServiceDeployment(service)
        for cluster_name, profile in profiles.items():
            if cluster_name not in self.clusters:
                raise MeshError(f"unknown cluster: {cluster_name!r}")
            deployment.add_backend(Backend(
                self.sim, service, cluster_name, profile, self.rng,
                replicas=_per_cluster(replicas, cluster_name, "replicas"),
                replica_capacity=_per_cluster(
                    replica_capacity, cluster_name, "replica_capacity")))
        self._deployments[service] = deployment
        return deployment

    def deployment(self, service: str) -> ServiceDeployment:
        found = self._deployments.get(service)
        if found is None:
            raise MeshError(f"unknown service: {service!r}")
        return found

    def services(self) -> list[str]:
        return sorted(self._deployments)

    # ------------------------------------------------------------------ #
    # Proxies
    # ------------------------------------------------------------------ #

    def client_proxy(self, source_cluster: str, service: str,
                     balancer: Balancer,
                     forward_overhead_s: float = 0.0002,
                     max_retries: int = 0,
                     retry_backoff_s: float = 0.0,
                     request_timeout_s: float | None = None,
                     outlier_ejection=None) -> ClientProxy:
        """Create the sidecar proxy routing ``service`` traffic from a cluster.

        ``request_timeout_s`` and ``outlier_ejection`` (an
        :class:`~repro.mesh.ejection.OutlierEjectionConfig`) enable the
        proxy's resilience features; both default to off, matching the
        paper's evaluated configuration.
        """
        if source_cluster not in self.clusters:
            raise MeshError(f"unknown cluster: {source_cluster!r}")
        proxy = ClientProxy(
            self, source_cluster, service, balancer,
            self.rng.stream(f"proxy/{source_cluster}/{service}"),
            forward_overhead_s=forward_overhead_s,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s,
            request_timeout_s=request_timeout_s,
            outlier_ejection=outlier_ejection)
        self._proxies.append(proxy)
        return proxy

    def proxies(self) -> list[ClientProxy]:
        return list(self._proxies)

    def register_all_telemetry(self, scraper) -> None:
        """Register every proxy's per-backend telemetry with a scraper.

        Scrape names are scoped by source cluster, so each (source,
        backend) pair is normally a distinct target. Should two proxies
        ever share a scrape name (e.g. custom unscoped telemetry), their
        bundles are aggregated into one target via a summing adapter.
        """
        by_name: dict[str, list] = {}
        for proxy in self._proxies:
            for telemetry in proxy.telemetry.values():
                by_name.setdefault(telemetry.scrape_name, []).append(telemetry)
        for name, bundles in by_name.items():
            if len(bundles) == 1:
                scraper.register(bundles[0])
            else:
                scraper.register(_AggregatedTelemetry(name, bundles))
        self.register_server_telemetry(scraper)

    def register_server_telemetry(self, scraper) -> None:
        """Expose every backend's replica queue occupancy to the scraper.

        This is the server-side feedback channel (C3-style): one unscoped
        gauge per backend counting requests executing or queued across its
        replicas.
        """
        for service in self.services():
            deployment = self._deployments[service]
            for backend in deployment.backends.values():
                scraper.register_gauge(
                    server_series_name(backend.name), SERVER_QUEUE,
                    lambda b=backend: b.inflight)


class _AggregatedTelemetry:
    """Sums several proxies' telemetry for one backend at scrape time.

    Duck-types the one thing the scraper asks of a
    :class:`~repro.telemetry.metrics.BackendTelemetry`: its row.
    """

    def __init__(self, backend_name: str, bundles):
        self.backend_name = backend_name
        self.scrape_name = backend_name
        self._bundles = list(bundles)

    def sample(self) -> ProxySample:
        """Field-wise sum of the bundles' rows (bucket tuples per bucket)."""
        columns = zip(*[bundle.sample() for bundle in self._bundles])
        return ProxySample(*[
            tuple(map(sum, zip(*column))) if isinstance(column[0], tuple)
            else sum(column)
            for column in columns])
