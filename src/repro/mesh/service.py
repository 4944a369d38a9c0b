"""Services and their per-cluster deployments (backends).

A *service* is a logical name; a *backend* is its deployment in one
cluster (the unit between which TrafficSplits shift traffic). Within a
backend, the in-cluster balancer distributes across replicas round-robin —
the multi-cluster algorithms under study only decide *which cluster*.
"""

from __future__ import annotations

from repro.errors import ConfigError, MeshError
from repro.mesh.cluster import backend_name
from repro.mesh.replica import Replica
from repro.sim.engine import Simulator
from repro.sim.resources import Server
from repro.workloads.profiles import BackendProfile


class Backend:
    """A service's deployment in one cluster: a set of replicas."""

    __slots__ = ("sim", "service", "cluster", "name", "profile",
                 "_rng_registry", "_replica_capacity", "_next_replica_id",
                 "_rr_index", "replicas", "_servers")

    def __init__(self, sim: Simulator, service: str, cluster: str,
                 profile: BackendProfile, rng_registry,
                 replicas: int = 3, replica_capacity: int = 64):
        if replicas < 1:
            raise ConfigError(f"backend needs >= 1 replicas: {replicas}")
        self.sim = sim
        self.service = service
        self.cluster = cluster
        self.name = backend_name(service, cluster)
        self.profile = profile
        self._rng_registry = rng_registry
        self._replica_capacity = replica_capacity
        self._next_replica_id = 0
        self._rr_index = 0
        self.replicas: list[Replica] = []
        # The replicas' servers, in step with ``replicas``.
        self._servers: list[Server] = []
        for _ in range(replicas):
            self.add_replica()

    def add_replica(self) -> Replica:
        """Scale up by one replica (used by the autoscaler extension)."""
        replica_id = self._next_replica_id
        self._next_replica_id += 1
        replica = Replica(
            self.sim, f"{self.name}/{replica_id}", self.profile,
            self._rng_registry.stream(f"replica/{self.name}/{replica_id}"),
            capacity=self._replica_capacity)
        self.replicas.append(replica)
        self._servers.append(replica.server)
        return replica

    def remove_replica(self) -> None:
        """Scale down by one replica; the last replica never goes away."""
        if len(self.replicas) <= 1:
            raise MeshError(f"cannot remove last replica of {self.name}")
        self.replicas.pop()
        self._servers.pop()

    def pick_replica(self) -> Replica:
        """In-cluster round-robin replica choice.

        Down replicas are skipped while any replica is up — the platform's
        readiness probes pull crashed pods out of the endpoint set. During
        a full outage every endpoint is dead and the request hits a down
        replica (failing fast or blackholing per its crash mode).
        """
        count = len(self.replicas)
        for _ in range(count):
            replica = self.replicas[self._rr_index % count]
            self._rr_index += 1
            if replica.up:
                return replica
        replica = self.replicas[self._rr_index % count]
        self._rr_index += 1
        return replica

    def crash(self, mode: str = "fail_fast") -> None:
        """Take every replica of this backend down (cluster outage)."""
        for replica in self.replicas:
            replica.crash(mode)

    def restart(self) -> None:
        """Bring every replica of this backend back up."""
        for replica in self.replicas:
            replica.restart()

    @property
    def up_replica_count(self) -> int:
        """Number of replicas currently up."""
        return sum(1 for replica in self.replicas if replica.up)

    @property
    def inflight(self) -> int:
        """Requests executing or queued across all replicas.

        Scraped as a gauge for every backend at every scrape, hence the
        server list and the bulk read.
        """
        return Server.total_occupancy(self._servers)


class ServiceDeployment:
    """A service with one backend per cluster."""

    def __init__(self, service: str):
        self.service = service
        self.backends: dict[str, Backend] = {}

    def add_backend(self, backend: Backend) -> None:
        """Attach a per-cluster backend; one backend per cluster."""
        if backend.service != self.service:
            raise MeshError(
                f"backend {backend.name} does not belong to {self.service}")
        if backend.cluster in self.backends:
            raise MeshError(f"duplicate backend cluster: {backend.cluster}")
        self.backends[backend.cluster] = backend

    def backend_in(self, cluster: str) -> Backend:
        """The deployment's backend in ``cluster`` (raises if absent)."""
        found = self.backends.get(cluster)
        if found is None:
            raise MeshError(
                f"service {self.service!r} has no backend in {cluster!r}")
        return found

    def backend_names(self) -> list[str]:
        """Stable (cluster-sorted) list of backend names."""
        return [self.backends[c].name for c in sorted(self.backends)]
