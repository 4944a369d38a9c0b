"""The concrete fault types (paper §5.2.3's failure injection, generalised).

Every fault is a frozen dataclass; see :mod:`repro.faults.base` for the
scheduling model. Data-plane faults (crashes, outages, link faults) need
only the mesh; :class:`ScrapeOutage` needs the injector constructed with a
scraper, :class:`ControllerPause` with controllers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.faults.base import Fault, FaultInjector


def _check_mode(mode: str) -> None:
    # Imported here so that naming or parsing a fault loads no mesh.
    from repro.mesh.replica import DOWN_MODES

    if mode not in DOWN_MODES:
        raise ConfigError(f"down mode must be one of {DOWN_MODES}: {mode!r}")


# How a scrape outage manifests on the live substrate: "error" answers
# 500 to every /metrics GET, "stall" accepts and never answers (the
# scraper's fetch timeout turns the silence into a failed scrape). The
# simulator has no wire to fail, so there an outage is simply the
# absence of samples regardless of mode.
SCRAPE_OUTAGE_MODES = ("error", "stall")


@dataclass(frozen=True)
class ReplicaCrash(Fault):
    """One replica goes down; its capacity is gone until a restart.

    With ``duration_s`` set, the replica restarts on its own; otherwise
    pair it with an explicit :class:`ReplicaRestart`.
    """

    service: str
    cluster: str
    at_s: float
    replica_index: int = 0
    duration_s: float | None = None
    mode: str = "fail_fast"

    def validate(self) -> None:
        super().validate()
        _check_mode(self.mode)
        if self.replica_index < 0:
            raise ConfigError(
                f"replica index must be >= 0: {self.replica_index}")

    def _replica(self, injector: FaultInjector):
        backend = injector.mesh.deployment(self.service).backend_in(
            self.cluster)
        if self.replica_index >= len(backend.replicas):
            raise ConfigError(
                f"backend {backend.name} has {len(backend.replicas)} "
                f"replicas; index {self.replica_index} does not exist")
        return backend.replicas[self.replica_index]

    def apply(self, injector: FaultInjector) -> None:
        self._replica(injector).crash(self.mode)

    def revert(self, injector: FaultInjector) -> None:
        self._replica(injector).restart()

    def targets(self) -> tuple:
        return (("replica", self.service, self.cluster,
                 self.replica_index),)


@dataclass(frozen=True)
class ReplicaRestart(Fault):
    """Bring one crashed replica back up (capacity returns)."""

    service: str
    cluster: str
    at_s: float
    replica_index: int = 0

    def validate(self) -> None:
        super().validate()
        if self.replica_index < 0:
            raise ConfigError(
                f"replica index must be >= 0: {self.replica_index}")

    def apply(self, injector: FaultInjector) -> None:
        backend = injector.mesh.deployment(self.service).backend_in(
            self.cluster)
        if self.replica_index >= len(backend.replicas):
            raise ConfigError(
                f"backend {backend.name} has {len(backend.replicas)} "
                f"replicas; index {self.replica_index} does not exist")
        backend.replicas[self.replica_index].restart()

    def window(self) -> tuple[float, float]:
        # An instantaneous heal event disrupts nothing: empty window.
        return self.at_s, self.at_s

    def targets(self) -> tuple:
        return (("replica", self.service, self.cluster,
                 self.replica_index),)


@dataclass(frozen=True)
class ClusterOutage(Fault):
    """Every replica of a cluster goes down (the paper's failing cluster).

    ``mode="fail_fast"`` models a cluster answering errors (the scenario
    traces' success-rate drops); ``mode="blackhole"`` models the harder
    case — nothing answers at all, and only a client-side timeout turns
    the silence into a signal L3 can see.

    Args:
        cluster: the failing cluster.
        service: restrict the outage to one service's backend there
            (``None`` takes down every service's deployment).
    """

    cluster: str
    at_s: float
    duration_s: float | None = None
    mode: str = "fail_fast"
    service: str | None = None

    def validate(self) -> None:
        super().validate()
        _check_mode(self.mode)

    def apply(self, injector: FaultInjector) -> None:
        for backend in injector.backends_in(self.cluster, self.service):
            backend.crash(self.mode)

    def revert(self, injector: FaultInjector) -> None:
        for backend in injector.backends_in(self.cluster, self.service):
            backend.restart()

    def targets(self) -> tuple:
        return (("cluster", self.cluster, self.service),)


@dataclass(frozen=True)
class LinkPartition(Fault):
    """A directed cluster pair drops all traffic (delay becomes infinite).

    In-flight requests on the link at partition time keep their already
    sampled delays; requests *entering* the link while partitioned hang
    until the client's deadline fires (or forever without one) — healing
    the partition does not resurrect connections it killed.
    """

    src: str
    dst: str
    at_s: float
    duration_s: float | None = None
    symmetric: bool = True

    def apply(self, injector: FaultInjector) -> None:
        injector.mesh.network.partition(
            self.src, self.dst, symmetric=self.symmetric)

    def revert(self, injector: FaultInjector) -> None:
        injector.mesh.network.heal_partition(
            self.src, self.dst, symmetric=self.symmetric)

    def targets(self) -> tuple:
        links = (("link-partition", self.src, self.dst),)
        if self.symmetric:
            links += (("link-partition", self.dst, self.src),)
        return links


@dataclass(frozen=True)
class LinkDegradation(Fault):
    """A cluster pair's delay is inflated: ``delay * multiplier + extra``."""

    src: str
    dst: str
    at_s: float
    duration_s: float | None = None
    multiplier: float = 1.0
    extra_delay_s: float = 0.0
    symmetric: bool = True

    def validate(self) -> None:
        super().validate()
        if self.multiplier < 1.0:
            raise ConfigError(
                f"degradation multiplier must be >= 1: {self.multiplier}")
        if self.extra_delay_s < 0:
            raise ConfigError(
                f"extra delay must be >= 0: {self.extra_delay_s}")
        if self.multiplier == 1.0 and self.extra_delay_s == 0.0:
            raise ConfigError(
                "degradation needs a multiplier > 1 or extra delay > 0")

    def apply(self, injector: FaultInjector) -> None:
        injector.mesh.network.degrade(
            self.src, self.dst, multiplier=self.multiplier,
            extra_delay_s=self.extra_delay_s, symmetric=self.symmetric)

    def revert(self, injector: FaultInjector) -> None:
        injector.mesh.network.heal_degradation(
            self.src, self.dst, symmetric=self.symmetric)

    def targets(self) -> tuple:
        links = (("link-degradation", self.src, self.dst),)
        if self.symmetric:
            links += (("link-degradation", self.dst, self.src),)
        return links


@dataclass(frozen=True)
class ScrapeOutage(Fault):
    """The telemetry scraper stops collecting (Prometheus outage).

    The metrics store receives no new samples, so the controller's
    windowed queries come back empty and its EWMAs decay toward their
    defaults (§4's no-traffic behaviour, exercised for *every* backend at
    once).

    Args:
        mode: how the outage manifests on the live substrate — ``"error"``
            (every /metrics GET answers 500) or ``"stall"`` (the page
            never answers; the scraper's fetch timeout fires). The
            simulator ignores the mode: an outage is the absence of
            samples either way.
    """

    at_s: float
    duration_s: float | None = None
    mode: str = "error"

    def validate(self) -> None:
        super().validate()
        if self.mode not in SCRAPE_OUTAGE_MODES:
            raise ConfigError(
                f"scrape outage mode must be one of {SCRAPE_OUTAGE_MODES}: "
                f"{self.mode!r}")

    def apply(self, injector: FaultInjector) -> None:
        injector.require_scraper().pause(self.mode)

    def revert(self, injector: FaultInjector) -> None:
        injector.require_scraper().resume()


@dataclass(frozen=True)
class ControllerPause(Fault):
    """The reconcile loop stalls (operator crash-loop / leader loss).

    Weights freeze at their last pushed values; the data plane keeps
    serving with a stale TrafficSplit until the controller resumes.
    """

    at_s: float
    duration_s: float | None = None

    def apply(self, injector: FaultInjector) -> None:
        for controller in injector.require_controllers():
            controller.pause()

    def revert(self, injector: FaultInjector) -> None:
        for controller in injector.require_controllers():
            controller.resume()


@dataclass(frozen=True)
class ControllerCrash(Fault):
    """One controller replica dies (stops renewing its lease).

    Only meaningful for HA deployments — N replicas competing over a
    :class:`~repro.core.leader.LeaseLock` — so the injector must be
    constructed with ``replicas=[...]``. Crashing the leader opens a
    leaderless window bounded by the lease TTL, during which the last
    pushed weights keep serving; a standby takes over when the lease
    expires. With ``duration_s`` set the replica recovers and rejoins
    the election (it does not preempt the new leader).
    """

    at_s: float
    duration_s: float | None = None
    replica_index: int = 0

    def validate(self) -> None:
        super().validate()
        if self.replica_index < 0:
            raise ConfigError(
                f"replica index must be >= 0: {self.replica_index}")

    def apply(self, injector: FaultInjector) -> None:
        injector.require_replica(self.replica_index).crash()

    def revert(self, injector: FaultInjector) -> None:
        injector.require_replica(self.replica_index).recover()

    def targets(self) -> tuple:
        return (("controller-replica", self.replica_index),)
