"""A single microservice replica: bounded concurrency plus a service-time
profile.

The replica is where load becomes latency: it executes at most ``capacity``
requests concurrently and queues the rest (FIFO), so a backend that
receives more traffic than it can absorb develops queueing delay — the
effect both Algorithm 1's in-flight term and Algorithm 2's rate controller
exist to manage.

Replicas can also *crash* (fault injection): a down replica either fails
requests fast (a connection refused / 503 from the platform) or blackholes
them (the pod vanished mid-connection and nothing answers), and restores on
:meth:`Replica.restart`.

A replica is state, not behaviour: what a request does here — wait for a
slot, draw failure and service time from the profile, run its body, hang
on a crashed pod — is the replica leg of
:class:`repro.mesh.fastdispatch._Flight`.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.resources import Server
from repro.workloads.profiles import BackendProfile

# What a down replica does with the requests that still reach it.
DOWN_MODES = ("fail_fast", "blackhole")


class Replica:
    """One replica (pod) of a service deployment in some cluster."""

    __slots__ = ("sim", "name", "profile", "rng", "server", "completed",
                 "failed", "up", "down_mode", "service_time_scale",
                 "_blackhole_gates")

    def __init__(self, sim: Simulator, name: str, profile: BackendProfile,
                 rng, capacity: int = 64):
        """Args:
            sim: owning simulator.
            name: replica identifier (e.g. ``"api/cluster-1/0"``).
            profile: time-varying service-time/failure behaviour.
            rng: this replica's private random stream.
            capacity: concurrent requests executed without queueing.
        """
        if capacity < 1:
            raise ConfigError(f"replica capacity must be >= 1: {capacity}")
        self.sim = sim
        self.name = name
        self.profile = profile
        self.rng = rng
        self.server = Server(sim, capacity)
        self.completed = 0
        self.failed = 0
        self.up = True
        self.down_mode = "fail_fast"
        # Service-rate dial: sampled service times are multiplied by this.
        # 1.0 (the default) is an IEEE-exact identity, so steady-state
        # replicas are bit-identical with or without the dial; a replica
        # still warming up after an autoscale launch runs slower (> 1.0)
        # until its cold-start ramp completes (repro.autoscale.targets).
        self.service_time_scale = 1.0
        # Requests hung on a blackholed replica; released (as failures)
        # when the replica restarts.
        self._blackhole_gates: list = []

    @property
    def inflight(self) -> int:
        """Requests currently executing or queued on this replica."""
        return self.server.occupancy

    def crash(self, mode: str = "fail_fast") -> None:
        """Take the replica down.

        Args:
            mode: ``"fail_fast"`` — requests fail after the profile's
                failure latency (connection refused); ``"blackhole"`` —
                requests hang until the replica restarts (or, without a
                client-side timeout, forever).
        """
        if mode not in DOWN_MODES:
            raise ConfigError(
                f"down mode must be one of {DOWN_MODES}: {mode!r}")
        self.up = False
        self.down_mode = mode

    def restart(self) -> None:
        """Bring the replica back up.

        Requests hung on the blackhole die now (their connection was to the
        old pod) — they resume immediately as failures, freeing the client.
        """
        self.up = True
        gates, self._blackhole_gates = self._blackhole_gates, []
        for gate in gates:
            gate.succeed()
