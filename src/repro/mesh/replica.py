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
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.resources import Server
from repro.tracing import model as trace_model
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

    def handle(self, body=None, trace=None):
        """Process one request; yields until done, returns success bool.

        The failure decision is drawn when execution *starts* (a failing
        service fails whatever it touches, whether or not the request
        queued first). Failed requests occupy the replica for the
        profile's failure latency — errors are typically fast.

        Args:
            body: optional generator *function* executed after the
                replica's own compute time while still holding the server
                slot (thread-per-request semantics); used by call-graph
                applications to invoke downstream services. Its boolean
                return value is ANDed into the request's success.
            trace: optional :class:`~repro.tracing.recorder.TraceContext`
                under which the replica records a ``server.queue`` span
                (waiting for a slot) and a ``server.exec`` span (running)
                — the queue-vs-execution split the critical-path report
                needs to tell saturation from slowness.
        """
        if not self.up:
            yield from self._handle_down(trace)
            return False
        queue_span = None
        if trace is not None:
            queue_span = trace.start(
                trace_model.SERVER_QUEUE, trace_model.SERVER, self.sim.now,
                attributes={"replica": self.name})
        yield self.server.acquire()
        if queue_span is not None:
            trace.end(queue_span, self.sim.now)
        try:
            if not self.up:
                # Crashed while this request sat in the queue: the queued
                # connections die with the pod (the slot is held meanwhile,
                # as a hung worker would hold it).
                yield from self._handle_down(trace)
                return False
            now = self.sim.now
            exec_span = None
            if trace is not None:
                exec_span = trace.start(
                    trace_model.SERVER_EXEC, trace_model.SERVER, now,
                    attributes={"replica": self.name})
            if self.profile.sample_failure(self.rng, now):
                yield self.sim.timeout(self.profile.failure_latency_s)
                self.failed += 1
                if exec_span is not None:
                    trace.end(exec_span, self.sim.now,
                              status=trace_model.ERROR)
                return False
            service_time = (self.profile.sample_service_time(self.rng, now)
                            * self.service_time_scale)
            yield self.sim.timeout(service_time)
            success = True
            if body is not None:
                body_ok = yield from body()
                success = bool(body_ok) if body_ok is not None else True
            if success:
                self.completed += 1
            else:
                self.failed += 1
            if exec_span is not None:
                trace.end(exec_span, self.sim.now,
                          status=trace_model.OK if success
                          else trace_model.ERROR)
            return success
        finally:
            self.server.release()

    def _handle_down(self, trace=None):
        """One request against a down replica; always ends in failure.

        Fail-fast mode answers with the profile's failure latency (an error
        response is still a response); blackhole mode parks the request on
        a gate that fires only at restart — without a client-side timeout
        the caller hangs for as long as the replica stays down.
        """
        span = None
        if trace is not None:
            span = trace.start(
                trace_model.SERVER_EXEC, trace_model.SERVER, self.sim.now,
                attributes={"replica": self.name,
                            "down": self.down_mode})
        if self.down_mode == "blackhole":
            gate = self.sim.event()
            self._blackhole_gates.append(gate)
            yield gate
        else:
            yield self.sim.timeout(self.profile.failure_latency_s)
        self.failed += 1
        if span is not None:
            trace.end(span, self.sim.now, status=trace_model.ERROR)
        return True
