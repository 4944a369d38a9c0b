"""The callback state-machine request engine (the data-plane fast path).

One simulated request in the generator engine is a spawned
:class:`~repro.sim.process.Process` whose every hop (proxy forwarding
overhead, WAN legs, replica queue/execution, retry back-off, deadline
racing) allocates a fresh ``Timeout``/``Event`` plus generator-resume
machinery — roughly a dozen heap events per request. This module rewrites
that lifecycle as a flat state machine over pooled callback events
(:class:`~repro.sim.events.EventPool`): the same lifecycle, the same
side effects, a fraction of the allocations.

**Equivalence contract.** The fast path must be *event-order identical*
to :meth:`repro.mesh.proxy.ClientProxy.dispatch`, the reference
implementation — not merely "statistically the same": the golden-digest
determinism suite demands byte-identical request records, controller
weights and OTLP trace exports for a fixed seed. The simulator breaks
time ties by heap insertion order, so the machine performs **the same
agenda insertions at the same code positions** as the generator engine:

========================================  ==============================
generator engine                          fast path mirror
========================================  ==============================
``sim.spawn`` bootstrap event             ``dispatch()`` schedules the
                                          machine start at delay 0
``yield sim.timeout(...)`` per hop        one pooled callback per hop
``Server.acquire`` immediate-grant        delay-0 pooled callback
event (``succeed`` at creation)           (``try_acquire`` grants the
                                          slot synchronously)
``Server.acquire`` queued waiter          unscheduled pooled gate in the
                                          same FIFO (fired by
                                          ``release``)
deadline race: spawned ``_forward``       flight begin scheduled at
process bootstrap + deadline timeout,     delay 0 + deadline callback;
then completion → ``AnyOf`` →             completion hop → any-of hop →
parent resume (two delay-0 pops)          machine resume (same two pops)
blackhole gate ``yield sim.event()``      unscheduled pooled gate in
(fired by ``Replica.restart``)            ``_blackhole_gates``
process-completion event (no waiters,     omitted — popping a
no callbacks)                             side-effect-free event cannot
                                          reorder anything else
========================================  ==============================

RNG draws (balancer pick, WAN jitter, failure/service sampling) happen
inside the same callbacks at the same simulation times, so every private
random stream is consumed in exactly the reference order. The
equivalence suite (``tests/mesh/test_fastpath_equivalence.py``) checks
record-for-record equality against the legacy engine across seeds and
scenarios, including fault-injection and deadline/retry-heavy runs.

Scope: plain proxy dispatch — the path every scenario benchmark and the
perf baseline exercise. Call-graph applications (hotel, social) run
request *bodies* on the replica and stay on the generator engine, which
remains fully supported via ``engine="process"``.
"""

from __future__ import annotations

import math

from repro.errors import MeshError
from repro.mesh.cluster import split_backend_name
from repro.mesh.request import RequestRecord
from repro.sim.events import EventPool
from repro.tracing import model as trace_model


class FastRequestEngine:
    """Drives one proxy's requests as pooled-callback state machines.

    Args:
        sim: the owning simulator.
        proxy: the :class:`~repro.mesh.proxy.ClientProxy` whose dispatch
            lifecycle this engine reproduces.
        records: list completed :class:`RequestRecord`\\ s are appended
            to (in completion order, like the generator load generator).
        max_free: bound on each free list (events, machines, flights).
    """

    def __init__(self, sim, proxy, records: list, max_free: int = 512):
        self.sim = sim
        self.proxy = proxy
        self.records = records
        self.pool = EventPool(sim, max_free=max_free)
        # Pre-bound hot-path methods: one call frame per hop instead of
        # an attribute walk.
        self.sched = self.pool.schedule
        self.net_delay = proxy.mesh.network.delay
        self._max_free = max_free
        self._machines: list[_RequestMachine] = []
        self._flights: list[_Flight] = []
        # backend name -> (Backend, target_cluster): the pick set is
        # fixed for a deployed service, so the split/lookup chain of the
        # reference implementation is resolved once per backend.
        self._targets: dict[str, tuple] = {}

    def dispatch(self, intended_start_s: float) -> None:
        """Start one request's state machine (the ``sim.spawn`` mirror).

        The machine begins executing at the current time but only after
        one agenda hop — exactly where the generator engine's process
        bootstrap event pops.
        """
        machines = self._machines
        if machines:
            machine = machines.pop()
        else:
            machine = _RequestMachine(self)
        machine.intended_start_s = intended_start_s
        self.sched(0.0, machine._start_cb)

    # ------------------------------------------------------------------ #
    # Pools
    # ------------------------------------------------------------------ #

    def _recycle_machine(self, machine: "_RequestMachine") -> None:
        machine._reset()
        if len(self._machines) < self._max_free:
            self._machines.append(machine)

    def _flight(self, machine: "_RequestMachine",
                raced: bool) -> "_Flight":
        """A flight for the machine's current attempt.

        Raced flights (deadline configured) can outlive both the attempt
        and the machine — their deadline and completion hops may fire
        after the machine moved on — so they are never pooled; the
        unraced common case reuses pooled flights.
        """
        flights = self._flights
        if raced or not flights:
            flight = _Flight(self)
        else:
            flight = flights.pop()
        flight.machine = machine
        flight.backend = machine.backend
        flight.target_cluster = machine.target_cluster
        flight.ctx = machine.attempt_ctx
        flight.raced = raced
        # No further resets needed: pooled flights come back from
        # _recycle_flight with span/replica references cleared, raced
        # flights are always fresh (anyof/call flags start False from
        # __init__), and success/holding_slot are written by every path
        # that later reads them.
        return flight

    def _recycle_flight(self, flight: "_Flight") -> None:
        # Only unraced flights come back (see _flight); drop references
        # so a pooled flight cannot keep a finished request alive.
        flight.machine = None
        flight.backend = None
        flight.replica = None
        flight.ctx = None
        flight.wan_span = None
        flight.queue_span = None
        flight.exec_span = None
        if len(self._flights) < self._max_free:
            self._flights.append(flight)

    def _resolve(self, backend_name: str) -> tuple:
        """(Backend, target_cluster, telemetry) for a pick, cached.

        The miss path performs the reference implementation's unknown-
        backend check first, so a bad balancer pick raises the exact
        error _attempt() would.
        """
        found = self._targets.get(backend_name)
        if found is None:
            proxy = self.proxy
            telemetry = proxy.telemetry.get(backend_name)
            if telemetry is None:
                raise MeshError(
                    f"balancer picked unknown backend {backend_name!r} "
                    f"for service {proxy.service!r}")
            _service, target_cluster = split_backend_name(backend_name)
            backend = proxy.mesh.deployment(
                proxy.service).backend_in(target_cluster)
            found = (backend, target_cluster, telemetry)
            self._targets[backend_name] = found
        return found


class _RequestMachine:
    """One request: dispatch → attempts (with retry/backoff) → record.

    Mirrors :meth:`ClientProxy.dispatch` / :meth:`ClientProxy._attempt`
    line for line; every divergence is an equivalence bug.
    """

    __slots__ = (
        "engine", "sim", "proxy", "sched",
        "intended_start_s", "request_id", "start_s", "attempts",
        "ctx", "root_span", "attempt_ctx", "attempt_span", "backoff_span",
        "attempt_start", "backend_name", "backend", "target_cluster",
        "telemetry",
        "_start_cb", "_after_overhead_cb", "_retry_cb", "_retry_traced_cb",
    )

    def __init__(self, engine: FastRequestEngine):
        self.engine = engine
        self.sim = engine.sim
        self.proxy = engine.proxy
        self.sched = engine.sched
        self._start_cb = self._start
        self._after_overhead_cb = self._after_overhead
        self._retry_cb = self._begin_attempt
        self._retry_traced_cb = self._retry_traced
        self._reset()

    def _reset(self) -> None:
        self.intended_start_s = 0.0
        self.request_id = -1
        self.start_s = 0.0
        self.attempts = 0
        self.ctx = None
        self.root_span = None
        self.attempt_ctx = None
        self.attempt_span = None
        self.backoff_span = None
        self.attempt_start = 0.0
        self.backend_name = ""
        self.backend = None
        self.target_cluster = ""
        self.telemetry = None

    # -- dispatch ------------------------------------------------------ #

    def _start(self) -> None:
        """Mirror of dispatch() up to the attempt loop."""
        proxy = self.proxy
        self.start_s = self.sim.now
        self.request_id = next(proxy._request_ids)

        tracer = proxy.mesh.tracer
        ctx = tracer.trace() if tracer is not None else None
        root = None
        if ctx is not None:
            root = ctx.start(
                trace_model.REQUEST, trace_model.CLIENT,
                self.intended_start_s,
                attributes={
                    "request_id": self.request_id,
                    "service": proxy.service,
                    "source_cluster": proxy.source_cluster,
                })
            ctx = ctx.child(root)
        self.ctx = ctx
        self.root_span = root
        self.attempts = 0
        self._begin_attempt()

    def _begin_attempt(self) -> None:
        """Mirror of the attempt loop head plus _attempt()'s prologue."""
        proxy = self.proxy
        self.attempts += 1
        start = self.sim.now
        self.attempt_start = start
        # _pick_backend() with no ejector is exactly one balancer pick;
        # skip its frame on that (default) configuration.
        if proxy.ejector is None:
            backend_name = proxy.balancer.pick(proxy.rng, start)
            ejection_skips = 0
        else:
            backend_name, ejection_skips = proxy._pick_backend(start)
        backend, target_cluster, telemetry = self.engine._resolve(
            backend_name)

        span = None
        attempt_ctx = None
        ctx = self.ctx
        if ctx is not None:
            attributes = {"backend": backend_name, "attempt": self.attempts}
            if ejection_skips:
                attributes["ejection.skips"] = ejection_skips
            audit = ctx.tracer.audit
            if audit is not None:
                attributes["decision_id"] = audit.last_decision_id
            span = ctx.start(trace_model.ATTEMPT, trace_model.CLIENT,
                             start, attributes=attributes)
            attempt_ctx = ctx.child(span)

        telemetry.on_request_sent()
        proxy.balancer.on_request_sent(backend_name, start)

        self.backend_name = backend_name
        self.backend = backend
        self.target_cluster = target_cluster
        self.telemetry = telemetry
        self.attempt_span = span
        self.attempt_ctx = attempt_ctx

        if proxy.forward_overhead_s > 0:
            self.sched(proxy.forward_overhead_s, self._after_overhead_cb)
        else:
            self._after_overhead()

    def _after_overhead(self) -> None:
        """Launch the forward leg, racing the deadline if configured."""
        proxy = self.proxy
        engine = self.engine
        if proxy.request_timeout_s is None:
            flight = engine._flight(self, raced=False)
            flight._begin()
            return
        remaining = proxy.request_timeout_s - (
            self.sim.now - self.attempt_start)
        if remaining <= 0:
            proxy.timeouts += 1
            self._attempt_end(False, True)
            return
        flight = engine._flight(self, raced=True)
        # Mirror: sub-process bootstrap event, then the deadline timeout.
        sched = self.sched
        sched(0.0, flight._begin_cb)
        sched(remaining, flight._deadline_cb)

    # -- attempt epilogue / retry loop --------------------------------- #

    def _attempt_end(self, success: bool, timed_out: bool) -> None:
        """Mirror of _attempt()'s epilogue plus the dispatch retry loop."""
        proxy = self.proxy
        now = self.sim.now
        latency = now - self.attempt_start
        self.telemetry.on_response(latency, success)
        proxy.balancer.on_response(self.backend_name, now, latency, success)
        if proxy.ejector is not None:
            proxy.ejector.on_response(self.backend_name, now, success)
        span = self.attempt_span
        if span is not None:
            if timed_out:
                status = trace_model.TIMEOUT
            else:
                status = trace_model.OK if success else trace_model.ERROR
            self.ctx.end(span, now, status=status)

        if success or self.attempts > proxy.max_retries:
            self._finish(success)
            return
        backoff = proxy.retry_backoff_s
        if backoff > 0:
            ctx = self.ctx
            if ctx is not None:
                self.backoff_span = ctx.start(
                    trace_model.RETRY_BACKOFF, trace_model.CLIENT, now)
                self.sched(backoff, self._retry_traced_cb)
            else:
                self.sched(backoff, self._retry_cb)
        else:
            self._begin_attempt()

    def _retry_traced(self) -> None:
        self.ctx.end(self.backoff_span, self.sim.now)
        self.backoff_span = None
        self._begin_attempt()

    def _finish(self, success: bool) -> None:
        """Close the root span, emit the record, recycle the machine."""
        proxy = self.proxy
        now = self.sim.now
        root = self.root_span
        if root is not None:
            root.attributes["attempts"] = self.attempts
            root.attributes["backend"] = self.backend_name
            self.ctx.end(
                root, now,
                status=trace_model.OK if success else trace_model.ERROR)
        engine = self.engine
        engine.records.append(RequestRecord(
            request_id=self.request_id,
            service=proxy.service,
            source_cluster=proxy.source_cluster,
            backend=self.backend_name,
            intended_start_s=self.intended_start_s,
            start_s=self.start_s,
            end_s=now,
            success=success,
            attempts=self.attempts,
        ))
        engine._recycle_machine(self)


class _Flight:
    """One attempt's forward leg: WAN out → replica → WAN back.

    Mirrors :meth:`ClientProxy._forward` (plus
    :meth:`Replica.handle` / :meth:`Replica._handle_down`). Raced
    flights additionally mirror the ``spawn + deadline + AnyOf``
    protocol of :meth:`ClientProxy._forward_with_deadline`: completion
    and deadline each fire a delay-0 "any-of" hop, the first one wins,
    and the loser's pop is a no-op — the exact event pattern (and
    therefore tie-break behavior) of the generator engine. A flight
    abandoned by the deadline keeps running against the replica, as the
    defused process does.
    """

    __slots__ = (
        "engine", "sim", "proxy", "sched", "net_delay",
        "machine", "backend", "target_cluster", "ctx", "replica",
        "raced", "anyof_triggered", "call_processed", "success",
        "holding_slot", "wan_span", "queue_span", "exec_span",
        "_begin_cb", "_arrived_cb", "_acquired_cb", "_exec_ok_cb",
        "_exec_failed_cb", "_down_done_cb", "_returned_cb",
        "_deadline_cb", "_completion_cb", "_anyof_cb",
    )

    def __init__(self, engine: FastRequestEngine):
        self.engine = engine
        self.sim = engine.sim
        self.proxy = engine.proxy
        self.sched = engine.sched
        self.net_delay = engine.net_delay
        self.machine = None
        self.backend = None
        self.target_cluster = ""
        self.ctx = None
        self.replica = None
        self.raced = False
        self.anyof_triggered = False
        self.call_processed = False
        self.success = False
        self.holding_slot = False
        self.wan_span = None
        self.queue_span = None
        self.exec_span = None
        self._begin_cb = self._begin
        self._arrived_cb = self._arrived
        self._acquired_cb = self._acquired
        self._exec_ok_cb = self._exec_ok
        self._exec_failed_cb = self._exec_failed
        self._down_done_cb = self._down_done
        self._returned_cb = self._returned
        self._deadline_cb = self._deadline
        self._completion_cb = self._completion
        self._anyof_cb = self._anyof

    # -- WAN out ------------------------------------------------------- #

    def _begin(self) -> None:
        proxy = self.proxy
        sim = self.sim
        delay = self.net_delay(
            proxy.source_cluster, self.target_cluster, proxy.rng, sim.now)
        span = None
        ctx = self.ctx
        if ctx is not None:
            src, dst = proxy.source_cluster, self.target_cluster
            span = ctx.start(
                trace_model.WAN_SEND, trace_model.NETWORK, sim.now,
                attributes={"src": src, "dst": dst, "link": f"{src}->{dst}"})
        self.wan_span = span
        if math.isinf(delay):
            if span is not None:
                span.attributes["partitioned"] = True
            return  # parked forever, like `yield sim.event()`
        if delay > 0:
            self.sched(delay, self._arrived_cb)
        else:
            self._arrived()

    # -- replica ------------------------------------------------------- #

    def _arrived(self) -> None:
        sim = self.sim
        span = self.wan_span
        ctx = self.ctx
        if span is not None:
            ctx.end(span, sim.now)
            self.wan_span = None
        replica = self.backend.pick_replica()
        self.replica = replica
        if not replica.up:
            self._begin_down(holding_slot=False)
            return
        if ctx is not None:
            self.queue_span = ctx.start(
                trace_model.SERVER_QUEUE, trace_model.SERVER, sim.now,
                attributes={"replica": replica.name})
        server = replica.server
        if server.try_acquire():
            # Mirror the immediate-grant acquire event (delay-0 pop).
            self.sched(0.0, self._acquired_cb)
        else:
            server.enqueue_waiter(self.engine.pool.gate(self._acquired_cb))

    def _acquired(self) -> None:
        sim = self.sim
        ctx = self.ctx
        if self.queue_span is not None:
            ctx.end(self.queue_span, sim.now)
            self.queue_span = None
        replica = self.replica
        if not replica.up:
            # Crashed while queued: the connection dies with the pod,
            # the slot is held meanwhile (hung-worker semantics).
            self._begin_down(holding_slot=True)
            return
        now = sim.now
        profile = replica.profile
        if ctx is not None:
            self.exec_span = ctx.start(
                trace_model.SERVER_EXEC, trace_model.SERVER, now,
                attributes={"replica": replica.name})
        if profile.sample_failure(replica.rng, now):
            self.sched(profile.failure_latency_s, self._exec_failed_cb)
        else:
            self.sched(profile.sample_service_time(replica.rng, now)
                       * replica.service_time_scale,
                       self._exec_ok_cb)

    def _exec_ok(self) -> None:
        replica = self.replica
        replica.completed += 1
        if self.exec_span is not None:
            self.ctx.end(self.exec_span, self.sim.now,
                         status=trace_model.OK)
            self.exec_span = None
        self.success = True
        replica.server.release()
        self._wan_back()

    def _exec_failed(self) -> None:
        replica = self.replica
        replica.failed += 1
        if self.exec_span is not None:
            self.ctx.end(self.exec_span, self.sim.now,
                         status=trace_model.ERROR)
            self.exec_span = None
        self.success = False
        replica.server.release()
        self._wan_back()

    # -- down replica -------------------------------------------------- #

    def _begin_down(self, holding_slot: bool) -> None:
        replica = self.replica
        self.holding_slot = holding_slot
        if self.ctx is not None:
            self.exec_span = self.ctx.start(
                trace_model.SERVER_EXEC, trace_model.SERVER, self.sim.now,
                attributes={"replica": replica.name,
                            "down": replica.down_mode})
        if replica.down_mode == "blackhole":
            replica._blackhole_gates.append(
                self.engine.pool.gate(self._down_done_cb))
        else:
            self.sched(replica.profile.failure_latency_s, self._down_done_cb)

    def _down_done(self) -> None:
        replica = self.replica
        replica.failed += 1
        if self.exec_span is not None:
            self.ctx.end(self.exec_span, self.sim.now,
                         status=trace_model.ERROR)
            self.exec_span = None
        self.success = False
        if self.holding_slot:
            self.holding_slot = False
            replica.server.release()
        self._wan_back()

    # -- WAN back ------------------------------------------------------ #

    def _wan_back(self) -> None:
        proxy = self.proxy
        sim = self.sim
        delay = self.net_delay(
            self.target_cluster, proxy.source_cluster, proxy.rng, sim.now)
        span = None
        ctx = self.ctx
        if ctx is not None:
            src, dst = self.target_cluster, proxy.source_cluster
            span = ctx.start(
                trace_model.WAN_RECV, trace_model.NETWORK, sim.now,
                attributes={"src": src, "dst": dst, "link": f"{src}->{dst}"})
        self.wan_span = span
        if math.isinf(delay):
            if span is not None:
                span.attributes["partitioned"] = True
            return  # parked forever
        if delay > 0:
            self.sched(delay, self._returned_cb)
        else:
            self._returned()

    def _returned(self) -> None:
        if self.wan_span is not None:
            self.ctx.end(self.wan_span, self.sim.now)
            self.wan_span = None
        if not self.raced:
            machine = self.machine
            success = self.success
            self.engine._recycle_flight(self)
            machine._attempt_end(success, False)
            return
        # Mirror: the forward process's completion event (delay-0 pop).
        self.sched(0.0, self._completion_cb)

    # -- deadline race (mirror of _forward_with_deadline) -------------- #

    def _completion(self) -> None:
        """The forward "process completion" pop: may trigger the any-of."""
        self.call_processed = True
        if not self.anyof_triggered:
            self.anyof_triggered = True
            self.sched(0.0, self._anyof_cb)
        # else: the deadline already triggered the race — this pop is the
        # abandoned call's side-effect-free completion, as in the
        # generator engine.

    def _deadline(self) -> None:
        """The deadline timeout pop: may trigger the any-of."""
        if not self.anyof_triggered:
            self.anyof_triggered = True
            self.sched(0.0, self._anyof_cb)

    def _anyof(self) -> None:
        """The AnyOf pop: resume the machine with the race outcome.

        Runs exactly once per raced attempt. If the completion hop has
        been processed the attempt succeeded/failed on its own; otherwise
        the deadline won and the flight is abandoned — it keeps running
        (occupying the replica) but reports to nobody.
        """
        machine = self.machine
        self.machine = None
        if self.call_processed:
            machine._attempt_end(self.success, False)
        else:
            machine.proxy.timeouts += 1
            machine._attempt_end(False, True)
