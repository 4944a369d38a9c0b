"""The simulated request lifecycle: pooled-callback state machines.

One simulated request is a :class:`_RequestMachine` started by
:meth:`repro.mesh.proxy.ClientProxy.dispatch`: balancer pick → proxy
forwarding overhead → (per attempt) a :class:`_Flight` across the WAN to
a replica and back → telemetry, retry/back-off, outlier ejection → one
:class:`~repro.mesh.request.RequestRecord` handed to the caller's
``done`` callback. Every hop that lets time pass is one pooled
callback event (:class:`~repro.sim.events.EventPool`); machines and
flights are recycled through free lists held by their proxy. Plain
scenario traffic and call-graph applications (hotel, social) run on the
same machines — a call-graph hop is a dispatch whose flight runs a
*body* on the replica.

**Event order is the contract.** The simulator breaks time ties by
agenda insertion order, and the golden digest and the pinned digests in
``tests/bench/test_determinism.py`` demand byte-identical records,
weights and OTLP exports per seed. A hop is an agenda entry only when
simulated time passes or another request wakes this one; a continuation
at the same instant runs inside the callback that caused it:

* ``dispatch()`` starts the machine within the call (balancer pick,
  telemetry, forwarding overhead scheduled);
* a free replica slot is granted synchronously (``try_acquire``) and
  execution starts within the same callback; a queued request parks an
  unscheduled pooled gate in the server's FIFO, fired by ``release``
  (that wake-up is an agenda entry);
* with a per-attempt deadline the deadline is armed first, then the
  flight begins within the same callback (so the deadline precedes the
  WAN leg in insertion order). Whichever of the flight's return and the
  deadline fires first resumes the machine inline. A returning flight
  disarms the deadline in place (the entry stays on the agenda and
  fires as nothing); a flight abandoned by its deadline keeps running
  against the replica, holding its slot, and reports to nobody;
* a request that reaches a blackholed replica parks on an unscheduled
  gate in ``Replica._blackhole_gates`` until ``Replica.restart``; a
  partitioned WAN leg parks forever.

What stays an agenda entry: forwarding overhead, WAN legs, service
time, retry back-off, the deadline, the ``Server.release`` wake-up and
the blackhole restart gates. Inlining can reorder work only against an
entry already due at the exact same float instant, which only
deterministic-time events produce (periodic ticks, fault edges,
arrivals): a request dispatched at the instant of an earlier-armed
periodic tick is sent before that tick runs.

RNG draws (balancer pick, WAN jitter, failure/service sampling) happen
inside these callbacks at these simulation times, so every private
random stream is consumed in a fixed order.

**Bodies.** ``dispatch(..., body_factory=f)`` makes the flight call
``f(target_cluster)`` when the replica's own service time has elapsed;
a non-``None`` result ``body(resume)`` then runs *while the replica slot
is held* (thread-per-request semantics) and must eventually call
``resume(ok)``, whose verdict is ANDed into the attempt's success
(``None`` counts as success). How call-graph bodies order their
downstream dispatches is documented in :mod:`repro.workloads.callgraph`.
"""

from __future__ import annotations

import math

from repro.mesh.request import RequestRecord
from repro.tracing import model as trace_model

# Bound on each per-proxy free list (machines, flights).
_MAX_FREE = 512


def _disarmed() -> None:
    """What a deadline beaten by its flight runs when it comes due."""


class _RequestMachine:
    """One request: dispatch → attempts (with retry/backoff) → record.

    Each attempt is a fresh balancer decision and is individually
    recorded in the data-plane telemetry — exactly what a per-try proxy
    sees, and what makes retried failures visible to L3's success-rate
    signal. With tracing on, the request is one root span and each
    attempt one child span carrying the chosen backend, any ejection
    skips, and the controller decision id behind the routing weights.
    """

    __slots__ = (
        "sim", "proxy", "sched",
        "intended_start_s", "done", "body_factory",
        "request_id", "start_s", "attempts",
        "ctx", "root_span", "attempt_ctx", "attempt_span", "backoff_span",
        "attempt_start", "backend_name", "backend", "target_cluster",
        "telemetry",
        "_after_overhead_cb", "_retry_cb", "_retry_traced_cb",
    )

    def __init__(self, proxy):
        self.sim = proxy.mesh.sim
        self.proxy = proxy
        self.sched = proxy._sched
        # Pre-bound hot-path methods: one call frame per hop instead of
        # an attribute walk.
        self._after_overhead_cb = self._after_overhead
        self._retry_cb = self._begin_attempt
        self._retry_traced_cb = self._retry_traced
        self._reset()

    def _reset(self) -> None:
        self.intended_start_s = 0.0
        self.done = None
        self.body_factory = None
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
        """Open the request (id, root span) and make the first attempt."""
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
        """Pick a backend, count the send, pay the forwarding overhead."""
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
        backend, target_cluster, telemetry = proxy._resolve(backend_name)

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
        """Launch the forward leg, racing the deadline if configured.

        On timeout the in-flight call is abandoned, not cancelled:
        whatever the server was doing keeps happening (and keeps
        occupying the replica), but this client stops waiting — the
        attempt is a failure. Its spans stay open (the export skips
        them); the attempt span's "timeout" status is the record.
        """
        proxy = self.proxy
        timeout = proxy.request_timeout_s
        if timeout is None:
            self._flight()._begin()
            return
        remaining = timeout - (self.sim.now - self.attempt_start)
        if remaining <= 0:
            proxy.timeouts += 1
            self._attempt_end(False, True)
            return
        flight = self._flight()
        # Armed before the flight begins, so the deadline precedes the
        # WAN leg in insertion order.
        flight.deadline = self.sched(remaining, flight._deadline_cb)
        flight._begin()

    def _flight(self) -> "_Flight":
        """A pooled flight for the current attempt.

        No further resets needed: flights come back from ``_recycle()``
        with span/replica references cleared and no deadline armed, and
        success/holding_slot are written by every path that later reads
        them.
        """
        flights = self.proxy._flights
        flight = flights.pop() if flights else _Flight(self.proxy)
        flight.machine = self
        flight.backend = self.backend
        flight.target_cluster = self.target_cluster
        flight.ctx = self.attempt_ctx
        flight.body_factory = self.body_factory
        return flight

    # -- attempt epilogue / retry loop --------------------------------- #

    def _attempt_end(self, success: bool, timed_out: bool) -> None:
        """Record the attempt's outcome, then finish, back off or retry."""
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
        """Close the root span, recycle the machine, hand over the record.

        The machine goes back to its proxy's free list *before* ``done``
        runs: a call-graph continuation may dispatch on the same proxy
        at once.
        """
        proxy = self.proxy
        now = self.sim.now
        root = self.root_span
        if root is not None:
            root.attributes["attempts"] = self.attempts
            root.attributes["backend"] = self.backend_name
            self.ctx.end(
                root, now,
                status=trace_model.OK if success else trace_model.ERROR)
        record = RequestRecord(
            request_id=self.request_id,
            service=proxy.service,
            source_cluster=proxy.source_cluster,
            backend=self.backend_name,
            intended_start_s=self.intended_start_s,
            start_s=self.start_s,
            end_s=now,
            success=success,
            attempts=self.attempts,
        )
        done = self.done
        self._reset()
        machines = proxy._machines
        if len(machines) < _MAX_FREE:
            machines.append(self)
        done(record)


class _Flight:
    """One attempt's forward leg: WAN out → replica → WAN back.

    On the replica the failure decision is drawn when execution *starts*
    (a failing service fails whatever it touches, whether or not the
    request queued first); failed requests occupy the replica for the
    profile's failure latency — errors are typically fast. A down
    replica answers with that latency too (fail-fast) or not at all
    (blackhole); a request whose replica crashed while it sat in the
    queue dies with the pod, holding its slot meanwhile as a hung worker
    would. The ``server.queue`` / ``server.exec`` spans are the
    queue-vs-execution split the critical-path report needs to tell
    saturation from slowness.

    With a per-attempt deadline, ``deadline`` holds the armed agenda
    entry until the race is decided, and ``machine`` is dropped when the
    deadline wins: the abandoned flight runs on and recycles itself when
    it returns.
    """

    __slots__ = (
        "sim", "proxy", "sched", "gate", "net_delay",
        "machine", "backend", "target_cluster", "ctx", "body_factory",
        "replica", "deadline", "success",
        "holding_slot", "wan_span", "queue_span", "exec_span",
        "_arrived_cb", "_acquired_cb", "_exec_ok_cb",
        "_exec_failed_cb", "_down_done_cb", "_returned_cb",
        "_deadline_cb", "_body_done_cb",
    )

    def __init__(self, proxy):
        self.sim = proxy.mesh.sim
        self.proxy = proxy
        self.sched = proxy._sched
        self.gate = proxy._gate
        self.net_delay = proxy._net_delay
        self.machine = None
        self.backend = None
        self.target_cluster = ""
        self.ctx = None
        self.body_factory = None
        self.replica = None
        self.deadline = None
        self.success = False
        self.holding_slot = False
        self.wan_span = None
        self.queue_span = None
        self.exec_span = None
        self._arrived_cb = self._arrived
        self._acquired_cb = self._acquired
        self._exec_ok_cb = self._exec_ok
        self._exec_failed_cb = self._exec_failed
        self._down_done_cb = self._down_done
        self._returned_cb = self._returned
        self._deadline_cb = self._deadline
        self._body_done_cb = self._body_done

    def _recycle(self) -> None:
        # Drop references so a pooled flight cannot keep a finished
        # request alive.
        self.machine = None
        self.backend = None
        self.replica = None
        self.ctx = None
        self.body_factory = None
        self.wan_span = None
        self.queue_span = None
        self.exec_span = None
        flights = self.proxy._flights
        if len(flights) < _MAX_FREE:
            flights.append(self)

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
            # Partitioned: without a deadline the caller hangs, which is
            # what a blackholed TCP connection does (the open span is
            # the trace's record of the hang).
            if span is not None:
                span.attributes["partitioned"] = True
            return
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
            self._acquired()
        else:
            server.enqueue_waiter(self.gate(self._acquired_cb))

    def _acquired(self) -> None:
        sim = self.sim
        ctx = self.ctx
        if self.queue_span is not None:
            ctx.end(self.queue_span, sim.now)
            self.queue_span = None
        replica = self.replica
        if not replica.up:
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
        factory = self.body_factory
        if factory is not None:
            body = factory(self.target_cluster)
            if body is not None:
                body(self._body_done_cb)
                return
        replica = self.replica
        replica.completed += 1
        if self.exec_span is not None:
            self.ctx.end(self.exec_span, self.sim.now,
                         status=trace_model.OK)
            self.exec_span = None
        self.success = True
        replica.server.release()
        self._wan_back()

    def _body_done(self, ok=None) -> None:
        """``resume`` of a body: its verdict decides the execution."""
        if ok is None or ok:
            # The body has run: finish as a plain successful execution.
            self.body_factory = None
            self._exec_ok()
        else:
            self._exec_failed()

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
            replica._blackhole_gates.append(self.gate(self._down_done_cb))
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
        machine = self.machine
        deadline = self.deadline
        if deadline is not None:
            # Beat the deadline: disarm it in place. The entry stays on
            # the agenda and fires as nothing.
            deadline.fn = _disarmed
            self.deadline = None
        success = self.success
        self._recycle()
        if machine is not None:
            machine._attempt_end(success, False)

    def _deadline(self) -> None:
        """The deadline passed first: the attempt fails as a timeout.

        The flight is abandoned, not cancelled — it keeps running
        (occupying the replica) but reports to nobody.
        """
        self.deadline = None
        machine = self.machine
        self.machine = None
        machine.proxy.timeouts += 1
        machine._attempt_end(False, True)
