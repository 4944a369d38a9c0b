"""The client-side sidecar proxy.

Every outgoing request of a client (or upstream microservice) passes
through its cluster-local proxy, which (1) asks the configured balancer for
a backend, (2) adds the proxy's own small forwarding overhead, (3) crosses
the network to the chosen backend's cluster, (4) waits for the replica, and
(5) records data-plane telemetry on completion — exactly the vantage point
from which L3's metrics are collected (latency as perceived by the
*client-side* proxy, including WAN and queueing). This module holds the
proxy's configuration and state; the lifecycle itself — one state machine
per request, started by :meth:`ClientProxy.dispatch` — is
:mod:`repro.mesh.fastdispatch`; its policy, :class:`ProxyPolicy`, is
shared with the live :class:`~repro.live.proxy.LiveProxy`.

Resilience knobs (both off by default, preserving the paper's evaluated
configuration):

* ``request_timeout_s`` — a per-attempt deadline. Without it, a blackholed
  backend (crashed pod, network partition) hangs the request forever; with
  it, the attempt is abandoned at the deadline and recorded as a *failed*
  attempt in telemetry, so L3's success-rate signal sees the outage.
* ``outlier_ejection`` — consecutive-failure circuit breaking with
  half-open probing (see :mod:`repro.mesh.ejection`).

When the owning mesh carries a tracer (``mesh.tracer``, a
:class:`~repro.tracing.recorder.MeshTracer`), the proxy emits one root
``request`` span per dispatch and one ``attempt`` span per try, with the
WAN legs, server queue/execution, retry back-offs, deadline expiries and
outlier-ejection skips recorded as children — the span vocabulary of
:mod:`repro.tracing.model`. Without a tracer (the default) the only cost
is one ``None`` check per request.
"""

from __future__ import annotations

import itertools

from repro.balancers.base import Balancer
from repro.errors import MeshError
from repro.mesh.cluster import split_backend_name
from repro.mesh.ejection import OutlierEjectionConfig, OutlierEjector
from repro.mesh.fastdispatch import _RequestMachine
from repro.telemetry.metrics import BackendTelemetry
from repro.telemetry.names import scoped_series_name


class ProxyPolicy:
    """What a client-side proxy decides, whatever carries the bytes:
    knobs, scoped telemetry, ejector, request ids and the fail-open
    pick. :class:`ClientProxy` and the live ``LiveProxy`` add transport."""

    def __init__(self, source_cluster: str, service: str, backend_names,
                 balancer: Balancer, rng, max_retries: int = 0,
                 retry_backoff_s: float = 0.0,
                 request_timeout_s: float | None = None,
                 outlier_ejection: OutlierEjectionConfig | None = None):
        """Args:
            source_cluster: cluster this proxy lives in.
            service: the destination service this proxy routes to.
            backend_names: the service's backends.
            balancer: backend-selection policy.
            rng: private random stream (weighted picks, network jitter).
            max_retries: client retries on failed responses (0 reproduces
                the paper's benchmarks, which do not retry — §5.2.1; the
                retry model is what Eq. 3's penalty factor assumes).
            retry_backoff_s: fixed delay before each retry attempt.
            request_timeout_s: per-attempt deadline; ``None`` (the paper's
                setup) waits forever.
            outlier_ejection: circuit-breaker tunables; ``None`` (the
                paper's setup) disables ejection.
        """
        if max_retries < 0:
            raise MeshError(f"max retries must be >= 0: {max_retries}")
        if retry_backoff_s < 0:
            raise MeshError(f"retry backoff must be >= 0: {retry_backoff_s}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise MeshError(
                f"request timeout must be positive: {request_timeout_s}")
        self.source_cluster = source_cluster
        self.service = service
        self.balancer = balancer
        self.rng = rng
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.request_timeout_s = request_timeout_s
        self.timeouts = 0
        self._request_ids = itertools.count()
        # Telemetry is scoped by source cluster: each cluster's controller
        # must see latency from its own vantage point (a remote backend is
        # slow *from here*, fast from its own cluster).
        self.telemetry: dict[str, BackendTelemetry] = {
            name: BackendTelemetry(
                name, scrape_name=scoped_series_name(source_cluster, name))
            for name in backend_names
        }
        self.ejector: OutlierEjector | None = None
        if outlier_ejection is not None:
            self.ejector = OutlierEjector(
                list(self.telemetry), outlier_ejection)

    def telemetry_bundles(self) -> list[BackendTelemetry]:
        """The per-backend bundles (a live proxy's /metrics page)."""
        return list(self.telemetry.values())

    def _pick_backend(self, now: float) -> tuple[str, int]:
        """Balancer pick, filtered through the outlier ejector if enabled.

        When the pick is ejected the balancer is asked again a bounded
        number of times; if every draw is ejected the proxy *fails open*
        and sends anyway — blackholing all traffic on the say-so of a local
        breaker would be worse than probing a possibly-dead backend.

        Returns ``(backend_name, ejection_skips)`` — the number of
        ejected draws that were passed over before this pick (surfaced
        on the attempt span so traces explain "why not the obvious
        backend").
        """
        backend_name = self.balancer.pick(self.rng, now)
        if self.ejector is None or self.ejector.admit(backend_name, now):
            return backend_name, 0
        skips = 1
        for _ in range(3 * len(self.telemetry)):
            candidate = self.balancer.pick(self.rng, now)
            if self.ejector.admit(candidate, now):
                return candidate, skips
            skips += 1
        return backend_name, skips


class ClientProxy(ProxyPolicy):
    """Routes one service's outgoing traffic from one source cluster."""

    def __init__(self, mesh, source_cluster: str, service: str,
                 balancer: Balancer, rng,
                 forward_overhead_s: float = 0.0002,
                 max_retries: int = 0, retry_backoff_s: float = 0.0,
                 request_timeout_s: float | None = None,
                 outlier_ejection: OutlierEjectionConfig | None = None):
        """``mesh`` is the owning :class:`~repro.mesh.mesh.ServiceMesh`,
        ``forward_overhead_s`` the per-request forwarding cost; the rest
        are :class:`ProxyPolicy`'s."""
        super().__init__(
            source_cluster, service,
            mesh.deployment(service).backend_names(), balancer, rng,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s,
            request_timeout_s=request_timeout_s,
            outlier_ejection=outlier_ejection)
        self.mesh = mesh
        self.forward_overhead_s = forward_overhead_s
        # What the request machines pre-bind, and their free lists.
        pool = mesh.sim.pool
        self._sched = pool.schedule
        self._gate = pool.gate
        self._net_delay = mesh.network.delay
        self._machines: list[_RequestMachine] = []
        self._flights: list = []
        self._targets: dict[str, tuple] = {}

    def dispatch(self, intended_start_s: float, done,
                 body_factory=None) -> None:
        """Start one request; ``done(record)`` fires when it completes.

        The request begins within this call, at the current simulation
        time: the balancer pick and the send are made before it returns.
        Its lifecycle is the state machine of
        :mod:`repro.mesh.fastdispatch`.

        Args:
            intended_start_s: open-loop schedule time latency is measured
                from (pass ``sim.now`` for "now").
            done: called with the finished
                :class:`~repro.mesh.request.RequestRecord`.
            body_factory: optional ``f(target_cluster) -> body | None``
                supplying the service body run on the chosen replica
                while its slot is held; ``body(resume)`` must call
                ``resume(ok)`` once (call-graph applications use this to
                make downstream calls from the backend's own cluster).
        """
        machines = self._machines
        machine = machines.pop() if machines else _RequestMachine(self)
        machine.intended_start_s = intended_start_s
        machine.done = done
        machine.body_factory = body_factory
        machine._start()

    def _resolve(self, backend_name: str) -> tuple:
        """``(Backend, target_cluster, telemetry)`` for a pick, cached.

        The pick set is fixed for a deployed service, so the name split
        and deployment lookup are resolved once per backend.
        """
        found = self._targets.get(backend_name)
        if found is None:
            telemetry = self.telemetry.get(backend_name)
            if telemetry is None:
                raise MeshError(
                    f"balancer picked unknown backend {backend_name!r} "
                    f"for service {self.service!r}")
            _service, target_cluster = split_backend_name(backend_name)
            backend = self.mesh.deployment(
                self.service).backend_in(target_cluster)
            found = (backend, target_cluster, telemetry)
            self._targets[backend_name] = found
        return found
