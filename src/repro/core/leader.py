"""High-availability mode: lease-based leader election (paper §4).

The reference L3 operator "can be deployed with multiple replicas in a
high-availability mode. Only a single replica acts as the leader and
changes weights through a lease-based locking leader election mechanism"
— the standard Kubernetes pattern (a Lease object with a TTL; the holder
renews it; on holder death the lease expires and another replica takes
over).

:class:`LeaseLock` models the lease; :class:`ControllerReplica` wraps one
controller instance that reconciles only while it holds the lease; a
group of replicas over one shared lease gives exactly the paper's HA
behaviour, including the takeover gap bounded by the lease TTL.
"""

from __future__ import annotations

from repro.errors import ConfigError


class LeaseLock:
    """A TTL lease: one holder at a time, renewable, expiring on silence.

    Time is explicit: every method takes ``now``. For wall-clock use (the
    live testbed's HA mode) a ``clock`` callable can be attached instead,
    and ``now`` may then be omitted — the lease reads the clock itself,
    so simulated and live deployments share one lease implementation.
    """

    def __init__(self, ttl_s: float = 15.0, clock=None):
        """Args:
            ttl_s: lease time-to-live; a silent holder loses the lease
                this long after its last renewal.
            clock: optional zero-argument callable returning the current
                time; used when ``now`` is omitted (wall-clock mode).
        """
        if ttl_s <= 0:
            raise ConfigError(f"lease TTL must be positive: {ttl_s}")
        self.ttl_s = ttl_s
        self.clock = clock
        self._holder: str | None = None
        self._expires_at: float = float("-inf")
        self.transitions: list[tuple[float, str]] = []

    def _now(self, now: float | None) -> float:
        if now is not None:
            return now
        if self.clock is None:
            raise ConfigError(
                "LeaseLock needs an explicit 'now' unless built with a clock")
        return self.clock()

    def holder(self, now: float | None = None) -> str | None:
        """The current holder, or None if the lease has expired."""
        return self._holder if self._now(now) < self._expires_at else None

    def try_acquire(self, candidate: str, now: float | None = None) -> bool:
        """Acquire (or renew) the lease; returns True if held afterwards.

        The current holder always renews; anyone else succeeds only once
        the lease has expired. Like Kubernetes' ``leaseTransitions``, a
        transition is recorded only when the holder identity changes.
        """
        now = self._now(now)
        current = self.holder(now)
        if current is not None and current != candidate:
            return False
        if self._holder != candidate:
            self.transitions.append((now, candidate))
        self._holder = candidate
        self._expires_at = now + self.ttl_s
        return True

    def release(self, candidate: str, now: float | None = None) -> None:
        """Voluntarily give the lease up (graceful shutdown)."""
        now = self._now(now)
        if self.holder(now) == candidate:
            self._expires_at = now


class ControllerReplica:
    """One replica of the L3 operator competing for the lease.

    Any :class:`~repro.core.controller.ReconcileController` (anything
    with ``paused`` and ``reconcile(now)``) works as the controller; the
    caller's loop calls :meth:`step` once per reconcile interval.
    """

    def __init__(self, name: str, controller, lease: LeaseLock):
        self.name = name
        self.controller = controller
        self.lease = lease
        self._crashed = False
        self.reconciles_as_leader = 0

    @property
    def crashed(self) -> bool:
        return self._crashed

    def is_leader(self, now: float | None = None) -> bool:
        return self.lease.holder(now) == self.name

    def crash(self) -> None:
        """Simulate process death: stop renewing, stop reconciling."""
        self._crashed = True

    def recover(self) -> None:
        """Bring a crashed replica back (it rejoins the election)."""
        self._crashed = False

    def step(self, now: float | None = None) -> bool:
        """One loop iteration; returns True if it reconciled as leader.

        With ``now`` omitted the shared lease's clock supplies the time —
        the wall-clock mode the live testbed's HA control loop uses.

        A *paused* controller (fault injection: the reconcile loop is
        stalled but the process is alive) still renews its lease — the
        deployment holds leadership with frozen weights — it just skips
        the reconcile, exactly like the non-HA run loop does.
        """
        if self._crashed:
            return False
        if now is None:
            now = self.lease._now(None)
        if not self.lease.try_acquire(self.name, now):
            return False
        if self.controller.paused:
            return False
        self.controller.reconcile(now)
        self.reconciles_as_leader += 1
        return True
