"""The clock-agnostic autoscaler core: one control loop per backend.

:class:`BackendAutoscaler` is a pure ``step(now)`` state machine — it
holds no reference to the simulator or to wall clocks, so the same core
drives the simulated benchmark coordinator
(:class:`~repro.autoscale.driver.SimAutoscaleSet` starts one
``sim.every`` loop per scaler) and deterministic unit tests that call
``step`` with hand-picked timestamps.

Each step, in order:

1. **account** — integrate replica-seconds cost (running *and*
   provisioning replicas bill, as cloud capacity does from launch);
2. **admit** — replicas whose provisioning lag has elapsed join the
   endpoint set (the target's ``add_replica``), entering their cold-start
   warmup ramp;
3. **evaluate** — query the telemetry source for the policy's signal and
   compute the raw HPA recommendation
   ``ceil(load / per-replica setpoint)``, bounded to
   ``[min_replicas, max_replicas]``; no data in the window holds state
   (never scales on silence);
4. **stabilize** — scale *up* only to the smallest recommendation of the
   up-window, scale *down* only to the largest recommendation of the
   down-window (Kubernetes HPA stabilization semantics); scale-down
   first cancels still-provisioning replicas, then retires at most one
   running replica per evaluation.

The telemetry source is duck-typed
(:class:`~repro.telemetry.query.PromMetricsSource` in production):
``server_gauge(name, metric, now, window_s) -> float | None`` for the
``inflight`` signal and ``collect([name], now, window_s, percentile)``
for ``rps``/``p99``. The scale target is equally duck-typed — see
:mod:`repro.autoscale.targets`.
"""

from __future__ import annotations

import math
from collections import deque

from repro.autoscale.policy import AutoscalePolicy
from repro.telemetry import names as metric_names


class BackendAutoscaler:
    """Scales one backend's replica set toward a policy's setpoint.

    Attributes:
        events: ``(time, delta, replicas_after)`` per admitted (+1) or
            retired (-1) replica — capacity *changes*, so the list's
            length equals the ``autoscale_events`` counter exposed to
            the scraper.
        events_total: monotonic event counter (the scraped series).
        replica_seconds: cost integral ∫(running + provisioning) dt,
            accounted between steps and closed by :meth:`finalize`.
        cancelled: still-provisioning launches aborted by a scale-down
            recommendation before they joined the endpoint set.
    """

    def __init__(self, backend_name: str, target, policy: AutoscalePolicy,
                 source, *, now: float = 0.0):
        """Args:
            backend_name: telemetry name of the scaled backend
                (e.g. ``"api/cluster-2"``).
            target: scalable replica set (``replica_count``,
                ``capacity_per_replica``, ``add_replica(now)``,
                ``remove_replica(now)``, ``tick_warmup(now)``) — see
                :mod:`repro.autoscale.targets`.
            policy: the tunables.
            source: telemetry source (duck-typed, see module docstring).
            now: time the cost accounting starts from.
        """
        self.backend_name = backend_name
        self.target = target
        self.policy = policy
        self.source = source
        self.events: list[tuple[float, int, int]] = []
        self.events_total = 0
        self.replica_seconds = 0.0
        self.cancelled = 0
        self.last_desired: int | None = None
        self._pending: list[float] = []  # admission times, FIFO
        self._recommendations: deque[tuple[float, int]] = deque()
        self._accounted_to = now

    @property
    def replica_count(self) -> int:
        """Replicas currently serving traffic."""
        return self.target.replica_count

    @property
    def pending_count(self) -> int:
        """Replicas launched but still inside the provisioning lag."""
        return len(self._pending)

    def step(self, now: float) -> None:
        """One control-loop evaluation at time ``now``."""
        self._account(now)
        self._admit(now)
        self.target.tick_warmup(now)
        desired = self._desired(now)
        if desired is None:
            return  # no telemetry in the window: hold state
        self.last_desired = desired
        policy = self.policy
        recs = self._recommendations
        recs.append((now, desired))
        horizon = now - max(policy.scale_up_stabilization_s,
                            policy.scale_down_stabilization_s)
        while recs and recs[0][0] < horizon:
            recs.popleft()
        up_goal = min(d for t, d in recs
                      if t >= now - policy.scale_up_stabilization_s)
        down_goal = max(d for t, d in recs
                        if t >= now - policy.scale_down_stabilization_s)
        running = self.target.replica_count
        effective = running + len(self._pending)
        if up_goal > effective:
            for _ in range(up_goal - effective):
                self._pending.append(now + policy.provisioning_lag_s)
        elif down_goal < effective:
            # Cancel capacity that has not arrived yet first (free), then
            # retire at most one running replica per evaluation — HPA's
            # conservative scale-down behaviour.
            excess = effective - down_goal
            while self._pending and excess > 0:
                self._pending.pop()
                self.cancelled += 1
                excess -= 1
            if excess > 0 and running > policy.min_replicas:
                self.target.remove_replica(now)
                self.events_total += 1
                self.events.append((now, -1, self.target.replica_count))

    def finalize(self, now: float) -> None:
        """Close the replica-seconds integral at the end of the run."""
        self._account(now)

    # ------------------------------------------------------------------ #

    def _account(self, now: float) -> None:
        elapsed = now - self._accounted_to
        if elapsed > 0:
            billed = self.target.replica_count + len(self._pending)
            self.replica_seconds += elapsed * billed
            self._accounted_to = now

    def _admit(self, now: float) -> None:
        due = [ready_at for ready_at in self._pending if ready_at <= now]
        if not due:
            return
        self._pending = [r for r in self._pending if r > now]
        for _ in due:
            if self.target.replica_count >= self.policy.max_replicas:
                continue
            self.target.add_replica(now)
            self.events_total += 1
            self.events.append((now, +1, self.target.replica_count))

    def _desired(self, now: float) -> int | None:
        """Raw bounded recommendation, or None without telemetry."""
        policy = self.policy
        window = policy.query_window_s
        if policy.metric == "inflight":
            load = self.source.server_gauge(
                self.backend_name, metric_names.SERVER_QUEUE, now, window)
            if load is None:
                return None
            per_replica = policy.target * self.target.capacity_per_replica
            raw = math.ceil(load / per_replica)
        else:
            sample = self.source.collect(
                [self.backend_name], now, window, 0.99)[self.backend_name]
            if sample is None:
                return None
            if policy.metric == "rps":
                raw = math.ceil(sample.rps / policy.target)
            else:  # p99: proportional toward the latency setpoint
                if sample.latency_s is None:
                    return None
                raw = math.ceil(self.target.replica_count
                                * sample.latency_s / policy.target)
        return min(max(raw, policy.min_replicas), policy.max_replicas)
