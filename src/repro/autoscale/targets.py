"""Scalable replica-set targets the autoscaler core drives.

The :class:`~repro.autoscale.controller.BackendAutoscaler` manipulates a
*target* through four members — ``replica_count``,
``capacity_per_replica``, ``add_replica(now)`` / ``remove_replica(now)``
and ``tick_warmup(now)`` — so the same control loop scales a simulated
mesh backend (:class:`SimBackendTarget`) or a bare counter in a unit
test.
"""

from __future__ import annotations


class SimBackendTarget:
    """Scales a simulated :class:`~repro.mesh.service.Backend`.

    New replicas join the backend's round-robin endpoint set immediately
    on ``add_replica`` (the provisioning lag is the *controller's* model;
    by the time the controller admits, the pod is ready). A cold-start
    ramp is modelled through the replica's ``service_time_scale`` dial:
    a fresh replica runs ``cold_start_factor``× slower and ramps linearly
    to nominal speed over ``warmup_s`` (re-evaluated each control tick,
    so the ramp's granularity is the scaler interval). Removal retires
    the newest replica; its in-flight requests finish normally
    (connection draining) and its queued waiters are still served —
    capacity just stops being offered to new picks.
    """

    def __init__(self, backend, *, warmup_s: float = 0.0,
                 cold_start_factor: float = 1.0):
        self.backend = backend
        self.warmup_s = warmup_s
        self.cold_start_factor = cold_start_factor
        self._warming: list[tuple[object, float]] = []

    @property
    def replica_count(self) -> int:
        return len(self.backend.replicas)

    @property
    def capacity_per_replica(self) -> int:
        # Capacity is uniform within a backend; replicas[0] always
        # exists (the last replica can never be removed).
        return self.backend.replicas[0].server.capacity

    def add_replica(self, now: float):
        replica = self.backend.add_replica()
        if self.warmup_s > 0 and self.cold_start_factor > 1.0:
            replica.service_time_scale = self.cold_start_factor
            self._warming.append((replica, now))
        return replica

    def remove_replica(self, now: float) -> None:
        del now
        victim = self.backend.replicas[-1]
        self.backend.remove_replica()
        self._warming = [(r, t0) for r, t0 in self._warming
                         if r is not victim]

    def tick_warmup(self, now: float) -> None:
        """Advance every warming replica's service-rate ramp."""
        if not self._warming:
            return
        still_warming = []
        for replica, admitted_at in self._warming:
            progress = (now - admitted_at) / self.warmup_s
            if progress >= 1.0:
                replica.service_time_scale = 1.0
            else:
                replica.service_time_scale = (
                    self.cold_start_factor
                    - (self.cold_start_factor - 1.0) * progress)
                still_warming.append((replica, admitted_at))
        self._warming = still_warming
