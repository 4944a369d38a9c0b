"""Simulator wiring: run per-backend autoscalers inside a benchmark.

:class:`SimAutoscaleSet` builds one
:class:`~repro.autoscale.controller.BackendAutoscaler` per covered
cluster of a scenario deployment, exposes the ``replica_count`` gauge
and ``autoscale_events`` counter to the scraper under each backend's
``server|<backend>`` series (names from the one table,
:mod:`repro.telemetry.names`), and starts one
``sim.every`` loop per scaler so every control loop ticks at its policy's
own interval, concurrently with the weight controller's reconcile loop.

Strictly opt-in: a benchmark without autoscaling constructs none of
this — no loops, no RNG draws, no gauges — so the golden digest of
autoscale-off runs is byte-identical to pre-autoscale builds.
"""

from __future__ import annotations

from functools import partial

from repro.autoscale.controller import BackendAutoscaler
from repro.autoscale.policy import AutoscalePolicy
from repro.autoscale.targets import SimBackendTarget
from repro.telemetry import names as metric_names


class SimAutoscaleSet:
    """Every autoscaler of one simulated benchmark run.

    Attributes:
        scalers: ``{cluster: BackendAutoscaler}`` in sorted order.
        weight_samples: ``(time, {backend: weight})`` snapshots of the
            weight controller's TrafficSplit, taken at every scaler tick
            when a controller was attached — the raw series of the
            control-loop interaction study (weight flaps vs. replica
            flaps on the same signal).
    """

    def __init__(self, deployment, policies: dict[str, AutoscalePolicy],
                 source, scraper, *, controller=None, now: float = 0.0):
        """Args:
            deployment: the scenario's
                :class:`~repro.mesh.service.ServiceDeployment`.
            policies: ``{cluster: AutoscalePolicy}`` (clusters absent
                from the mapping keep fixed replica sets).
            source: :class:`~repro.telemetry.query.PromMetricsSource`
                over the run's store.
            scraper: the run's scraper; replica-count gauges and event
                counters are registered per scaled backend.
            controller: optional weight controller whose ``last_weights``
                are sampled at scaler ticks.
            now: cost-accounting start time.
        """
        self.scalers: dict[str, BackendAutoscaler] = {}
        self.controller = controller
        self.weight_samples: list[tuple[float, dict]] = []
        self._loops: list = []
        for cluster in sorted(policies):
            policy = policies[cluster]
            backend = deployment.backend_in(cluster)
            target = SimBackendTarget(
                backend, warmup_s=policy.warmup_s,
                cold_start_factor=policy.cold_start_factor)
            scaler = BackendAutoscaler(
                backend.name, target, policy, source, now=now)
            self.scalers[cluster] = scaler
            series = metric_names.server_series_name(backend.name)
            scraper.register_gauge(
                series, metric_names.REPLICA_COUNT,
                lambda t=target: t.replica_count)
            scraper.register_gauge(
                series, metric_names.AUTOSCALE_EVENTS,
                lambda s=scaler: s.events_total)

    def start(self, sim) -> None:
        """Start one control loop per scaler (no-op while running)."""
        if self._loops:
            return
        for scaler in self.scalers.values():
            self._loops.append(sim.every(
                scaler.policy.interval_s, partial(self._tick, scaler)))

    def stop(self, now: float) -> None:
        """Cancel every loop and close the cost integrals."""
        for loop in self._loops:
            loop.cancel()
        self._loops = []
        for scaler in self.scalers.values():
            scaler.finalize(now)

    def _tick(self, scaler: BackendAutoscaler, now: float) -> None:
        scaler.step(now)
        if self.controller is not None:
            self.weight_samples.append(
                (now, dict(self.controller.last_weights)))

    # ------------------------------------------------- result readers -- #

    def event_log(self) -> list[tuple[float, str, int, int]]:
        """Merged ``(time, backend, delta, replicas_after)`` log."""
        merged = [
            (when, scaler.backend_name, delta, after)
            for scaler in self.scalers.values()
            for when, delta, after in scaler.events
        ]
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged

    def replica_seconds(self) -> dict[str, float]:
        """Per-backend cost integrals."""
        return {scaler.backend_name: scaler.replica_seconds
                for scaler in self.scalers.values()}

    def final_replicas(self) -> dict[str, int]:
        """Per-backend replica counts at the end of the run."""
        return {scaler.backend_name: scaler.replica_count
                for scaler in self.scalers.values()}
