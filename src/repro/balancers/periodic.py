"""Shared glue for balancers built as controller + TrafficSplit pairs.

L3, C3 and the weight solvers (KnapsackLB, the service-rate model) are
the same three-piece sandwich: a TrafficSplit the data plane samples, a
controller with a periodic ``reconcile`` that writes weights into it,
and a ``sim.every`` loop ticking the reconcile. This module factors
it once: a controller only has to provide
``reconcile(now)``/``pause()``/``resume()`` plus the
``last_weights``/``reconcile_count`` introspection fields, and
:class:`PeriodicSplitBalancer` supplies the split, the pick path and the
loop lifecycle.
"""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.mesh.traffic_split import TrafficSplit
from repro.sim.engine import Simulator


class PeriodicSplitBalancer(Balancer):
    """A TrafficSplit kept fresh by a periodic reconcile controller.

    Subclasses construct their controller in ``__init__`` via
    ``make_controller(split)`` and inherit pick/start/stop; the
    controller's ``reconcile_interval_s`` config field sets the loop
    cadence.
    """

    def __init__(self, sim: Simulator, service: str, backend_names,
                 make_controller, propagation_delay_s: float = 0.5):
        self.sim = sim
        self.split = TrafficSplit(
            sim, service, backend_names,
            propagation_delay_s=propagation_delay_s)
        self.controller = make_controller(self.split)
        self._loop = None

    def pick(self, rng, now: float) -> str:
        return self.split.pick(rng)

    def tick(self, now: float) -> None:
        """One reconcile turn (skipped while paused); ``start`` runs it on
        ``sim.every``, the live harness from its wall-clock tick."""
        if not self.controller.paused:
            self.controller.reconcile(now)

    def start(self, sim) -> None:
        if self._loop is None:
            self._loop = sim.every(
                self.controller.config.reconcile_interval_s, self.tick)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.cancel()
            self._loop = None
