"""The one balancer for every controller-based algorithm (paper Fig. 5).

L3, C3 and the weight solvers (KnapsackLB, the service-rate model) are
the same three-piece sandwich: a TrafficSplit the data plane samples, a
:class:`~repro.core.controller.ReconcileController` whose periodic
``reconcile`` writes weights into it, and a ``sim.every`` loop ticking
the reconcile. An algorithm is only the controller class it is given.
"""

from __future__ import annotations

from repro.balancers.base import Balancer
from repro.mesh.traffic_split import TrafficSplit
from repro.sim.engine import Simulator


class PeriodicSplitBalancer(Balancer):
    """A TrafficSplit kept fresh by a periodic reconcile controller.

    ``controller_type(names, metrics_source, split, config,
    start_time=sim.now)`` builds the controller; its config's
    ``reconcile_interval_s`` sets the loop cadence.
    """

    def __init__(self, sim: Simulator, service: str, backend_names,
                 metrics_source, controller_type, config=None,
                 propagation_delay_s: float = 0.5):
        self.sim = sim
        self.split = TrafficSplit(
            sim, service, backend_names,
            propagation_delay_s=propagation_delay_s)
        self.controller = controller_type(
            list(backend_names), metrics_source, self.split, config,
            start_time=sim.now)
        self._loop = None

    @property
    def config(self):
        return self.controller.config

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
