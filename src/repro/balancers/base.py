"""The balancer interface the client proxy programs against.

Two families implement it:

* per-request balancers decide in :meth:`pick` (round-robin, P2C);
* weight-based balancers (L3, C3-adapted, static) keep a TrafficSplit
  up to date from a periodic control loop and :meth:`pick` just samples it.

The optional hooks let in-proxy balancers (P2C) maintain their own local
view without the Prometheus detour the controller-based algorithms take.
"""

from __future__ import annotations

import abc


class Balancer(abc.ABC):
    """Chooses the backend for each outgoing request."""

    @abc.abstractmethod
    def pick(self, rng, now: float) -> str:
        """Return the backend name for the next request."""

    def on_request_sent(self, backend: str, now: float) -> None:
        """Hook: a request was dispatched to ``backend``."""

    def on_response(self, backend: str, now: float, latency_s: float,
                    success: bool) -> None:
        """Hook: a response for ``backend`` completed."""

    def start(self, sim) -> None:
        """Hook: start any background control loops on ``sim``."""

    def stop(self) -> None:
        """Hook: stop background control loops."""
