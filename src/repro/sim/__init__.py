"""Discrete-event simulation kernel.

A small, deterministic simulator with one scheduling primitive: a pooled
callback event on a heap agenda. The request data plane schedules its
hops with ``sim.pool.schedule``; one-off actions (weight pushes, faults)
use ``sim.call_at`` / ``sim.call_after``; control loops (scraper,
controllers, autoscalers) are ``sim.every(interval_s, tick)``. The
kernel is the substrate on which the whole multi-cluster mesh model runs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RngRegistry",
    "Server",
    "Simulator",
    "lognormal_params_from_percentiles",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.resources": ("Server",),
    "repro.sim.rng": ("RngRegistry", "lognormal_params_from_percentiles"),
})
