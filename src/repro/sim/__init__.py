"""Discrete-event simulation kernel.

A small, deterministic simulator in the style of SimPy. Control loops
(scraper, controllers, autoscalers, fault injectors) are generator
processes that ``yield`` events (timeouts, other processes, bare events)
and are resumed when those fire; the request data plane schedules pooled
callbacks on the same agenda. The kernel is the substrate on which the
whole multi-cluster mesh model runs.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Server
from repro.sim.rng import RngRegistry, lognormal_params_from_percentiles

__all__ = [
    "Event",
    "Process",
    "RngRegistry",
    "Server",
    "Simulator",
    "Timeout",
    "lognormal_params_from_percentiles",
]
