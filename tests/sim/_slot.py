"""How a generator process waits for a :class:`Server` slot."""

from __future__ import annotations


def slot(sim, server):
    """An event that fires once the caller holds a slot of ``server``.

    ``yield slot(sim, server)`` in a process; pair with
    ``server.release()``.
    """
    event = sim.event()
    if server.try_acquire():
        event.succeed()
    else:
        server.enqueue_waiter(event)
    return event
