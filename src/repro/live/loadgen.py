"""Open-loop load generation on wall-clock time.

The live twin of :class:`repro.workloads.loadgen.OpenLoopLoadGenerator`:
arrival times follow the (time-varying) RPS schedule regardless of how
slowly responses come back — each request runs as its own asyncio task
and latency is measured from the *intended* send time, so a slow backend
cannot slow the load down and hide its own badness (the
coordinated-omission correction wrk2 popularised). When the event loop
falls behind the schedule (a burst of slow callbacks), the generator
does not sleep for already-due arrivals: it fires them immediately,
back-to-back, preserving the open-loop schedule as closely as the host
allows.
"""

from __future__ import annotations

import asyncio

from repro.errors import ConfigError
from repro.workloads.profiles import PiecewiseSeries, constant_series

_ARRIVALS = ("uniform", "poisson")


class LiveLoadGenerator:
    """Schedules open-loop requests against a live proxy."""

    def __init__(self, proxy, rps, rng, records: list, clock,
                 arrival: str = "uniform"):
        """Args:
            proxy: anything with an async
                ``dispatch(intended_start_s) -> RequestRecord``.
            rps: offered load; a float or a :class:`PiecewiseSeries`.
            rng: private random stream (Poisson gaps).
            records: list completed request records are appended to.
            clock: zero-argument callable, seconds since the run started.
            arrival: ``"uniform"`` (wrk2-style spacing) or ``"poisson"``.
        """
        if arrival not in _ARRIVALS:
            raise ConfigError(
                f"arrival must be one of {_ARRIVALS}: {arrival!r}")
        if isinstance(rps, (int, float)):
            rps = constant_series(float(rps))
        if not isinstance(rps, PiecewiseSeries):
            raise ConfigError(f"rps must be a number or series: {rps!r}")
        self.proxy = proxy
        self.rps = rps
        self.rng = rng
        self.records = records
        self.clock = clock
        self.arrival = arrival
        self.generated = 0
        # In-flight request tasks, for the harness's drain phase.
        self.inflight: set[asyncio.Task] = set()

    def _gap(self, now: float) -> float:
        rate = max(self.rps.value_at(now), 1e-9)
        if self.arrival == "poisson":
            return self.rng.expovariate(rate)
        return 1.0 / rate

    async def _send_one(self, intended_start: float) -> None:
        record = await self.proxy.dispatch(intended_start)
        self.records.append(record)

    async def run(self, duration_s: float) -> None:
        """Emit requests for ``duration_s`` seconds, then return.

        In-flight requests at the deadline keep running in their own
        tasks (tracked in :attr:`inflight` for the harness to drain).
        """
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive: {duration_s}")
        start = self.clock()
        deadline = start + duration_s
        # The intended-arrival trajectory: advance by the schedule's
        # gaps, sleeping only for the portion still in the future.
        t = start
        while True:
            gap = self._gap(t)
            t += gap
            if t >= deadline:
                return
            delay = t - self.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            task = asyncio.ensure_future(self._send_one(t))
            self.inflight.add(task)
            task.add_done_callback(self.inflight.discard)
            self.generated += 1
