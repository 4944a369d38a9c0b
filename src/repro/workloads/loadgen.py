"""Open-loop load generation (the paper uses wrk2, a constant-throughput
client with correct latency recording).

Open loop means the request schedule never waits for responses: each
request is dispatched at its *intended* send time, and latency is measured
from that intended time — so a slow backend cannot slow the load down and
thereby hide its own badness (the coordinated-omission artefact wrk2
exists to fix).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.workloads.profiles import PiecewiseSeries, constant_series

_ARRIVALS = ("uniform", "poisson")

# Inter-arrival gaps pre-drawn per refill.
_CHUNK = 1024


class OpenLoopLoadGenerator:
    """Generates requests against a dispatch target at a (time-varying) rate.

    Args:
        target: anything with ``dispatch(intended_start_s, done)`` that
            eventually calls ``done(record)`` with a
            :class:`~repro.mesh.request.RequestRecord` (a
            :class:`~repro.mesh.proxy.ClientProxy`, or a call-graph app
            entry point).
        rps: offered load; a float or a :class:`PiecewiseSeries`.
        rng: private random stream (Poisson gaps).
        records: list that completed request records are appended to.
        arrival: ``"uniform"`` for wrk2-style constant spacing,
            ``"poisson"`` for exponential inter-arrivals.
    """

    def __init__(self, target, rps, rng, records: list,
                 arrival: str = "uniform"):
        if arrival not in _ARRIVALS:
            raise ConfigError(
                f"arrival must be one of {_ARRIVALS}: {arrival!r}")
        if isinstance(rps, (int, float)):
            rps = constant_series(float(rps))
        if not isinstance(rps, PiecewiseSeries):
            raise ConfigError(f"rps must be a number or series: {rps!r}")
        self.target = target
        self.rps = rps
        self.rng = rng
        self.records = records
        self.arrival = arrival
        self.generated = 0

    def _gap(self, now: float) -> float:
        series = self.rps
        rate = series._values[0] if series._constant else series.value_at(now)
        if rate < 1e-9:
            rate = 1e-9
        if self.arrival == "poisson":
            return self.rng.expovariate(rate)
        return 1.0 / rate

    def start(self, sim, duration_s: float) -> None:
        """Emit requests for ``duration_s`` seconds from now.

        In-flight requests at the deadline are left to complete on their
        own; only requests *started* within the window are generated.
        One run at a time per generator.

        Event order (fixed by the determinism digests): one delay-0 hop
        before the first gap is drawn, then per arrival the request is
        dispatched — started within the arrival's callback — *before*
        the next arrival enters the agenda.
        """
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive: {duration_s}")
        self._sim = sim
        self._duration_s = duration_s
        self._sched = sim.pool.schedule
        self._dispatch = self.target.dispatch
        self._done = self.records.append
        self._tick_cb = self._tick
        self._gaps: list = []
        self._index = 0
        self._exhausted = False
        self._sched(0.0, self._boot)

    def _boot(self) -> None:
        now = self._sim.now
        self._deadline = now + self._duration_s
        self._trajectory_t = now
        self._refill()
        if self._gaps:
            self._index = 1
            self._sched(self._gaps[0], self._tick_cb)

    def _refill(self) -> None:
        """Pre-draw the next ``_CHUNK`` inter-arrival gaps.

        The trajectory ``t += gap(t)`` uses the same float accumulation
        the simulator clock performs, so every ``rps.value_at`` query and
        every Poisson draw sees the exact arrival times, just drawn a
        chunk at a time instead of one per wakeup. The terminal draw that
        crosses the deadline is consumed and discarded.
        """
        gap_of = self._gap
        t = self._trajectory_t
        deadline = self._deadline
        gaps = self._gaps
        gaps.clear()
        for _ in range(_CHUNK):
            gap = gap_of(t)
            if t + gap >= deadline:
                self._exhausted = True
                break
            t = t + gap
            gaps.append(gap)
        self._trajectory_t = t

    def _tick(self) -> None:
        # sim.now is exactly the scheduled arrival time: the agenda stores
        # now + gap, the same accumulation _refill performed.
        self._dispatch(self._sim.now, self._done)
        self.generated += 1
        index = self._index
        gaps = self._gaps
        if index >= len(gaps):
            if self._exhausted:
                return
            self._refill()
            index = 0
            if not gaps:
                return
        self._index = index + 1
        self._sched(gaps[index], self._tick_cb)
