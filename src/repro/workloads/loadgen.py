"""Open-loop load generation (the paper uses wrk2, a constant-throughput
client with correct latency recording).

Open loop means the request schedule never waits for responses: each
request is dispatched as its own simulation process at its *intended* send
time, and latency is measured from that intended time — so a slow backend
cannot slow the load down and thereby hide its own badness (the
coordinated-omission artefact wrk2 exists to fix).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.workloads.profiles import PiecewiseSeries, constant_series

_ARRIVALS = ("uniform", "poisson")


class OpenLoopLoadGenerator:
    """Generates requests against a dispatch target at a (time-varying) rate.

    Args:
        target: anything with a ``dispatch(intended_start_s)`` simulation
            generator returning a
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

    def _one_request(self, intended_start: float):
        record = yield from self.target.dispatch(intended_start)
        self.records.append(record)

    def run(self, sim, duration_s: float):
        """Generator process emitting requests for ``duration_s`` seconds.

        In-flight requests at the deadline are left to complete on their
        own; only requests *started* within the window are generated.
        """
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive: {duration_s}")
        deadline = sim.now + duration_s
        while True:
            gap = self._gap(sim.now)
            if sim.now + gap >= deadline:
                return
            yield sim.timeout(gap)
            intended = sim.now
            sim.spawn(self._one_request(intended),
                      name=f"request-{self.generated}")
            self.generated += 1

    def start_fast(self, sim, duration_s: float, dispatcher) -> None:
        """Drive the same schedule through a callback dispatcher.

        The fast-path twin of :meth:`run`: instead of one generator
        process yielding a fresh timeout per arrival, a
        :class:`_FastArrivals` driver pre-draws inter-arrival gaps in
        chunks from the same private random stream (same draws, same
        order — the schedule is a pure function of the load series and
        the stream) and emits each arrival as one pooled callback.

        Args:
            dispatcher: a callback-mode request engine — anything with
                ``dispatch(intended_start_s)`` (non-generator) and a
                ``pool`` :class:`~repro.sim.events.EventPool`, i.e. a
                :class:`~repro.mesh.fastdispatch.FastRequestEngine`.
        """
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive: {duration_s}")
        _FastArrivals(self, sim, dispatcher, duration_s)


class _FastArrivals:
    """Chunked pre-drawn open-loop arrivals for the fast-path engine.

    Event-order mirror of :meth:`OpenLoopLoadGenerator.run`: one delay-0
    bootstrap hop (the spawned process's bootstrap event), then per
    arrival the request's dispatch hop enters the agenda *before* the
    next arrival's timeout — the generator loop's exact insertion order,
    so heap tie-breaks are unchanged.

    Gap values are identical too: the trajectory ``t += gap(t)`` uses the
    same float accumulation the simulator clock performs, so every
    ``rps.value_at`` query and every Poisson draw sees the exact times
    the generator engine would, just drawn ``CHUNK`` at a time instead of
    one per wakeup. The terminal draw that crosses the deadline is
    consumed and discarded, as the generator's final loop iteration does.
    """

    CHUNK = 1024

    __slots__ = ("loadgen", "sim", "dispatcher", "duration_s", "deadline",
                 "_sched", "_gaps", "_index", "_trajectory_t", "_exhausted",
                 "_boot_cb", "_tick_cb")

    def __init__(self, loadgen, sim, dispatcher, duration_s: float):
        self.loadgen = loadgen
        self.sim = sim
        self.dispatcher = dispatcher
        self.duration_s = duration_s
        self.deadline = 0.0
        self._sched = dispatcher.pool.schedule
        self._gaps: list = []
        self._index = 0
        self._trajectory_t = 0.0
        self._exhausted = False
        self._boot_cb = self._boot
        self._tick_cb = self._tick
        # Mirror of the loadgen process's bootstrap event.
        self._sched(0.0, self._boot_cb)

    def _boot(self) -> None:
        now = self.sim.now
        self.deadline = now + self.duration_s
        self._trajectory_t = now
        self._schedule_next()

    def _refill(self) -> None:
        gap_of = self.loadgen._gap
        t = self._trajectory_t
        deadline = self.deadline
        gaps = self._gaps
        gaps.clear()
        self._index = 0
        for _ in range(self.CHUNK):
            gap = gap_of(t)
            if t + gap >= deadline:
                # The generator draws this terminal gap and returns
                # without using it; consuming it keeps the stream aligned.
                self._exhausted = True
                break
            t = t + gap
            gaps.append(gap)
        self._trajectory_t = t

    def _schedule_next(self) -> None:
        if self._index >= len(self._gaps):
            if self._exhausted:
                return
            self._refill()
            if self._index >= len(self._gaps):
                return
        gap = self._gaps[self._index]
        self._index += 1
        self._sched(gap, self._tick_cb)

    def _tick(self) -> None:
        # sim.now is exactly the scheduled arrival time: the agenda stores
        # now + gap, the same accumulation _refill performed.
        self.dispatcher.dispatch(self.sim.now)
        self.loadgen.generated += 1
        # _schedule_next() inlined — this hop fires once per request.
        index = self._index
        gaps = self._gaps
        if index >= len(gaps):
            if self._exhausted:
                return
            self._refill()
            index = 0
            gaps = self._gaps
            if not gaps:
                return
        self._index = index + 1
        self._sched(gaps[index], self._tick_cb)
