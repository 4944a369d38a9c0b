"""One study layer: grid cells, per-run scores, one reducer.

The figures, the fault matrix, the tournament and the elasticity study
all run (scenario × algorithm × seed) cells, score each run and compare
means. Each is a declaration over this module: one :class:`Trial` per
grid row, :func:`run_grid` to run **and score** every (trial × seed)
cell in its worker — only the score row crosses the process boundary —
and :func:`reduce_rows` for the one mean. :func:`fault_window` is the
one place fault times meet the warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.percentiles import exact_percentile
from repro.bench.coordinator import SCENARIO_SERVICE, run_scenario_benchmark
from repro.bench.parallel import Cell, run_cells
from repro.errors import ConfigError
from repro.mesh.cluster import backend_name

# A recovery bucket matches the controller's reconcile interval.
RECOVERY_BUCKET_S = 5.0
RECOVERY_TOLERANCE = 0.10

# Relative weight change below which a reconcile does not count as a
# direction flip (weight solvers jitter by a few parts per thousand).
_WEIGHT_FLAP_THRESHOLD = 0.10


def fault_window(faults, duration_s: float,
                 warmup_s: float = 0.0) -> tuple[float, float]:
    """(start, heal) of a fault schedule, shifted by ``warmup_s``.

    Fault times count from the start of the measured period; records
    carry absolute simulation time, so pass the run's warm-up to compare
    against them. The window must start after 0 (a pre-fault baseline)
    and heal before ``duration_s`` (a recovery period).
    """
    if not faults:
        raise ConfigError("no fault window: the schedule has no faults")
    start = min(f.at_s for f in faults)
    end = max(f.at_s + (f.duration_s or 0.0) for f in faults)
    if start <= 0:
        raise ConfigError(f"the fault starts at {start:g}s: it must start "
                          "after 0 so the run has a pre-fault baseline")
    if end >= duration_s:
        raise ConfigError(
            f"the fault heals at {end:g}s, but the measured period ends at "
            f"{duration_s:g}s: run for more than {end:g}s")
    return start + warmup_s, end + warmup_s


# --------------------------------------------------------------------- #
# Per-run scores
# --------------------------------------------------------------------- #

def latency(result) -> dict:
    """P50/P90/P99 (ms), success rate and request count of one run."""
    return {"p50_ms": result.p50_ms, "p90_ms": result.p90_ms,
            "p99_ms": result.p99_ms, "success_rate": result.success_rate,
            "requests": result.request_count}


def faulted_share(records, start_s: float, end_s: float, cluster: str,
                  service: str = SCENARIO_SERVICE) -> float:
    """Share of requests issued in ``[start_s, end_s)`` sent to ``cluster``."""
    target = backend_name(service, cluster)
    window = [r for r in records if start_s <= r.intended_start_s < end_s]
    if not window:
        return 0.0
    return sum(1 for r in window if r.backend == target) / len(window)


def recovery_intervals(records, start_s: float, end_s: float,
                       bucket_s: float = RECOVERY_BUCKET_S,
                       tolerance: float = RECOVERY_TOLERANCE) -> int | None:
    """Reconcile intervals after the heal until the tail is back to normal.

    Requests issued before ``start_s`` set the pre-fault P99; requests
    issued from ``end_s`` on fall into ``bucket_s`` windows. The answer
    is the 1-based index of the first bucket whose P99 is within
    ``tolerance`` of the pre-fault P99 (1 = recovered within one
    interval); ``None`` if there was no pre-fault traffic or the tail
    never recovered inside the measured period.
    """
    pre = [r.latency_s for r in records if r.intended_start_s < start_s]
    if not pre:
        return None
    threshold = exact_percentile(pre, 0.99) * (1.0 + tolerance)
    buckets: dict[int, list] = {}
    for r in records:
        if r.intended_start_s >= end_s:
            buckets.setdefault(int((r.intended_start_s - end_s) // bucket_s),
                               []).append(r.latency_s)
    for index in sorted(buckets):
        if exact_percentile(buckets[index], 0.99) <= threshold:
            return index + 1
    return None


def count_replica_flaps(events) -> int:
    """Scaling direction reversals, summed over backends.

    A flap is a scale-up followed by a scale-down on the same backend
    (or vice versa) — the signature of the two control loops fighting.
    A clean surge response (N ups, then N downs) counts exactly one.
    """
    last_direction: dict[str, int] = {}
    flaps = 0
    for _when, backend, delta, _after in events:
        previous = last_direction.get(backend)
        if previous is not None and delta != previous:
            flaps += 1
        last_direction[backend] = delta
    return flaps


def count_weight_flaps(weight_samples) -> int:
    """Weight direction reversals beyond a 10 % dead-band, summed.

    Consumes the ``(time, {backend: weight})`` snapshots the autoscale
    driver records at scaler ticks. A flap is a materially increasing
    weight turning into a materially decreasing one (or vice versa).
    """
    last_weight: dict[str, float] = {}
    last_direction: dict[str, int] = {}
    flaps = 0
    for _when, weights in weight_samples:
        for backend, weight in weights.items():
            previous = last_weight.get(backend)
            last_weight[backend] = weight
            if previous is None or previous <= 0:
                continue
            if abs(weight - previous) / previous < _WEIGHT_FLAP_THRESHOLD:
                continue
            direction = 1 if weight > previous else -1
            if last_direction.get(backend, direction) != direction:
                flaps += 1
            last_direction[backend] = direction
    return flaps


def convergence_after(events, weight_samples, after_s: float) -> float:
    """Seconds past ``after_s`` until both control loops went quiet.

    Not a tail-recovery rule: :func:`recovery_intervals` asks when
    *clients* see normal latency again, this asks when the *controllers*
    stop acting — the later of the last replica-set change and the last
    materially-changed weight snapshot (10 % dead-band) at or after
    ``after_s``. Zero means both loops were already steady.
    """
    settled = after_s
    for when, _backend, _delta, _after in events:
        if when >= after_s:
            settled = max(settled, when)
    previous: dict[str, float] = {}
    for when, weights in weight_samples:
        changed = False
        for backend, weight in weights.items():
            last = previous.get(backend)
            if last is not None and last > 0 \
                    and abs(weight - last) / last >= _WEIGHT_FLAP_THRESHOLD:
                changed = True
            previous[backend] = weight
        if changed and when >= after_s:
            settled = max(settled, when)
    return settled - after_s


# --------------------------------------------------------------------- #
# The grid and the reducer
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Trial:
    """One grid row; calling it with a seed runs and scores one cell.

    ``run`` and ``score`` must pickle (module-level functions, or a
    :func:`functools.partial` of one) for ``jobs > 1``.
    """

    label: str
    kwargs: dict
    score: Callable = latency
    run: Callable = run_scenario_benchmark

    def __call__(self, seed: int) -> dict:
        return self.score(self.run(seed=seed, **self.kwargs))


def run_grid(trials, seeds=(1,), jobs: int | None = 1) -> dict:
    """``{label: [score row per seed]}`` in trial order, for every ``jobs``."""
    seeds = list(seeds)
    cells = [Cell(id=f"{trial.label}#seed{seed}", fn=trial,
                  kwargs={"seed": seed})
             for trial in trials for seed in seeds]
    outcomes = run_cells(cells, jobs=jobs)
    return {trial.label: [outcomes[f"{trial.label}#seed{seed}"].unwrap()
                          for seed in seeds]
            for trial in trials}


def reduce_rows(rows: list[dict]) -> dict:
    """The mean row of one cell's per-seed rows.

    Numbers average with :func:`statistics.mean`, skipping ``None`` (a
    seed whose tail never recovered); a key that is ``None`` in every
    row stays ``None``, and integer counts round. Anything else (labels,
    replica maps) must agree across seeds and passes through, so a
    single row reduces to itself bit-for-bit.
    """
    # Imported here: fault_matrix imports this module, and everything
    # that imports fault_matrix should not pay for statistics/decimal.
    import statistics

    mean = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        present = [v for v in values if v is not None]
        if not present:
            mean[key] = None
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
                 for v in present):
            value = statistics.mean(present)
            ints = all(isinstance(v, int) for v in present)
            mean[key] = round(value) if ints else value
        elif all(v == values[0] for v in values):
            mean[key] = values[0]
        else:
            raise ConfigError(f"seeds disagree on {key!r}: {values}")
    return mean


def reduce_grid(grid: dict) -> dict:
    """``{label: mean row}`` of a :func:`run_grid` result."""
    return {label: reduce_rows(rows) for label, rows in grid.items()}
