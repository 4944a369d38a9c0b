"""Tournament execution: the grid, the scores, the deterministic sweep.

One tournament cell is one ``(scenario, algorithm, repetition)`` triple,
declared as a :class:`~repro.bench.study.Trial` and scored in its worker
to P50/P99, success rate, request count and — on the perturbation cells
— the convergence time after the fault heals
(:func:`~repro.bench.study.recovery_intervals` buckets). The grid runs
through :func:`~repro.bench.study.run_grid` and the repetitions reduce
through :func:`~repro.bench.study.reduce_rows`: the result — and the
JSON document :func:`tournament_json` derives from it — is
byte-identical for every ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.balancers.factory import BALANCER_NAMES
from repro.bench.coordinator import ScenarioBenchConfig
from repro.bench.fault_matrix import steady_scenario
from repro.bench.study import (
    RECOVERY_BUCKET_S,
    Trial,
    fault_window,
    latency,
    recovery_intervals,
    reduce_grid,
    run_grid,
)
from repro.errors import ConfigError
from repro.tournament.grid import select_scenarios
from repro.tournament.leaderboard import build_leaderboard

# Round scores to this many decimals in the JSON document: enough to
# rank on, few enough that the committed baseline stays readable.
_JSON_DECIMALS = 3


@dataclass
class TournamentResult:
    """The scored grid plus the configuration that produced it."""

    algorithms: tuple
    scenarios: tuple
    duration_s: float
    repetitions: int
    seed0: int
    #: ``{scenario: {algorithm: score row}}`` averaged over repetitions;
    #: a row holds ``p50_ms``, ``p99_ms``, ``success_rate``, ``requests``
    #: and ``convergence_s`` — seconds after the heal until the tail
    #: recovered, ``None`` on the trace cells and on perturbed cells that
    #: never recovered (ranked worst).
    scores: dict = field(default_factory=dict)

    def score(self, scenario: str, algorithm: str) -> dict:
        return self.scores[scenario][algorithm]


def _score(result, window=None) -> dict:
    """One run's tournament row (see :attr:`TournamentResult.scores`)."""
    row = latency(result)
    del row["p90_ms"]
    row["convergence_s"] = None
    if window is not None:
        intervals = recovery_intervals(result.records, *window)
        if intervals is not None:
            row["convergence_s"] = intervals * RECOVERY_BUCKET_S
    return row


def run_tournament(algorithms=None, scenarios=None,
                   duration_s: float = 120.0, repetitions: int = 1,
                   seed0: int = 1, jobs: int | None = 1) -> TournamentResult:
    """Race ``algorithms`` across ``scenarios`` and score every cell.

    Args:
        algorithms: balancer names (default: every registered algorithm).
        scenarios: tournament scenario names (default: the full grid).
        duration_s: measured seconds per cell.
        repetitions: seeds per cell; scores are averaged.
        seed0: first seed; repetition ``r`` runs with ``seed0 + r``.
        jobs: worker processes for the sweep (1 = serial, None = all
            CPUs); the result is identical for every value.
    """
    if algorithms is None:
        algorithms = BALANCER_NAMES
    unknown = [name for name in algorithms if name not in BALANCER_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown balancer(s) {unknown}; expected a subset of "
            f"{BALANCER_NAMES}")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1: {repetitions}")
    grid = select_scenarios(duration_s, scenarios)
    warmup_s = ScenarioBenchConfig().warmup_s
    trials = []
    for cell in grid:
        score = _score
        if cell.perturbed:
            score = partial(_score, window=fault_window(
                cell.faults, duration_s, warmup_s))
        for algorithm in algorithms:
            trials.append(Trial(
                f"{cell.name}/{algorithm}", score=score,
                kwargs={"scenario": cell.base or steady_scenario(duration_s),
                        "algorithm": algorithm, "duration_s": duration_s,
                        "faults": list(cell.faults)}))
    rows = reduce_grid(run_grid(
        trials, seeds=range(seed0, seed0 + repetitions), jobs=jobs))
    result = TournamentResult(
        algorithms=tuple(algorithms),
        scenarios=tuple(c.name for c in grid),
        duration_s=duration_s, repetitions=repetitions, seed0=seed0)
    for cell in grid:
        result.scores[cell.name] = {
            algorithm: rows[f"{cell.name}/{algorithm}"]
            for algorithm in algorithms}
    return result


def tournament_json(result: TournamentResult) -> dict:
    """The whole tournament as one deterministic JSON-able document.

    Contains nothing host- or wall-clock-dependent: the same
    configuration produces the byte-identical document on any machine at
    any ``jobs`` value.
    """
    return {
        "schema": 1,
        "config": {
            "algorithms": list(result.algorithms),
            "scenarios": list(result.scenarios),
            "duration_s": result.duration_s,
            "repetitions": result.repetitions,
            "seed0": result.seed0,
        },
        "grid": {
            scenario: {
                algorithm: {key: (round(value, _JSON_DECIMALS)
                                  if isinstance(value, float) else value)
                            for key, value in score.items()}
                for algorithm, score in row.items()
            }
            for scenario, row in result.scores.items()
        },
        "leaderboard": build_leaderboard(result),
    }


def check_contract(result: TournamentResult) -> list[str]:
    """The CI smoke contract; returns failure descriptions (empty = pass).

    The claim under test is the paper's headline: under a degraded
    cross-cluster path, the latency-aware controller beats round-robin
    on client-perceived P99.
    """
    failures = []
    row = result.scores.get("degraded-backend")
    if row is None:
        return ["contract needs the 'degraded-backend' scenario in the grid"]
    for name in ("l3", "round-robin"):
        if name not in row:
            failures.append(f"contract needs algorithm {name!r} in the grid")
    if failures:
        return failures
    l3_p99 = row["l3"]["p99_ms"]
    rr_p99 = row["round-robin"]["p99_ms"]
    if not l3_p99 < rr_p99:
        failures.append(
            f"l3 did not beat round-robin on degraded-backend P99: "
            f"l3={l3_p99:.1f} ms vs round-robin={rr_p99:.1f} ms")
    return failures
