"""Leaderboard reduction: per-metric win rates and a P99 head-to-head.

A tournament's scored grid is reduced two ways:

* **Per-metric win rates** — for each metric, every scenario column is a
  contest: the best value wins (ties share the win). The win rate is
  wins over scenarios contested, so it stays comparable across partial
  grids. ``convergence_s`` only exists on the perturbation cells; an
  algorithm whose tail never recovered holds a ``None`` — it contests
  the scenario (it ran) but cannot win it.
* **P99 head-to-head** — ``wins[a][b]`` counts scenarios where ``a``'s
  P99 is strictly below ``b``'s: the pairwise view that survives one
  algorithm being terrible on a single scenario.

The overall ranking orders algorithms by summed wins across metrics
(P99 first on ties, then name for determinism).
"""

from __future__ import annotations

from repro.bench.results import format_table

#: metric -> direction; "lower" wins by minimum, "higher" by maximum.
LEADERBOARD_METRICS = {
    "p99_ms": "lower",
    "success_rate": "higher",
    "convergence_s": "lower",
}


def _contest(row: dict, metric: str, direction: str) -> list[str]:
    """Winners of one scenario column on one metric (ties share)."""
    values = {alg: score[metric] for alg, score in row.items()}
    present = {alg: v for alg, v in values.items() if v is not None}
    if not present:
        return []
    best = (min if direction == "lower" else max)(present.values())
    return [alg for alg, v in present.items() if v == best]


def build_leaderboard(result) -> dict:
    """Reduce a :class:`~repro.tournament.runner.TournamentResult`.

    Returns a JSON-able document: per-metric wins / win rates, the P99
    head-to-head matrix, and the overall ranking.
    """
    algorithms = list(result.algorithms)
    metrics_doc = {}
    total_wins = {alg: 0 for alg in algorithms}
    for metric, direction in LEADERBOARD_METRICS.items():
        wins = {alg: 0 for alg in algorithms}
        contested = 0
        for row in result.scores.values():
            winners = _contest(row, metric, direction)
            if not winners:
                continue  # metric undefined on this scenario (no faults)
            contested += 1
            for alg in winners:
                wins[alg] += 1
        win_rate = {
            alg: (wins[alg] / contested if contested else 0.0)
            for alg in algorithms
        }
        metrics_doc[metric] = {
            "direction": direction,
            "scenarios_contested": contested,
            "wins": wins,
            "win_rate": {alg: round(rate, 3)
                         for alg, rate in win_rate.items()},
        }
        for alg in algorithms:
            total_wins[alg] += wins[alg]

    head_to_head = {
        a: {b: 0 for b in algorithms if b != a} for a in algorithms
    }
    for row in result.scores.values():
        p99 = {alg: score["p99_ms"] for alg, score in row.items()}
        for a in algorithms:
            for b in algorithms:
                if a != b and p99[a] < p99[b]:
                    head_to_head[a][b] += 1

    ranking = sorted(
        algorithms,
        key=lambda alg: (-total_wins[alg],
                         -metrics_doc["p99_ms"]["wins"][alg], alg))
    return {
        "metrics": metrics_doc,
        "head_to_head_p99": head_to_head,
        "total_wins": total_wins,
        "ranking": ranking,
    }


def render_grid(result) -> str:
    """The scored grid, one ASCII table per scenario."""
    sections = []
    for scenario, row in result.scores.items():
        baseline = "round-robin" if "round-robin" in row else None
        sections.append(format_table(
            f"tournament — {scenario} ({result.duration_s:.0f}s, "
            f"{result.repetitions} rep)", row, baseline=baseline))
    return "\n\n".join(sections)


def render_leaderboard(board: dict) -> str:
    """The leaderboard document as ASCII tables, ranking order."""
    ranking = board["ranking"]
    rows = {}
    for alg in ranking:
        row = {"total_wins": board["total_wins"][alg]}
        for metric, doc in board["metrics"].items():
            row[f"{metric} wins"] = doc["wins"][alg]
            row[f"{metric} rate"] = doc["win_rate"][alg]
        rows[alg] = row
    sections = [format_table("leaderboard — per-metric win rates "
                             "(ties share the win)", rows)]

    h2h = board["head_to_head_p99"]
    h2h_rows = {
        a: {b: ("-" if a == b else h2h[a][b]) for b in ranking}
        for a in ranking
    }
    sections.append(format_table(
        "head-to-head — scenarios won on P99 (row beats column)",
        h2h_rows))
    return "\n\n".join(sections)
