"""Tournament harness: race every registered balancer across scenarios.

The subsystem enumerates the balancer registry against a fixed scenario
grid (the five TIER-derived cells plus a degraded-backend and an outage
cell drawn from the fault matrix), runs the grid through the
deterministic parallel sweep executor, scores each cell on tail latency,
success rate and post-perturbation convergence time, and reduces the
scores to a leaderboard: per-metric win rates plus a P99 head-to-head
table, rendered as JSON and as ASCII tables. ``repro tournament`` is the
CLI front end; ``repro tournament --jobs 0 --output BENCH_tournament.json``
regenerates the committed baseline.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LEADERBOARD_METRICS",
    "TOURNAMENT_SCENARIO_NAMES",
    "TournamentResult",
    "TournamentScenario",
    "build_leaderboard",
    "check_contract",
    "render_grid",
    "render_leaderboard",
    "select_scenarios",
    "run_tournament",
    "tournament_json",
    "tournament_scenarios",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tournament.grid": (
        "TOURNAMENT_SCENARIO_NAMES", "TournamentScenario", "select_scenarios",
        "tournament_scenarios"),
    "repro.tournament.leaderboard": (
        "LEADERBOARD_METRICS", "build_leaderboard", "render_grid",
        "render_leaderboard"),
    "repro.tournament.runner": (
        "TournamentResult", "check_contract", "run_tournament",
        "tournament_json"),
})
