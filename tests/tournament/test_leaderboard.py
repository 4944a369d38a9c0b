"""Leaderboard math on synthetic scored grids (no simulation)."""

from repro.tournament.leaderboard import LEADERBOARD_METRICS, build_leaderboard
from repro.tournament.runner import TournamentResult, check_contract


def make_result(scores: dict, algorithms=None) -> TournamentResult:
    if algorithms is None:
        algorithms = tuple(next(iter(scores.values())))
    return TournamentResult(
        algorithms=tuple(algorithms),
        scenarios=tuple(scores),
        duration_s=60.0, repetitions=1, seed0=1, scores=scores)


def score(p99, success=1.0, convergence=None) -> dict:
    return {"p50_ms": p99 / 2, "p99_ms": p99, "success_rate": success,
            "requests": 1000, "convergence_s": convergence}


class TestBuildLeaderboard:
    def test_clear_winner_ranks_first(self):
        result = make_result({
            "s1": {"fast": score(10.0), "slow": score(50.0)},
            "s2": {"fast": score(20.0), "slow": score(60.0)},
        })
        board = build_leaderboard(result)
        assert board["ranking"][0] == "fast"
        assert board["metrics"]["p99_ms"]["wins"] == {"fast": 2, "slow": 0}
        assert board["metrics"]["p99_ms"]["win_rate"]["fast"] == 1.0
        assert board["head_to_head_p99"]["fast"]["slow"] == 2
        assert board["head_to_head_p99"]["slow"]["fast"] == 0

    def test_ties_share_the_win(self):
        result = make_result({
            "s1": {"a": score(10.0), "b": score(10.0)},
        })
        board = build_leaderboard(result)
        p99 = board["metrics"]["p99_ms"]
        assert p99["wins"] == {"a": 1, "b": 1}
        assert p99["scenarios_contested"] == 1
        # Strict-inequality head-to-head: a tie is no win either way.
        assert board["head_to_head_p99"]["a"]["b"] == 0
        assert board["head_to_head_p99"]["b"]["a"] == 0

    def test_convergence_contested_only_where_defined(self):
        result = make_result({
            "trace": {"a": score(10.0), "b": score(20.0)},
            "fault": {"a": score(10.0, convergence=15.0),
                      "b": score(20.0, convergence=5.0)},
        })
        board = build_leaderboard(result)
        conv = board["metrics"]["convergence_s"]
        assert conv["scenarios_contested"] == 1
        assert conv["wins"] == {"a": 0, "b": 1}

    def test_never_recovered_contests_but_cannot_win(self):
        result = make_result({
            "fault": {"a": score(10.0, convergence=None),
                      "b": score(20.0, convergence=30.0)},
        })
        board = build_leaderboard(result)
        conv = board["metrics"]["convergence_s"]
        assert conv["scenarios_contested"] == 1
        assert conv["wins"] == {"a": 0, "b": 1}

    def test_success_rate_wins_by_maximum(self):
        result = make_result({
            "s1": {"a": score(10.0, success=0.9),
                   "b": score(50.0, success=1.0)},
        })
        board = build_leaderboard(result)
        assert board["metrics"]["success_rate"]["wins"] == {"a": 0, "b": 1}

    def test_ranking_tie_breaks_deterministically(self):
        # Identical scores everywhere: ranking falls back to name order.
        result = make_result({
            "s1": {"zeta": score(10.0), "alpha": score(10.0)},
        })
        board = build_leaderboard(result)
        assert board["ranking"] == ["alpha", "zeta"]

    def test_metric_directions_as_documented(self):
        assert LEADERBOARD_METRICS == {
            "p99_ms": "lower",
            "success_rate": "higher",
            "convergence_s": "lower",
        }


class TestCheckContract:
    def test_passes_when_l3_beats_round_robin(self):
        result = make_result({
            "degraded-backend": {"l3": score(40.0),
                                 "round-robin": score(90.0)},
        })
        assert check_contract(result) == []

    def test_fails_when_l3_loses(self):
        result = make_result({
            "degraded-backend": {"l3": score(90.0),
                                 "round-robin": score(40.0)},
        })
        failures = check_contract(result)
        assert len(failures) == 1
        assert "did not beat" in failures[0]

    def test_missing_scenario_reported(self):
        result = make_result({
            "scenario-1": {"l3": score(10.0), "round-robin": score(20.0)},
        })
        failures = check_contract(result)
        assert failures and "degraded-backend" in failures[0]

    def test_missing_algorithms_reported(self):
        result = make_result({
            "degraded-backend": {"p2c": score(10.0)},
        })
        failures = check_contract(result)
        assert len(failures) == 2
