"""End-to-end tournament runner tests on tiny real grids."""

import json

import pytest

from repro.bench.study import reduce_rows
from repro.errors import ConfigError
from repro.tournament.runner import run_tournament, tournament_json

# Short enough for CI, long enough that the perturbation cells hold a
# complete fault window with a pre-fault baseline on either side.
DURATION_S = 24.0


@pytest.fixture(scope="module")
def tiny_result():
    return run_tournament(
        algorithms=["round-robin", "p2c"],
        scenarios=["scenario-1", "degraded-backend"],
        duration_s=DURATION_S, jobs=1)


class TestRunTournament:
    def test_grid_shape(self, tiny_result):
        assert tiny_result.algorithms == ("round-robin", "p2c")
        assert tiny_result.scenarios == ("scenario-1", "degraded-backend")
        for scenario in tiny_result.scenarios:
            for algorithm in tiny_result.algorithms:
                score = tiny_result.score(scenario, algorithm)
                assert score["requests"] > 50
                assert score["p50_ms"] <= score["p99_ms"]
                assert 0.0 <= score["success_rate"] <= 1.0

    def test_convergence_only_on_perturbed_cells(self, tiny_result):
        for algorithm in tiny_result.algorithms:
            assert tiny_result.score(
                "scenario-1", algorithm)["convergence_s"] is None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="round-robin"):
            run_tournament(algorithms=["nope"], scenarios=["scenario-1"],
                           duration_s=DURATION_S)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="degraded-backend"):
            run_tournament(algorithms=["p2c"], scenarios=["nope"],
                           duration_s=DURATION_S)

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ConfigError, match="repetitions"):
            run_tournament(algorithms=["p2c"], scenarios=["scenario-1"],
                           duration_s=DURATION_S, repetitions=0)

    def test_jobs_invariance_byte_identical(self, tiny_result):
        parallel = run_tournament(
            algorithms=["round-robin", "p2c"],
            scenarios=["scenario-1", "degraded-backend"],
            duration_s=DURATION_S, jobs=2)
        serial_blob = json.dumps(tournament_json(tiny_result), sort_keys=True)
        parallel_blob = json.dumps(tournament_json(parallel), sort_keys=True)
        assert serial_blob == parallel_blob

    def test_cell_matches_grid_entry(self, tiny_result):
        cell = run_tournament(
            algorithms=["p2c"], scenarios=["scenario-1"],
            duration_s=DURATION_S).score("scenario-1", "p2c")
        assert cell == tiny_result.score("scenario-1", "p2c")


class TestTournamentJson:
    def test_document_shape(self, tiny_result):
        doc = tournament_json(tiny_result)
        assert doc["schema"] == 1
        assert doc["config"]["algorithms"] == ["round-robin", "p2c"]
        assert doc["config"]["duration_s"] == DURATION_S
        assert set(doc["grid"]) == {"scenario-1", "degraded-backend"}
        for row in doc["grid"].values():
            assert set(row) == {"round-robin", "p2c"}
            for score in row.values():
                assert set(score) == {"p50_ms", "p99_ms", "success_rate",
                                      "requests", "convergence_s"}
        assert doc["leaderboard"]["ranking"]

    def test_document_is_json_roundtrippable(self, tiny_result):
        doc = tournament_json(tiny_result)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_floats_rounded_for_committing(self, tiny_result):
        doc = tournament_json(tiny_result)
        for row in doc["grid"].values():
            for score in row.values():
                for value in score.values():
                    if isinstance(value, float):
                        assert value == round(value, 3)


class TestMeanScores:
    """Repetitions reduce through the study layer's one reducer."""

    def test_averages_and_rounds(self):
        mean = reduce_rows([
            {"p50_ms": 10.0, "p99_ms": 100.0, "success_rate": 1.0,
             "requests": 100, "convergence_s": 10.0},
            {"p50_ms": 20.0, "p99_ms": 200.0, "success_rate": 0.5,
             "requests": 101, "convergence_s": None},
        ])
        assert mean["p50_ms"] == 15.0
        assert mean["p99_ms"] == 150.0
        assert mean["success_rate"] == 0.75
        assert mean["requests"] == 100
        # Convergence averages over the repetitions that recovered.
        assert mean["convergence_s"] == 10.0

    def test_all_unrecovered_stays_none(self):
        mean = reduce_rows([
            {"p50_ms": 1.0, "p99_ms": 2.0, "success_rate": 1.0,
             "requests": 10, "convergence_s": None},
        ])
        assert mean["convergence_s"] is None
