"""The study layer: fault windows, the one reducer, the grid runner."""

import math

import pytest

from repro.bench.fault_matrix import run_fault_matrix
from repro.bench.study import (
    Trial,
    fault_window,
    reduce_rows,
    run_grid,
)
from repro.errors import ConfigError
from repro.faults import ClusterOutage, ScrapeOutage


class TestFaultWindow:
    def test_shifts_by_the_warmup(self):
        faults = [ClusterOutage("cluster-2", at_s=10.0, duration_s=5.0),
                  ScrapeOutage(at_s=12.0, duration_s=8.0)]
        assert fault_window(faults, 60.0) == (10.0, 20.0)
        assert fault_window(faults, 60.0, warmup_s=30.0) == (40.0, 50.0)

    def test_window_must_heal_before_the_run_ends(self):
        faults = [ClusterOutage("cluster-2", at_s=60.0, duration_s=45.0)]
        with pytest.raises(ConfigError, match="more than 105s"):
            fault_window(faults, 105.0)

    def test_window_must_start_after_zero(self):
        faults = [ClusterOutage("cluster-2", at_s=0.0, duration_s=10.0)]
        with pytest.raises(ConfigError, match="pre-fault baseline"):
            fault_window(faults, 60.0)


class TestFaultMatrixWindow:
    """A matrix whose fault misses the measured period is refused."""

    def test_run_ending_before_the_fault_is_refused(self):
        # The default fault runs 60 -> 105 s; a 50 s run never sees it
        # and used to report perfect rerouting for every algorithm.
        with pytest.raises(ConfigError, match="more than 105s"):
            run_fault_matrix(algorithms=("l3", "round-robin"),
                             duration_s=50.0)

    def test_fault_at_zero_is_refused(self):
        # No pre-fault baseline: recovery could never be measured.
        with pytest.raises(ConfigError, match="pre-fault baseline"):
            run_fault_matrix(algorithms=("l3",), duration_s=60.0,
                             fault_start_s=0.0, fault_duration_s=10.0)


class TestReduceRows:
    def test_one_row_reduces_to_itself_bit_for_bit(self):
        row = {"p50_ms": 0.1 + 0.2, "p99_ms": math.nan, "requests": 7,
               "convergence_s": None, "mode": "autoscale",
               "final_replicas": {"api/cluster-1": 3}, "target": None}
        mean = reduce_rows([row])
        assert repr(mean) == repr(row)
        assert type(mean["requests"]) is int

    def test_none_skipped_in_the_mean(self):
        mean = reduce_rows([{"convergence_s": 5.0}, {"convergence_s": None},
                            {"convergence_s": 15.0}])
        assert mean["convergence_s"] == 10.0

    def test_all_none_stays_none(self):
        mean = reduce_rows([{"convergence_s": None}] * 3)
        assert mean["convergence_s"] is None

    def test_counts_round_and_floats_use_the_exact_mean(self):
        mean = reduce_rows([{"requests": 100, "p99_ms": 0.1},
                            {"requests": 103, "p99_ms": 0.2},
                            {"requests": 103, "p99_ms": 0.4}])
        assert mean["requests"] == 102
        assert mean["p99_ms"] == pytest.approx(0.7 / 3)

    def test_labels_must_agree_across_seeds(self):
        with pytest.raises(ConfigError, match="mode"):
            reduce_rows([{"mode": "a"}, {"mode": "b"}])


def _run_square(x, seed):
    return {"x": x, "seed": seed}


def _score_square(result):
    return {"value": result["x"] ** 2 + result["seed"]}


class TestRunGrid:
    def test_keeps_every_seed_row_in_trial_order(self):
        trials = [Trial(f"x={x}", {"x": x}, score=_score_square,
                        run=_run_square) for x in (3, 1)]
        grid = run_grid(trials, seeds=(10, 20))
        assert grid == {"x=3": [{"value": 19}, {"value": 29}],
                        "x=1": [{"value": 11}, {"value": 21}]}
        assert run_grid(trials, seeds=(10, 20), jobs=2) == grid
