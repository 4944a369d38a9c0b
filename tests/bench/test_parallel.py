"""The parallel sweep executor: ordering, isolation, crash handling."""

from __future__ import annotations

import os

import pytest

from repro.bench.parallel import (
    Cell,
    CellFailed,
    CellOutcome,
    default_jobs,
    run_cells,
)
from repro.errors import ConfigError


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"cell exploded on {x}")


def _slow_square(x):
    # Later cells finish *before* earlier ones under any honest pool;
    # the merge order must not care.
    import time

    time.sleep(0.2 if x == 0 else 0.0)
    return x * x


def _kill_worker(x):
    if x == 2:
        os._exit(13)  # simulate a segfault/OOM-kill, not an exception
    return x


def _cells(fn, values):
    return [Cell(id=f"cell-{v}", fn=fn, kwargs={"x": v}) for v in values]


class TestSerial:
    def test_values_and_order(self):
        outcomes = run_cells(_cells(_square, [3, 1, 2]), jobs=1)
        assert list(outcomes) == ["cell-3", "cell-1", "cell-2"]
        assert [o.value for o in outcomes.values()] == [9, 1, 4]
        assert all(o.ok for o in outcomes.values())

    def test_error_recorded_and_sweep_continues(self):
        outcomes = run_cells(_cells(_boom, [1]) + _cells(_square, [2]),
                             jobs=1)
        assert not outcomes["cell-1"].ok
        assert "cell exploded on 1" in outcomes["cell-1"].error
        assert outcomes["cell-2"].value == 4

    def test_unwrap_raises_cell_failed(self):
        outcome = run_cells(_cells(_boom, [7]), jobs=1)["cell-7"]
        with pytest.raises(CellFailed, match="cell-7"):
            outcome.unwrap()
        assert CellOutcome(cell_id="x", value=41).unwrap() == 41

    def test_duplicate_ids_rejected(self):
        cells = [Cell(id="same", fn=_square, kwargs={"x": 1}),
                 Cell(id="same", fn=_square, kwargs={"x": 2})]
        with pytest.raises(ConfigError, match="duplicate"):
            run_cells(cells, jobs=1)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            run_cells(_cells(_square, [1]), jobs=0)

    def test_empty_sweep(self):
        assert run_cells([], jobs=1) == {}

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestParallel:
    def test_matches_serial(self):
        cells = _cells(_square, list(range(8)))
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        assert list(serial) == list(parallel)
        assert ([o.value for o in serial.values()]
                == [o.value for o in parallel.values()])

    def test_merge_is_input_order_not_completion_order(self):
        outcomes = run_cells(_cells(_slow_square, [0, 1, 2, 3]), jobs=4)
        assert list(outcomes) == ["cell-0", "cell-1", "cell-2", "cell-3"]
        assert [o.value for o in outcomes.values()] == [0, 1, 4, 9]

    def test_error_in_one_cell_spares_the_rest(self):
        cells = (_cells(_square, [1]) + _cells(_boom, [9])
                 + _cells(_square, [3]))
        outcomes = run_cells(cells, jobs=2)
        assert outcomes["cell-1"].value == 1
        assert "cell exploded on 9" in outcomes["cell-9"].error
        assert outcomes["cell-3"].value == 9

    def test_worker_crash_recorded_and_sweep_completes(self):
        outcomes = run_cells(_cells(_kill_worker, [1, 2, 3, 4]), jobs=2)
        assert list(outcomes) == [f"cell-{v}" for v in (1, 2, 3, 4)]
        assert outcomes["cell-2"].error is not None
        assert "worker process died" in outcomes["cell-2"].error
        for survivor in (1, 3, 4):
            assert outcomes[f"cell-{survivor}"].value == survivor

    def test_jobs_none_uses_all_cpus(self):
        outcomes = run_cells(_cells(_square, [1, 2]), jobs=None)
        assert [o.value for o in outcomes.values()] == [1, 4]
