"""Parallel sweep execution over independent benchmark cells.

Every figure in the paper is a sweep over independent (scenario ×
algorithm × seed) cells — each cell builds its own simulator, its own RNG
registry from its own seed, and shares no state with any other cell. That
makes sweeps embarrassingly parallel, and this module is the one place
that exploits it: :func:`run_cells` shards a list of :class:`Cell`\\ s
across worker processes and merges the results back **by cell id, in the
input order** — never by completion order — so a parallel sweep is
byte-identical to the serial one.

Determinism contract:

* *Per-cell seeding* — a cell's kwargs carry its seed explicitly; workers
  receive the cell verbatim and derive nothing from worker identity,
  scheduling order, or wall-clock.
* *Ordered merge* — the returned mapping preserves the input cell order
  regardless of which worker finished first (dict insertion order is the
  iteration order downstream table builders rely on).
* *Failure isolation* — a cell that raises (or whose worker process dies)
  becomes a recorded :class:`CellOutcome` error; the sweep continues and
  every other cell still completes.

``jobs=1`` (the default everywhere) bypasses multiprocessing entirely and
runs the cells inline, preserving the pre-parallel behavior exactly —
including exception *recording* semantics, so serial and parallel runs
are comparable error-for-error.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class Cell:
    """One independent unit of sweep work.

    Attributes:
        id: unique key the result is merged under (e.g.
            ``"scenario-1/l3/seed3"``).
        fn: a callable, picklable for ``jobs > 1`` (a module-level
            function, or an instance such as a study ``Trial``).
        kwargs: keyword arguments, including the cell's own seed.
    """

    id: str
    fn: object
    kwargs: dict = field(default_factory=dict)


@dataclass
class CellOutcome:
    """What one cell produced: a value, or a recorded error."""

    cell_id: str
    value: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self):
        """The cell's value; raises :class:`CellFailed` on a recorded error."""
        if self.error is not None:
            raise CellFailed(
                f"sweep cell {self.cell_id!r} failed:\n{self.error}")
        return self.value


class CellFailed(RuntimeError):
    """Raised by :meth:`CellOutcome.unwrap` for a cell that errored."""


def default_jobs() -> int:
    """Worker count for ``jobs=None``: one per available CPU."""
    return max(os.cpu_count() or 1, 1)


def _run_cell(cell: Cell) -> CellOutcome:
    """Execute one cell, converting any exception into a recorded error."""
    try:
        return CellOutcome(cell_id=cell.id, value=cell.fn(**cell.kwargs))
    except Exception:  # noqa: BLE001 - the sweep must survive any cell
        return CellOutcome(cell_id=cell.id, error=traceback.format_exc())


def run_cells(cells, jobs: int | None = 1) -> dict[str, CellOutcome]:
    """Run independent sweep cells, optionally across worker processes.

    Args:
        cells: iterable of :class:`Cell`; ids must be unique.
        jobs: worker processes. ``1`` runs inline (no multiprocessing at
            all — the exact pre-parallel code path); ``None`` means one
            worker per CPU. Results are identical for every value.

    Returns:
        ``{cell.id: CellOutcome}`` in input-cell order.
    """
    cells = list(cells)
    seen: set[str] = set()
    for cell in cells:
        if cell.id in seen:
            raise ConfigError(f"duplicate sweep cell id: {cell.id!r}")
        seen.add(cell.id)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1 (or None for all CPUs): {jobs}")

    if jobs == 1 or len(cells) <= 1:
        outcomes = {cell.id: _run_cell(cell) for cell in cells}
    else:
        outcomes = _run_cells_in_pool(cells, min(jobs, len(cells)))
    # Ordered merge: input order, not completion order.
    return {cell.id: outcomes[cell.id] for cell in cells}


def _run_cells_in_pool(cells, jobs: int) -> dict[str, CellOutcome]:
    """Fan cells out over a process pool, surviving worker crashes.

    Python-level exceptions never escape a worker (``_run_cell`` records
    them in place), so a broken pool here means a worker process itself
    died (OOM-kill, segfault, interpreter abort). A dying worker breaks
    the whole pool — every in-flight future fails with it, and the crash
    cannot be attributed to one cell from the wreckage. So on the rare
    crash path, each unfinished cell is re-run in its own single-worker
    pool: innocents that were merely pending complete normally, and a
    cell that reproducibly kills its worker is pinned as the culprit and
    recorded as an error — the sweep always completes.
    """
    outcomes: dict[str, CellOutcome] = {}
    pool_broke = _pool_pass(cells, jobs, outcomes)
    if pool_broke:
        for cell in cells:
            if cell.id in outcomes:
                continue
            solo: dict[str, CellOutcome] = {}
            _pool_pass([cell], 1, solo)
            outcomes[cell.id] = solo.get(cell.id) or CellOutcome(
                cell_id=cell.id,
                error="worker process died while running this cell")
    return outcomes


def _pool_pass(cells, jobs: int, outcomes: dict) -> bool:
    """One executor lifetime; returns True if the pool broke (crash)."""
    # Only a multi-worker sweep pays for the executor machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    broke = False
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [(pool.submit(_run_cell, cell), cell) for cell in cells]
        for future, cell in futures:
            try:
                outcome = future.result()
            except BrokenProcessPool:
                broke = True
                continue
            except Exception:  # noqa: BLE001 - e.g. unpicklable result
                outcomes[cell.id] = CellOutcome(
                    cell_id=cell.id, error=traceback.format_exc())
                continue
            outcomes[outcome.cell_id] = outcome
    return broke
