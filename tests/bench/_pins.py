"""What a pin test reports when a digest flips."""

from __future__ import annotations

from repro.bench.digest import first_divergence


def flip_report(run, first=None) -> str:
    """Why a pinned digest flipped, for the failure message.

    ``run()`` rebuilds the pinned cell (a benchmark result, or a study's
    rows); ``first`` is a run already made. The cell runs again, and
    :func:`~repro.bench.digest.first_divergence` compares the two runs:
    runs that differ make the cell nondeterministic, and the report names
    the first request record (or row) they disagree on. Runs that agree
    mean the behaviour itself changed; the pin holds no values to diff
    against, so the report says how to find the place.
    """
    first = run() if first is None else first
    where = first_divergence(first, run())
    if where is not None:
        return f"the cell is nondeterministic; two runs differ at {where}"
    return ("the cell repeats itself exactly, so its behaviour changed: "
            "run it at a commit where the pin holds too and pass both "
            "results to repro.bench.digest.first_divergence to see where")
