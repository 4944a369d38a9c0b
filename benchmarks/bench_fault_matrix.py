"""Fault matrix — recovery time per fault type × balancing algorithm.

Sweeps every fault kind in :mod:`repro.faults` against L3, C3 and
round-robin on a steady scenario (flat latency/load, so the fault is the
only disturbance), and checks the robustness acceptance bar: under a
blackhole cluster outage with a 1-second request deadline, L3 sheds at
least 90 % of the faulted cluster's traffic and the tail recovers after
the heal.
"""

from __future__ import annotations

import pathlib
import sys

# Runnable as a plain script (python benchmarks/bench_fault_matrix.py)
# without an installed package: put src/ on the path first.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from conftest import BENCH_JOBS, FAST, run_once, save_output

from repro.bench.fault_matrix import render_fault_matrix, run_fault_matrix

# The matrix needs ~60 s of pre-fault baseline + 45 s fault + recovery
# tail; 180 s covers it, full mode doubles the recovery observation.
MATRIX_DURATION_S = 180.0 if FAST else 300.0


def test_fault_matrix(benchmark):
    matrix = run_once(
        benchmark, run_fault_matrix, duration_s=MATRIX_DURATION_S,
        jobs=BENCH_JOBS)
    save_output("fault_matrix", render_fault_matrix(matrix))

    for fault_name, row in matrix.items():
        for algorithm, cell in row.items():
            # A pre-fault baseline exists (NaN compares False).
            assert cell["pre_p99_ms"] > 0, (fault_name, algorithm)

    blackhole = matrix["cluster-blackhole"]
    # Round-robin keeps spraying the dead cluster (~1/3 of traffic); L3
    # sheds at least 90 % of it within 3 reconcile intervals.
    assert blackhole["round-robin"]["faulted_share_pct"] > 20.0
    assert blackhole["l3"]["shed_share_pct"] < 10.0
    # With a 1 s deadline nothing hangs: every cell completes with a
    # measurable during-fault success rate, and L3 keeps most traffic
    # flowing around the outage.
    assert blackhole["l3"]["fault_success_pct"] > 85.0
    # The tail comes back after the heal.
    assert blackhole["l3"]["recovery_intervals"] is not None

    outage = matrix["cluster-outage"]
    assert outage["l3"]["shed_share_pct"] < 10.0
    assert (outage["l3"]["fault_success_pct"]
            > outage["round-robin"]["fault_success_pct"])


def main(argv=None) -> int:
    """Standalone sweep entry point.

    ``python benchmarks/bench_fault_matrix.py --jobs 4`` prints the exact
    same matrix as ``--jobs 1`` (the executor merges cells by id in sweep
    order), only faster — which makes this script a self-contained check
    of the parallel executor's determinism contract: diff the outputs.
    """
    import argparse
    import time

    parser = argparse.ArgumentParser(
        description="fault-type x algorithm recovery matrix")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = serial; "
                             "0 = one per CPU)")
    parser.add_argument("--duration", type=float,
                        default=MATRIX_DURATION_S, metavar="SECONDS",
                        help="measured seconds per cell "
                             f"(default {MATRIX_DURATION_S:g})")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    matrix = run_fault_matrix(
        duration_s=args.duration, seed=args.seed,
        jobs=args.jobs if args.jobs > 0 else None)
    elapsed = time.perf_counter() - started
    print(render_fault_matrix(matrix))
    print(f"[{elapsed:.1f}s wall-clock at jobs={args.jobs}]",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
