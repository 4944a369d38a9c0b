"""Perf-trajectory baseline: kernel events/sec, requests/sec, sweep scaling.

Measures (1) the simulation kernel on one reference scenario cell —
events dispatched per wall-clock second and simulated requests per
wall-clock second — and (2) the end-to-end wall-clock of a small
multi-cell sweep at ``jobs=1`` versus ``jobs=<cpus>``. Results land in
``BENCH_perf.json`` at the repository root; the committed copy is the
baseline every future PR is measured against (CI fails on a >30 %
requests/sec regression, see ``.github/workflows/ci.yml``). Events/sec
is reported but not gated: it counts agenda entries, not work, and
falls whenever a request is served with fewer of them.

Run it::

    python benchmarks/bench_perf.py                   # measure + write
    python benchmarks/bench_perf.py --check           # also compare with
                                                      # the committed file
    python benchmarks/bench_perf.py --duration 120    # bigger sample

The simulated workload is deterministic (fixed seed), so the *simulation*
is identical run to run — only the wall-clock varies with the host.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pathlib
import pstats
import sys
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.coordinator import run_scenario_benchmark
from repro.bench.parallel import Cell, default_jobs, run_cells

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_perf.json"

# The reference cell: one fixed, moderately loaded scenario run.
REFERENCE_SCENARIO = "scenario-1"
REFERENCE_ALGORITHM = "l3"
REFERENCE_SEED = 1

# Regression bar for --check: fail if requests/sec drops by more than
# this fraction versus the committed baseline.
DEFAULT_TOLERANCE = 0.30


def measure_reference(duration_s: float, repeat: int = 3) -> dict:
    """Serial reference runs; returns the kernel throughput numbers.

    The simulated work is identical every run (fixed seed), so wall-clock
    spread is pure host noise — the run is repeated and the *best* wall
    is reported, the standard defence against scheduler/neighbour
    interference on shared CI hosts. Every wall is recorded alongside so
    the noise level stays visible in the report.
    """
    walls = []
    result = None
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        result = run_scenario_benchmark(
            REFERENCE_SCENARIO, REFERENCE_ALGORITHM, duration_s=duration_s,
            seed=REFERENCE_SEED)
        walls.append(time.perf_counter() - started)
    wall = min(walls)
    return {
        "scenario": REFERENCE_SCENARIO,
        "algorithm": REFERENCE_ALGORITHM,
        "seed": REFERENCE_SEED,
        "engine": "fast",  # BENCH_perf.json's schema; there is one engine
        "duration_s": duration_s,
        "repeat": len(walls),
        "wall_clock_s": round(wall, 3),
        "wall_clock_all_s": [round(w, 3) for w in walls],
        "events_processed": result.events_processed,
        "requests": result.request_count,
        "events_per_sec": round(result.events_processed / wall, 1),
        "requests_per_sec": round(result.request_count / wall, 1),
    }


def profile_reference(duration_s: float, path: pathlib.Path,
                      top: int = 30) -> None:
    """Profile one reference run; write the top-N cumulative dump."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_scenario_benchmark(
        REFERENCE_SCENARIO, REFERENCE_ALGORITHM, duration_s=duration_s,
        seed=REFERENCE_SEED)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buffer.getvalue(), encoding="utf-8")
    print(f"wrote profile dump to {path}")


def measure_sweep(duration_s: float, cells: int, jobs: int) -> dict:
    """Time the same multi-cell sweep at jobs=1 and jobs=N."""
    algorithms = ("round-robin", "c3", "l3")

    def sweep_cells():
        return [
            Cell(id=f"{REFERENCE_SCENARIO}/{algorithms[i % 3]}/seed{i}",
                 fn=run_scenario_benchmark,
                 kwargs={"scenario": REFERENCE_SCENARIO,
                         "algorithm": algorithms[i % 3],
                         "duration_s": duration_s, "seed": i + 1})
            for i in range(cells)
        ]

    timings = {}
    digests = {}
    for n in (1, jobs):
        started = time.perf_counter()
        outcomes = run_cells(sweep_cells(), jobs=n)
        timings[n] = time.perf_counter() - started
        digests[n] = [
            (o.cell_id, o.unwrap().request_count) for o in outcomes.values()
        ]
    if digests[1] != digests[jobs]:
        raise AssertionError(
            "parallel sweep diverged from serial sweep — determinism "
            "contract violated")
    cpus = os.cpu_count() or 1
    return {
        "cells": cells,
        "cell_duration_s": duration_s,
        "jobs": jobs,
        "cpus": cpus,
        # On a single-CPU host jobs=N only adds process overhead; a
        # "speedup" measured there is pure noise, so it is recorded as
        # null rather than as a misleading sub-1.0 number (--check
        # ignores the sweep in that case either way).
        "speedup_meaningful": cpus >= 2,
        "jobs1_wall_clock_s": round(timings[1], 3),
        "jobsN_wall_clock_s": round(timings[jobs], 3),
        "speedup": round(timings[1] / timings[jobs], 2)
        if cpus >= 2 and timings[jobs] > 0 else None,
    }


def check_regression(current: dict, baseline_path: pathlib.Path,
                     tolerance: float) -> list[str]:
    """Compare current throughput against the committed baseline.

    The sweep section is compared only when *both* runs were measured on
    a multi-CPU host (``speedup_meaningful``): a 1-CPU container cannot
    exhibit parallel speedup, only process overhead, so its numbers
    carry no regression signal.
    """
    if not baseline_path.exists():
        return [f"no committed baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    problems = []
    base_rps = baseline.get("reference", {}).get("requests_per_sec")
    cur_rps = current["reference"]["requests_per_sec"]
    if base_rps:
        floor = base_rps * (1.0 - tolerance)
        if cur_rps < floor:
            problems.append(
                f"requests/sec regressed: {cur_rps:.0f} < {floor:.0f} "
                f"(baseline {base_rps:.0f}, tolerance {tolerance:.0%})")
    base_sweep = baseline.get("sweep", {})
    cur_sweep = current.get("sweep", {})
    if not cur_sweep.get("speedup_meaningful", False):
        if cur_sweep:
            problems.append(
                f"sweep measured with {cur_sweep.get('cpus', 1)} cpu(s); "
                "speedup comparison skipped (not a regression)")
        return problems
    base_speedup = base_sweep.get("speedup")
    cur_speedup = cur_sweep.get("speedup")
    if (base_sweep.get("speedup_meaningful") and base_speedup
            and cur_speedup is not None):
        floor = base_speedup * (1.0 - tolerance)
        if cur_speedup < floor:
            problems.append(
                f"sweep speedup regressed: {cur_speedup:.2f} < "
                f"{floor:.2f} (baseline {base_speedup:.2f}, "
                f"tolerance {tolerance:.0%})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="kernel + sweep perf baseline (writes BENCH_perf.json)")
    parser.add_argument("--duration", type=float, default=60.0,
                        metavar="SECONDS",
                        help="measured seconds of the reference run "
                             "(default 60)")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="reference-run repetitions; the best wall "
                             "is reported (default 3)")
    parser.add_argument("--profile", action="store_true",
                        help="additionally profile one reference run and "
                             "write the cProfile top-30 dump to "
                             "benchmarks/_output/perf_profile.txt")
    parser.add_argument("--sweep-cells", type=int, default=4, metavar="N",
                        help="cells in the jobs=1 vs jobs=cpu sweep "
                             "(default 4)")
    parser.add_argument("--sweep-duration", type=float, default=30.0,
                        metavar="SECONDS",
                        help="measured seconds per sweep cell (default 30)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="parallel side of the sweep comparison "
                             "(default 0 = one per CPU)")
    parser.add_argument("--output", default=str(BASELINE_PATH),
                        metavar="PATH",
                        help="where to write the JSON report "
                             "(default: BENCH_perf.json at the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if events/sec regressed more "
                             "than --tolerance vs the committed baseline")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional events/sec regression "
                             f"for --check (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="measure only the reference cell")
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    report = {
        "schema": 1,
        "host": {"cpus": os.cpu_count(),
                 "python": sys.version.split()[0]},
        "reference": measure_reference(
            args.duration, repeat=args.repeat),
    }
    if not args.skip_sweep:
        report["sweep"] = measure_sweep(
            args.sweep_duration, args.sweep_cells, max(jobs, 2))
    if args.profile:
        profile_reference(
            args.duration,
            REPO_ROOT / "benchmarks" / "_output" / "perf_profile.txt")

    reference = report["reference"]
    print(f"reference cell: {reference['scenario']}/"
          f"{reference['algorithm']} ({reference['engine']} engine) "
          f"for {reference['duration_s']:g}s sim, "
          f"best of {reference['repeat']}")
    print(f"  events/sec     {reference['events_per_sec']:>12,.0f}")
    print(f"  requests/sec   {reference['requests_per_sec']:>12,.0f}")
    print(f"  wall-clock     {reference['wall_clock_s']:>11.3f}s")
    if "sweep" in report:
        sweep = report["sweep"]
        print(f"sweep: {sweep['cells']} cells x "
              f"{sweep['cell_duration_s']:g}s sim")
        print(f"  jobs=1         {sweep['jobs1_wall_clock_s']:>11.3f}s")
        print(f"  jobs={sweep['jobs']:<10}{sweep['jobsN_wall_clock_s']:>14.3f}s")
        if sweep["speedup"] is None:
            print(f"  speedup        {'n/a':>12}  "
                  f"({sweep['cpus']} cpu host)")
        else:
            print(f"  speedup        {sweep['speedup']:>12}x")

    problems = []
    if args.check:
        problems = check_regression(
            report, BASELINE_PATH, args.tolerance)
        for problem in problems:
            print(f"CHECK: {problem}", file=sys.stderr)

    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {args.output}")
    return 1 if any("regressed" in p for p in problems) else 0


if __name__ == "__main__":
    sys.exit(main())
