"""Fleet-scale throughput baseline: fast engine vs the sharded bulk path.

Runs the committed reference fleet cell (120 clusters / ~1200 replica
endpoints, ``repro.workloads.fleet.FleetSpec()`` defaults) through

1. the single-core **fast** engine — the event-kernel baseline whose
   events/sec rate every other number is measured against;
2. the **sharded** bulk engine at ``jobs=1`` — the pure vectorization
   factor, no parallelism involved;
3. ``jobs=N`` on multi-CPU hosts — the sharding speedup on top.

The shard engine runs no event kernel, so its throughput is reported as
*equivalent* events/sec: the fast engine's event count for the same cell
divided by the shard wall-clock (uniform arrivals make the two runs
serve the identical request schedule). Shard-count invariance
(``jobs=1`` vs ``jobs=2`` byte-identity) is asserted on every run, like
``bench_perf.py`` asserts sweep determinism.

Results land in ``BENCH_fleet.json`` at the repository root; the
committed copy is the baseline ``--check`` compares against (CI fails on
a >30 % regression of either engine's requests/sec or of the
vectorization factor — events/sec counts agenda entries, not work, so it
is reported but not gated; the
sharding speedup is compared only between multi-CPU measurements, and
recorded as null on single-CPU hosts where it would be noise). The
committed file's ``tournament`` block is labelled ``"engine": "vector"``:
those rows came from the since-deleted numpy-chunked engine, which was
record-identical to ``fast`` — the latencies are what ``fast`` produces;
``--check`` compares rates only.

Run it::

    python benchmarks/bench_fleet.py                  # measure + write
    python benchmarks/bench_fleet.py --check          # compare with the
                                                      # committed file
    python benchmarks/bench_fleet.py --tournament     # also race the
                                                      # leaderboard top-3
                                                      # on the fleet cell
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.coordinator import run_scenario_benchmark
from repro.bench.digest import digest_result
from repro.sim.shard import run_sharded_benchmark
from repro.workloads.fleet import FleetSpec, build_fleet_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_fleet.json"
TOURNAMENT_PATH = REPO_ROOT / "BENCH_tournament.json"

REFERENCE_SEED = 1
DEFAULT_TOLERANCE = 0.30

# How many leaderboard entries --tournament races on the fleet cell.
TOURNAMENT_TOP_N = 3


def _best_of(fn, repeat: int):
    """Run ``fn`` ``repeat`` times; return (result, best_wall, walls)."""
    walls = []
    result = None
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - started)
    return result, min(walls), walls


def measure_cell(spec: FleetSpec, seed: int, duration_s: float,
                 repeat: int, jobs: int) -> dict:
    """The three-way comparison on one fleet cell."""
    scenario = build_fleet_scenario(spec, seed=seed)
    topology = scenario.topology

    fast_result, fast_wall, fast_walls = _best_of(
        lambda: run_scenario_benchmark(
            scenario, "l3", duration_s=duration_s, seed=seed),
        repeat)
    events = fast_result.events_processed

    shard1_result, shard1_wall, shard1_walls = _best_of(
        lambda: run_sharded_benchmark(
            scenario, "l3", duration_s=duration_s, seed=seed, jobs=1),
        repeat)

    # Shard-count invariance is part of the engine's contract: assert it
    # on every measurement, not only in the test suite.
    shard2_result = run_sharded_benchmark(
        scenario, "l3", duration_s=duration_s, seed=seed, jobs=2)
    if digest_result(shard2_result) != digest_result(shard1_result):
        raise AssertionError(
            "jobs=2 diverged from jobs=1 — shard determinism contract "
            "violated")

    cpus = os.cpu_count() or 1
    vectorization = fast_wall / shard1_wall if shard1_wall > 0 else None
    report = {
        "cell": {
            "scenario": scenario.name,
            "clusters": spec.clusters,
            "endpoints": topology.total_endpoints(),
            "duration_s": duration_s,
            "seed": seed,
            "measured_requests": len(shard1_result.records),
        },
        "fast": {
            "wall_clock_s": round(fast_wall, 3),
            "wall_clock_all_s": [round(w, 3) for w in fast_walls],
            "events_processed": events,
            "events_per_sec": round(events / fast_wall, 1),
            "requests": fast_result.request_count,
        },
        "shard_jobs1": {
            "wall_clock_s": round(shard1_wall, 3),
            "wall_clock_all_s": [round(w, 3) for w in shard1_walls],
            "requests": shard1_result.request_count,
            # The fast engine's event count over the shard wall: what the
            # kernel would have had to sustain to finish this fast.
            "equivalent_events_per_sec": round(events / shard1_wall, 1),
        },
        "vectorization_factor": round(vectorization, 2),
        "jobs1_vs_jobs2_digest": "identical",
    }

    # Sharding on top of vectorization — only meaningful with real CPUs.
    sharding = {
        "jobs": jobs,
        "cpus": cpus,
        "speedup_meaningful": cpus >= 2,
        "wall_clock_s": None,
        "speedup": None,
        "combined_factor": None,
    }
    if cpus >= 2 and jobs >= 2:
        _, shardn_wall, _ = _best_of(
            lambda: run_sharded_benchmark(
                scenario, "l3", duration_s=duration_s, seed=seed,
                jobs=jobs),
            repeat)
        sharding["wall_clock_s"] = round(shardn_wall, 3)
        if shardn_wall > 0:
            sharding["speedup"] = round(shard1_wall / shardn_wall, 2)
            sharding["combined_factor"] = round(
                fast_wall / shardn_wall, 2)
    report["sharding"] = sharding
    return report


def run_tournament(spec: FleetSpec, seed: int, duration_s: float) -> dict:
    """Race the committed leaderboard's top finishers on the fleet cell.

    The zoo balancers are per-request (not in ``SHARD_ALGORITHMS``), so
    they run through the **fast** engine.
    """
    ranking = []
    if TOURNAMENT_PATH.exists():
        doc = json.loads(TOURNAMENT_PATH.read_text(encoding="utf-8"))
        ranking = doc.get("leaderboard", {}).get("ranking", [])
    contenders = ranking[:TOURNAMENT_TOP_N] or ["ewma", "failover",
                                                "service-rate"]
    scenario = build_fleet_scenario(spec, seed=seed)
    rows = {}
    for algorithm in contenders:
        started = time.perf_counter()
        result = run_scenario_benchmark(
            scenario, algorithm, duration_s=duration_s, seed=seed)
        wall = time.perf_counter() - started
        latencies = result.latency_percentiles()
        rows[algorithm] = {
            "requests": result.request_count,
            "success_rate": round(result.success_rate, 4),
            "p50_ms": round(latencies.percentile(0.50) * 1000.0, 3),
            "p99_ms": round(latencies.percentile(0.99) * 1000.0, 3),
            "wall_clock_s": round(wall, 3),
        }
    return {
        "engine": "fast",
        "cell": scenario.name,
        "duration_s": duration_s,
        "seed": seed,
        "contenders": contenders,
        "rows": rows,
    }


def _requests_per_sec(block: dict) -> float | None:
    """``requests / wall_clock_s`` of one engine block, if both exist."""
    requests, wall = block.get("requests"), block.get("wall_clock_s")
    return requests / wall if requests and wall else None


def check_regression(current: dict, baseline_path: pathlib.Path,
                     tolerance: float) -> list[str]:
    """Compare against the committed baseline, like bench_perf.py.

    Rates and factors are compared only between runs of the *same* cell
    (scenario name match); the sharding speedup only when both sides
    were measured on multi-CPU hosts.
    """
    if not baseline_path.exists():
        return [f"no committed baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("cell", {}).get("scenario") != \
            current["cell"]["scenario"]:
        return [
            f"baseline cell {baseline.get('cell', {}).get('scenario')!r} "
            f"differs from measured {current['cell']['scenario']!r}; "
            "skipping check"]
    problems = []
    pairs = [
        ("fast requests/sec",
         _requests_per_sec(baseline.get("fast", {})),
         _requests_per_sec(current["fast"])),
        ("shard jobs=1 requests/sec",
         _requests_per_sec(baseline.get("shard_jobs1", {})),
         _requests_per_sec(current["shard_jobs1"])),
        ("vectorization factor",
         baseline.get("vectorization_factor"),
         current["vectorization_factor"]),
    ]
    base_sharding = baseline.get("sharding", {})
    cur_sharding = current.get("sharding", {})
    if base_sharding.get("speedup_meaningful") and \
            cur_sharding.get("speedup_meaningful"):
        pairs.append(("sharding speedup", base_sharding.get("speedup"),
                      cur_sharding.get("speedup")))
    elif not cur_sharding.get("speedup_meaningful", False):
        problems.append(
            f"measured with {cur_sharding.get('cpus', 1)} cpu(s); "
            "sharding speedup comparison skipped (not a regression)")
    for label, base, cur in pairs:
        if not base or cur is None:
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            problems.append(
                f"{label} regressed: {cur:.2f} < {floor:.2f} "
                f"(baseline {base:.2f}, tolerance {tolerance:.0%})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fleet-scale throughput baseline "
                    "(writes BENCH_fleet.json)")
    parser.add_argument("--clusters", type=int, default=0, metavar="N",
                        help="fleet size (default 0 = the reference "
                             "spec's 120)")
    parser.add_argument("--duration", type=float, default=600.0,
                        metavar="SECONDS",
                        help="measured simulated seconds (default 600)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="repetitions per engine; best wall reported "
                             "(default 3)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="shard worker processes for the parallel "
                             "side (default 0 = one per CPU)")
    parser.add_argument("--output", default=str(BASELINE_PATH),
                        metavar="PATH",
                        help="where to write the JSON report "
                             "(default: BENCH_fleet.json at the repo "
                             "root)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) on a >--tolerance regression "
                             "vs the committed baseline")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression for --check "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--tournament", action="store_true",
                        help="also race the committed tournament "
                             f"leaderboard's top {TOURNAMENT_TOP_N} on "
                             "the fleet cell (fast engine) and record "
                             "per-algorithm latency")
    parser.add_argument("--tournament-duration", type=float,
                        default=120.0, metavar="SECONDS",
                        help="measured seconds per tournament run "
                             "(default 120)")
    args = parser.parse_args(argv)

    spec = FleetSpec() if args.clusters <= 0 else \
        FleetSpec(clusters=args.clusters,
                  duration_s=max(args.duration, 60.0))
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    report = {
        "schema": 1,
        "host": {"cpus": os.cpu_count(),
                 "python": sys.version.split()[0]},
    }
    report.update(measure_cell(spec, args.seed, args.duration,
                               args.repeat, jobs))
    if args.tournament:
        report["tournament"] = run_tournament(
            spec, args.seed, args.tournament_duration)

    cell = report["cell"]
    fast = report["fast"]
    shard1 = report["shard_jobs1"]
    sharding = report["sharding"]
    print(f"cell: {cell['scenario']} ({cell['clusters']} clusters, "
          f"{cell['endpoints']} endpoints, {cell['duration_s']:g}s sim)")
    print(f"  fast engine       {fast['wall_clock_s']:>9.3f}s  "
          f"{fast['events_per_sec']:>12,.0f} events/sec")
    print(f"  shard jobs=1      {shard1['wall_clock_s']:>9.3f}s  "
          f"{shard1['equivalent_events_per_sec']:>12,.0f} equiv events/sec")
    print(f"  vectorization     {report['vectorization_factor']:>9.2f}x")
    if sharding["speedup"] is not None:
        print(f"  shard jobs={sharding['jobs']:<7}{sharding['wall_clock_s']:>11.3f}s  "
              f"speedup {sharding['speedup']}x, combined "
              f"{sharding['combined_factor']}x")
    else:
        print(f"  sharding speedup       n/a  "
              f"({sharding['cpus']} cpu host)")
    if "tournament" in report:
        print(f"tournament on {report['tournament']['cell']} "
              f"({report['tournament']['duration_s']:g}s, fast engine):")
        for algorithm, row in report["tournament"]["rows"].items():
            print(f"  {algorithm:<14} p50 {row['p50_ms']:>8.2f} ms   "
                  f"p99 {row['p99_ms']:>8.2f} ms   "
                  f"({row['requests']} requests)")

    problems = []
    if args.check:
        problems = check_regression(report, BASELINE_PATH, args.tolerance)
        for problem in problems:
            print(f"CHECK: {problem}", file=sys.stderr)

    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {args.output}")
    return 1 if any("regressed" in p for p in problems) else 0


if __name__ == "__main__":
    sys.exit(main())
