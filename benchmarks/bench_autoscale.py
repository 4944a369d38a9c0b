"""Elasticity benchmark: the cost-vs-P99 frontier + control-loop study.

Two committed measurements (``BENCH_autoscale.json`` at the repo root):

1. **Frontier** — the ``elastic-surge`` scenario under L3 in every
   capacity mode: ``fixed-min`` (the initial replica sets, never
   scaled), ``autoscale`` across a sweep of utilization targets, and
   ``fixed-max`` (every cluster pinned at the policy maximum). Each row
   reports tail latency *and* replica-seconds cost, tracing the curve an
   operator moves along by picking a setpoint.

   The **elasticity contract** — checked by ``--check`` and by CI — is
   that the scenario's configured target beats ``fixed-min`` on P99
   while costing fewer replica-seconds than ``fixed-max``: elasticity
   buys most of the latency of peak provisioning at a fraction of the
   cost.

2. **Interaction** — the ``elastic-outage`` scenario (a mid-run cluster
   outage with autoscaling on) under L3 vs round-robin: do the weight
   loop and the replica loop, reading the same scraped telemetry,
   amplify each other into oscillation? Reported as replica flaps,
   weight flaps, and how long after the outage heals both loops take to
   go quiet (:mod:`repro.bench.study` defines the estimators).

Run it::

    python benchmarks/bench_autoscale.py            # measure + write
    python benchmarks/bench_autoscale.py --check    # also verify the
                                                    # elasticity contract
    python benchmarks/bench_autoscale.py --smoke    # CI-sized run
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.experiments import elasticity_trial
from repro.bench.study import reduce_grid, run_grid

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_autoscale.json"

REFERENCE_SEED = 1
DEFAULT_DURATION_S = 360.0
SMOKE_DURATION_S = 120.0
# Utilization setpoints the frontier sweeps (None = the scenario's own
# configured policy — the row the elasticity contract is checked on).
DEFAULT_TARGETS = (0.35, None, 0.65)

FRONTIER_SCENARIO = "elastic-surge"
INTERACTION_SCENARIO = "elastic-outage"
INTERACTION_ALGORITHMS = ("l3", "round-robin")


def measure(duration_s: float, seed: int, targets, jobs: int) -> dict:
    """Run every cell (one process pool) and assemble the report."""
    frontier = [("fixed-min", "fixed-min", None)]
    frontier += [("autoscale" if target is None else f"autoscale@{target:g}",
                  "autoscale", target) for target in targets]
    frontier.append(("fixed-max", "fixed-max", None))
    trials = [elasticity_trial(label, FRONTIER_SCENARIO, mode,
                               duration_s=duration_s, target=target)
              for label, mode, target in frontier]
    trials += [elasticity_trial(f"interaction/{algorithm}",
                                INTERACTION_SCENARIO, "autoscale",
                                algorithm=algorithm, duration_s=duration_s)
               for algorithm in INTERACTION_ALGORITHMS]
    rows = reduce_grid(run_grid(trials, seeds=(seed,), jobs=jobs))
    frontier_rows = [rows[label] for label, _mode, _target in frontier]
    return {
        "schema": 1,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "frontier": {
            "scenario": FRONTIER_SCENARIO,
            "algorithm": "l3",
            "duration_s": duration_s,
            "seed": seed,
            "rows": frontier_rows,
        },
        "interaction": {
            "scenario": INTERACTION_SCENARIO,
            "duration_s": duration_s,
            "seed": seed,
            "rows": {algorithm: rows[f"interaction/{algorithm}"]
                     for algorithm in INTERACTION_ALGORITHMS},
        },
        "contract": elasticity_contract(rows),
    }


def elasticity_contract(rows: dict) -> dict:
    """The headline claim, as recorded (and checked) booleans.

    The autoscale row is the scenario's own setpoint (``target`` None),
    the one an operator gets without tuning anything.
    """
    autoscale, fixed_min, fixed_max = (
        rows[label] for label in ("autoscale", "fixed-min", "fixed-max"))
    return {
        "autoscale_p99_ms": autoscale["p99_ms"],
        "fixed_min_p99_ms": fixed_min["p99_ms"],
        "autoscale_replica_seconds": autoscale["replica_seconds"],
        "fixed_max_replica_seconds": fixed_max["replica_seconds"],
        "p99_beats_fixed_min":
            autoscale["p99_ms"] < fixed_min["p99_ms"],
        "cost_below_fixed_max":
            autoscale["replica_seconds"] < fixed_max["replica_seconds"],
    }


def check_contract(report: dict) -> list[str]:
    """Violations of the elasticity contract in a measured report."""
    contract = report["contract"]
    problems = []
    if not contract["p99_beats_fixed_min"]:
        problems.append(
            f"autoscale P99 {contract['autoscale_p99_ms']:.1f} ms did not "
            f"beat fixed-min {contract['fixed_min_p99_ms']:.1f} ms")
    if not contract["cost_below_fixed_max"]:
        problems.append(
            f"autoscale cost {contract['autoscale_replica_seconds']:.0f} "
            f"replica-seconds not below fixed-max "
            f"{contract['fixed_max_replica_seconds']:.0f}")
    return problems


def _print_report(report: dict) -> None:
    frontier = report["frontier"]
    print(f"frontier: {frontier['scenario']} / {frontier['algorithm']} "
          f"({frontier['duration_s']:g}s sim, seed {frontier['seed']})")
    print(f"  {'mode':<16} {'p50 ms':>9} {'p99 ms':>9} {'ok %':>7} "
          f"{'replica-s':>10} {'events':>7}")
    for row in frontier["rows"]:
        mode = row["mode"] if row["target"] is None \
            else f"{row['mode']}@{row['target']:g}"
        print(f"  {mode:<16} {row['p50_ms']:>9.1f} {row['p99_ms']:>9.1f} "
              f"{row['success_rate'] * 100.0:>6.2f}% "
              f"{row['replica_seconds']:>10.0f} {row['scale_events']:>7}")
    interaction = report["interaction"]
    print(f"interaction: {interaction['scenario']} "
          f"({interaction['duration_s']:g}s sim)")
    for algorithm, row in interaction["rows"].items():
        settle = row.get("convergence_after_heal_s")
        settle_text = "n/a" if settle is None else f"{settle:.0f}s"
        print(f"  {algorithm:<14} p99 {row['p99_ms']:>8.1f} ms   "
              f"replica flaps {row['replica_flaps']:>2}   "
              f"weight flaps {row['weight_flaps']:>3}   "
              f"settled {settle_text} after heal")
    contract = report["contract"]
    print(f"contract: p99 {contract['autoscale_p99_ms']:.1f} ms vs "
          f"fixed-min {contract['fixed_min_p99_ms']:.1f} ms; cost "
          f"{contract['autoscale_replica_seconds']:.0f} vs fixed-max "
          f"{contract['fixed_max_replica_seconds']:.0f} replica-s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="elasticity frontier + control-loop interaction "
                    "(writes BENCH_autoscale.json)")
    parser.add_argument("--duration", type=float,
                        default=DEFAULT_DURATION_S, metavar="SECONDS",
                        help="measured simulated seconds per cell "
                             f"(default {DEFAULT_DURATION_S:g})")
    parser.add_argument("--targets", type=float, nargs="*", default=None,
                        metavar="U",
                        help="utilization setpoints for the autoscale "
                             "sweep (the scenario's own policy is always "
                             "included)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="cell worker processes (default 0 = one "
                             "per CPU, capped at the cell count)")
    parser.add_argument("--output", default=str(BASELINE_PATH),
                        metavar="PATH",
                        help="where to write the JSON report (default: "
                             "BENCH_autoscale.json at the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) if the measured run violates "
                             "the elasticity contract")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: shorter cells, the "
                             "configured setpoint only")
    args = parser.parse_args(argv)

    duration_s = args.duration
    targets = [None] + [t for t in (args.targets or DEFAULT_TARGETS)
                        if t is not None]
    if args.smoke:
        duration_s = min(duration_s, SMOKE_DURATION_S)
        targets = [None]
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    jobs = min(jobs, len(targets) + 4)  # frontier edges + interaction

    report = measure(duration_s, args.seed, targets, jobs)
    _print_report(report)

    problems = []
    if args.check:
        problems = check_contract(report)
        for problem in problems:
            print(f"CHECK: {problem}", file=sys.stderr)

    pathlib.Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {args.output}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
