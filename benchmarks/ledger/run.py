#!/usr/bin/env python3
"""The performance ledger: one command, seven workloads, every layer.

Runs fixed reference cells through the entry points users call
(``run_scenario_benchmark``, ``run_hotel_benchmark``,
``run_sharded_benchmark``, ``run_live``), checks that their outputs are
correct, and prints every metric by name with its unit. README.md in this
directory documents the metrics, the workloads, which clock each number
reads and which layer should move which number.

One workload, one run (the form ``BENCHMARK.json``'s command takes)::

    python3 benchmarks/ledger/run.py --workload steady-fast --seed 1 \\
        --seconds 10 --trace 0

prints a table and, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).

The whole ledger, each workload in its own fresh interpreter::

    python3 benchmarks/ledger/run.py [--seed N] [--trace] [--out F]

Compare two ledger files under the benchmark's own bounds::

    python3 benchmarks/ledger/run.py --compare A.json B.json

``--manifest`` prints ``BENCHMARK.json`` as the harness's own tables
define it (``test_ledger.py`` checks the committed file against it).

``--smoke`` shrinks simulated durations ~20x for the test suite; smoke
numbers are never comparable with committed ones.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import layers  # noqa: E402  (sibling module; needs no repro import)

DEFAULT_SECONDS = 10.0
SMOKE_SCALE = 1.0 / 20.0
MIN_TIMED_REPEATS = 3
MAX_TIMED_REPEATS = 12
SETUP_PROBES = 5

class Metric(NamedTuple):
    """One end-to-end metric as BENCHMARK.json commits it, plus how a
    run's value is picked from its repeats and which clock it reads."""

    name: str
    unit: str
    better: str
    bound: float      # share of the base median it may worsen by
    pick: str         # "best" | "worst" | "median" over the repeats
    clock: str


# Why "best": on the shared 2-vCPU host, interference only ever makes a
# repeat of a deterministic cell slower — the fastest repeat is the
# least-disturbed measurement (the rule ``timeit`` documents and
# ``bench_perf.py`` already follows). Medians of 4-7 repeats moved by up
# to 25 % between quiet and noisy minutes; every repeat is kept beside
# the value so the noise stays visible. Sim-clock values are identical in
# every repeat, so the rule only matters for host time and live latency.
# ``ok_ratio`` takes the worst repeat: a failure is never averaged away.
# --compare additionally holds sim-clock values of simulation workloads
# to exact equality when both sides ran the same seed.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, "median",
           "host wall: interpreter start -> first call into run_* (live: "
           "until all ports are bound); fresh interpreter starts"),
    Metric("req_per_s", "1/s", "higher", 0.25, "best",
           "measured-period requests / host wall of the run_* call"),
    Metric("cpu_ms_per_req", "ms", "lower", 0.25, "best",
           "host CPU (self + children) of the run_* call / measured "
           "requests"),
    Metric("p50_ms", "ms", "lower", 0.25, "best",
           "request latency median; sim clock (live-steady: wall clock "
           "from the intended send time)"),
    Metric("p99_ms", "ms", "lower", 0.25, "best",
           "request latency 99th percentile; same clock as p50_ms"),
    Metric("ok_ratio", "ratio", "higher", 0.01, "worst",
           "1 - fail_ratio: successful and recorded / generated requests; "
           "a repeat failing a correctness check counts as all failed"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "median",
           "ru_maxrss of the workload process (max with its children)"),
)
SIM_CLOCK_METRICS = ("p50_ms", "p99_ms", "ok_ratio")


def pick_value(metric: Metric, repeats: list[float]) -> float:
    """A run's value for ``metric`` from its per-repeat values."""
    if metric.pick == "median":
        return statistics.median(repeats)
    want_high = (metric.better == "higher") == (metric.pick == "best")
    return max(repeats) if want_high else min(repeats)


def cpu_seconds() -> float:
    """Host CPU consumed so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set (Linux reports ru_maxrss in KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def host_fingerprint() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = dirty = None
    if (REPO_ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(REPO_ROOT), *args], capture_output=True,
                text=True, check=False).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "commit": commit, "dirty": dirty}


# --------------------------------------------------------------------- #
# One repeat: run the cell, check what came back
# --------------------------------------------------------------------- #

def expected_arrivals(workload, cell):
    """(all, measured) arrivals the schedule implies; None on live runs,
    whose generator reports what it sent."""
    from workloads import implied_arrivals

    if workload.clock == "wall":
        return None
    return implied_arrivals(cell.rps, cell.warmup_s, cell.duration_s)


def inspect_repeat(cell, expected, result, harness) -> dict:
    """Counts, percentiles and failed checks of one finished repeat."""
    from repro.analysis.percentiles import Percentiles
    from repro.bench.digest import digest_result
    from workloads import LIVE_RPS

    records = result.records
    checks = []
    live = expected is None
    if live:
        generated_all = generated = harness.parts.loadgen.generated
        if not harness.clean_shutdown:
            checks.append("live: leaked tasks " + ",".join(harness.leaked_tasks))
        offered = LIVE_RPS * cell.duration_s
        if abs(len(records) - offered) > 0.01 * offered:
            checks.append(f"live: {len(records)} completed, "
                          f"{offered:.0f} offered")
    else:
        generated_all, generated = expected
        if len(records) != generated:
            checks.append(f"count: {len(records)} recorded, schedule "
                          f"implies {generated}")
    if not records:
        raise RuntimeError("the run recorded no request")
    if not all(r.end_s >= r.start_s >= 0.0 and r.attempts >= 1
               for r in records):
        checks.append("records: end_s >= start_s >= 0 and attempts >= 1")
    row = {
        "requests": len(records),
        "generated": generated,
        "generated_all": generated_all,
        "ok": sum(1 for r in records if r.success),
        "attempts": sum(r.attempts for r in records),
        "p50_ms": result.p50_ms,
        "p99_ms": result.p99_ms,
        "events": result.events_processed,
        "faults_applied": sum(
            1 for _, what in result.fault_log if what.startswith("apply ")),
        "digest": digest_result(result),
        "checks": checks,
    }
    if live:
        # The harness clock starts before the listeners bind and the
        # first arrival is due one gap after the generator starts.
        row["boot_s"] = max(
            min(r.intended_start_s for r in records) - 1.0 / LIVE_RPS, 0.0)
        lag = Percentiles(r.start_s - r.intended_start_s for r in records)
        row["sched_lag_p50_ms"] = 1000.0 * lag.percentile(0.50)
        row["sched_lag_p99_ms"] = 1000.0 * lag.percentile(0.99)
    return row


def timed_repeat(cell, expected, call, profiler=None) -> dict:
    """Run ``call`` once; return its inspection plus host wall and CPU."""
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result, harness = call()
    finally:
        if profiler is not None:
            profiler.disable()
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    row = inspect_repeat(cell, expected, result, harness)
    row["wall_s"] = wall
    row["cpu_s"] = cpu
    return row


def check_determinism(workload, rows: list[dict]) -> None:
    """Same seed, same cell: simulation repeats must agree exactly."""
    if workload.clock != "sim" or len(rows) < 2:
        return
    for key in ("digest", "p50_ms", "p99_ms"):
        if len({row[key] for row in rows}) > 1:
            for row in rows:
                row["checks"].append(f"determinism: {key} differs "
                                     "between repeats of one seed")


# --------------------------------------------------------------------- #
# setup_s: fresh interpreter -> ready to call run_*
# --------------------------------------------------------------------- #

def probe_setup(name: str, seed: int, smoke: bool, count: int) -> list[float]:
    """Start ``count`` fresh interpreters; seconds each took to be ready."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--setup-probe", "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(count):
        started = time.time()
        probe = subprocess.run(command, capture_output=True, text=True,
                               check=False)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.strip()) - started)
    return samples


# --------------------------------------------------------------------- #
# The untraced pass: end-to-end metrics
# --------------------------------------------------------------------- #

def measure(workload, seed: int, seconds: float, smoke: bool) -> dict:
    scale = SMOKE_SCALE if smoke else 1.0
    setups = probe_setup(workload.name, seed, smoke,
                         1 if smoke else SETUP_PROBES)
    cell = workload.prepare(seed, scale)
    expected = expected_arrivals(workload, cell)

    rows = []
    if workload.clock == "sim":
        # Untimed warm-up repeat: fills caches, finishes lazy imports,
        # and is the first witness of the determinism check.
        rows.append(timed_repeat(cell, expected, cell.call))
    floor = 1 if smoke else MIN_TIMED_REPEATS
    started = time.perf_counter()
    timed = []
    while len(timed) < floor or (
            time.perf_counter() - started < seconds
            and len(timed) < MAX_TIMED_REPEATS):
        timed.append(timed_repeat(cell, expected, cell.call))
    rows += timed
    check_determinism(workload, rows)

    per_repeat = {metric.name: [] for metric in END_TO_END}
    attempted = failed = 0
    for row in timed:
        generated = max(row["generated"], 1)
        attempted += generated
        missing = max(generated - row["requests"], 0)
        unsuccessful = row["requests"] - row["ok"]
        if row["checks"]:
            fail_ratio = 1.0
            failed += generated
        else:
            fail_ratio = min((unsuccessful + missing) / generated, 1.0)
            # Responses the fault schedule makes fail are the simulated
            # outcome under test, not failed operations of the program.
            failed += missing + (
                0 if workload.expects_failures else unsuccessful)
        per_repeat["ok_ratio"].append(1.0 - fail_ratio)
        per_repeat["req_per_s"].append(row["requests"] / row["wall_s"])
        per_repeat["cpu_ms_per_req"].append(
            1000.0 * row["cpu_s"] / row["requests"])
        per_repeat["p50_ms"].append(row["p50_ms"])
        per_repeat["p99_ms"].append(row["p99_ms"])
    boots = [row["boot_s"] for row in timed if "boot_s" in row]
    boot_s = statistics.median(boots) if boots else 0.0
    per_repeat["setup_s"] = [s + boot_s for s in setups]
    per_repeat["peak_rss_mb"] = [peak_rss_mb()]

    checks = sorted({c for row in rows for c in row["checks"]})
    metrics = {
        m.name: {"value": pick_value(m, per_repeat[m.name]), "unit": m.unit,
                 "pick": m.pick, "repeats": per_repeat[m.name]}
        for m in END_TO_END
    }
    return {
        "workload": workload.name, "seed": seed, "trace": 0,
        "seconds": seconds, "smoke": smoke, "clock": workload.clock,
        "correct": not checks, "checks_failed": checks,
        "attempted": attempted, "failed": failed,
        "timed_repeats": len(timed),
        "requests_per_repeat": timed[0]["requests"],
        "digest": timed[0]["digest"],
        "metrics": metrics,
    }


# --------------------------------------------------------------------- #
# The traced pass: per-layer metrics
# --------------------------------------------------------------------- #

def trace(workload, seed: int, smoke: bool) -> dict:
    import repro
    from workloads import LIVE_SERVICE_MEDIAN_S

    cell = workload.prepare(seed, SMOKE_SCALE if smoke else 1.0)
    expected = expected_arrivals(workload, cell)
    call = cell.call_traced or cell.call
    plain = timed_repeat(cell, expected, call)
    profiler = cProfile.Profile()
    traced = timed_repeat(cell, expected, call, profiler=profiler)
    check_determinism(workload, [plain, traced])
    folded = layers.fold(profiler.getstats(),
                         os.path.dirname(repro.__file__))

    values = layers.layer_values(folded)
    requests = plain["requests"]
    values["sim.events"] = plain["events"]
    values["sim.events_per_req"] = (
        plain["events"] / max(plain["generated_all"], 1))
    values["mesh.attempts_per_req"] = plain["attempts"] / requests
    values["mesh.useful_ratio"] = plain["ok"] / plain["attempts"]
    values["faults.applied"] = plain["faults_applied"]
    live = workload.clock == "wall"
    if live:
        values["live.sched_lag_p50_ms"] = plain["sched_lag_p50_ms"]
        values["live.sched_lag_p99_ms"] = plain["sched_lag_p99_ms"]
        values["live.overhead_p50_ms"] = (
            plain["p50_ms"] - 1000.0 * LIVE_SERVICE_MEDIAN_S)
        values["live.est_ceiling_rps"] = requests / max(plain["cpu_s"], 1e-9)
    else:
        for name, *_ in layers.LIVE_METRICS:
            values[name] = None
    # Host CPU, not wall: live-steady's wall is pinned by its open-loop
    # schedule; on the single-process simulation workloads the two agree.
    values["trace.overhead_ratio"] = traced["cpu_s"] / max(plain["cpu_s"], 1e-9)

    checks = sorted(set(plain["checks"]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in layers.per_layer_table()}
    generated = max(plain["generated"], 1)
    return {
        "workload": workload.name, "seed": seed, "trace": 1,
        "smoke": smoke, "clock": workload.clock,
        "correct": not checks, "checks_failed": checks,
        "attempted": generated,
        "failed": generated if checks else max(generated - plain["requests"], 0),
        "digest": plain["digest"],
        "traced_wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"],
        "busy_s": folded["busy_s"],
        "metrics": metrics,
    }


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #

def print_table(detail: dict) -> None:
    print(f"# {detail['workload']}  seed={detail['seed']}  "
          f"trace={detail['trace']}  clock(p50/p99)={detail['clock']}"
          f"{'  SMOKE' if detail['smoke'] else ''}")
    for name, metric in detail["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        repeats = metric.get("repeats")
        tail = ""
        if repeats and len(repeats) > 1:
            tail = "   [" + " ".join(f"{v:.6g}" for v in repeats) + "]"
        print(f"{name:<28} {shown:>14} {metric['unit']:<6}{tail}")
    print(f"digest {detail['digest']}")
    print(f"correct={detail['correct']} attempted={detail['attempted']} "
          f"failed={detail['failed']}")
    for check in detail["checks_failed"]:
        print(f"CHECK FAILED: {check}")


def contract_line(detail: dict) -> str:
    """The driver's result object. Per-layer values that do not apply to
    this workload (``None`` in the ledger) read 0: nothing was spent."""
    metrics = {
        name: {"value": 0 if m["value"] is None else m["value"],
               "unit": m["unit"]}
        for name, m in detail["metrics"].items()
    }
    return json.dumps({"correct": detail["correct"],
                       "attempted": detail["attempted"],
                       "failed": detail["failed"], "metrics": metrics})


def run_one(workload, args) -> int:
    if args.trace:
        detail = trace(workload, args.seed, args.smoke)
    else:
        detail = measure(workload, args.seed, args.seconds, args.smoke)
    detail["host"] = host_fingerprint()
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print_table(detail)
    print(contract_line(detail))
    return 0


def run_setup_probe(workload, args) -> int:
    """Child of :func:`probe_setup`: report when the inputs were ready."""
    workload.prepare(args.seed, SMOKE_SCALE if args.smoke else 1.0)
    print(repr(time.time()))
    return 0


def run_ledger(args) -> int:
    """Every workload, each in a fresh interpreter; one merged file."""
    from workloads import WORKLOADS

    ledger = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "host": host_fingerprint(),
        "end_to_end": {m.name: {"unit": m.unit, "better": m.better,
                                "bound": m.bound, "pick": m.pick,
                                "clock": m.clock,
                                "sim_clock": m.name in SIM_CLOCK_METRICS}
                       for m in END_TO_END},
        "workloads": {},
    }
    status = 0
    for workload in WORKLOADS:
        entry = {"why": workload.why, "loop": workload.loop,
                 "params": workload.params, "clock": workload.clock}
        for traced in ([0, 1] if args.trace else [0]):
            command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                       "--workload", workload.name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(traced)]
            part = None
            if args.out:
                part = pathlib.Path(f"{args.out}.{workload.name}.{traced}.part")
                command += ["--out", str(part)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                print(f"# {workload.name}: run failed "
                      f"(exit {child.returncode})")
                status = 1
                continue
            # The child's table, without its machine-readable last line.
            table, line = child.stdout.rstrip("\n").rsplit("\n", 1)
            print(table)
            if not json.loads(line)["correct"]:
                status = 1
            if part is None:
                continue
            detail = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
            key = "per_layer" if traced else "end_to_end"
            entry[key] = detail["metrics"]
            entry.setdefault("digest", detail["digest"])
            entry[f"correct_{key}"] = detail["correct"]
            if not traced:
                entry["attempted"] = detail["attempted"]
                entry["failed"] = detail["failed"]
                entry["timed_repeats"] = detail["timed_repeats"]
                entry["requests_per_repeat"] = detail["requests_per_repeat"]
        ledger["workloads"][workload.name] = entry
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return status


def manifest() -> dict:
    """BENCHMARK.json, derived from the tables the harness runs from."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": int(DEFAULT_SECONDS),
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in layers.per_layer_table()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this "
                        "process (default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed repeats of one run last")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from "
                        "one profiled repeat; 0: end-to-end metrics")
    parser.add_argument("--out", help="write the detailed JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 durations, one repeat (tests only)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two ledger files and exit")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as the harness's "
                        "tables define it and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files
        return compare_files(*args.compare)
    if args.manifest:
        print(json.dumps(manifest(), indent=1))
        return 0
    try:
        from workloads import BY_NAME
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "repro":
            raise
        sys.stderr.write(f"cannot import the program under test ({exc}); "
                         f"expected it under {_SRC}\n")
        return 2
    if args.workload is None:
        return run_ledger(args)
    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(BY_NAME)}")
    workload = BY_NAME[args.workload]
    if args.setup_probe:
        return run_setup_probe(workload, args)
    return run_one(workload, args)


if __name__ == "__main__":
    sys.exit(main())
