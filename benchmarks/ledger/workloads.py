"""The ledger's seven workloads: fixed cells behind the public entry points.

Each workload is a :class:`Workload`: a one-line reason (copied into
``BENCHMARK.json``), a description of its load, and a ``prepare(seed,
scale)`` function that builds the inputs and returns a :class:`Cell` — a
zero-argument call into one of ``run_scenario_benchmark``,
``run_hotel_benchmark``, ``run_sharded_benchmark`` or ``run_live`` plus
what the harness needs to check the outcome. ``prepare`` is the
workload's set-up (scenario/fleet generation, fault-spec parsing); the
timed region is only ``cell.call()``.

Sizes are picked for the driver's budget on a 2-core shared host (see
README.md, "Sizing"): every simulation repeat is 1–2.5 s of host time,
the live repeat is 3 s of wall clock. ``scale`` shrinks simulated
durations for ``--smoke``; the committed numbers always use ``scale=1``.

``seed`` drives every random stream of the run (arrivals, picks, WAN
jitter, service times). The fleet *topology* is the committed reference
cell (``build_fleet_scenario(..., seed=1)``, the cell ``BENCH_fleet.json``
records): it is part of the workload's definition the way scenario-1's
trace is, so a different ``--seed`` re-rolls the traffic, not the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.coordinator import (
    ScenarioBenchConfig,
    run_hotel_benchmark,
    run_scenario_benchmark,
)
from repro.bench.fault_matrix import steady_scenario
from repro.bench.parallel import default_jobs
from repro.faults.spec import parse_fault_spec
from repro.live import LiveConfig, run_live
from repro.mesh.ejection import OutlierEjectionConfig
from repro.sim.shard import run_sharded_benchmark
from repro.workloads.fleet import FleetSpec, build_fleet_scenario
from repro.workloads.profiles import constant_series
from repro.workloads.scenarios import build_scenario

# The reference fleet topology (see the module docstring).
FLEET_TOPOLOGY_SEED = 1

# live-steady: the configured service time the harness overhead is
# measured against, and the offered rate.
LIVE_RPS = 800.0
LIVE_SERVICE_MEDIAN_S = 0.001
LIVE_REPEAT_S = 3.0


def worker_count() -> int:
    """Workers for the one multi-process workload: nproc, at most 2."""
    return min(2, default_jobs())


@dataclass
class Cell:
    """One prepared workload: the timed call and what to expect of it.

    Attributes:
        call: zero-argument call into a public ``run_*`` entry point;
            returns ``(BenchmarkResult, LiveHarness | None)``.
        rps: offered-load series the arrival schedule follows.
        warmup_s / duration_s: the measured window is
            ``[warmup_s, warmup_s + duration_s)`` on the run's clock.
        call_traced: the call the traced pass profiles, when it differs
            (``fleet-shard`` runs ``jobs=1`` so the work is visible to
            an in-process profiler).
    """

    call: Callable[[], tuple]
    rps: object
    warmup_s: float
    duration_s: float
    call_traced: Callable[[], tuple] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    params: dict
    prepare: Callable[[int, float], Cell]
    clock: str = "sim"        # which clock p50_ms / p99_ms read
    needs_numpy: bool = False
    expects_failures: bool = False


def implied_arrivals(rps, warmup_s: float, duration_s: float,
                     ) -> tuple[int, int]:
    """(all, measured) request counts the uniform open-loop schedule implies.

    Replays the generators' recurrence — each gap is ``1 / rps(t)`` at
    the previous arrival's time, the gap that crosses the deadline is
    discarded — without running the program under test.
    """
    total = warmup_s + duration_s
    t = 0.0
    generated = measured = 0
    while True:
        t += 1.0 / max(rps.value_at(t), 1e-9)
        if t >= total:
            return generated, measured
        generated += 1
        if t >= warmup_s:
            measured += 1


def _scenario_cell(scenario, duration_s: float, seed: int, engine: str,
                   env: ScenarioBenchConfig | None = None,
                   faults: list | None = None) -> Cell:
    env = env or ScenarioBenchConfig()
    rps = (build_scenario(scenario) if isinstance(scenario, str)
           else scenario).rps
    return Cell(
        call=lambda: (run_scenario_benchmark(
            scenario, "l3", duration_s=duration_s, seed=seed,
            engine=engine, env=env, faults=faults), None),
        rps=rps, warmup_s=env.warmup_s, duration_s=duration_s)


def _steady_fast(seed: int, scale: float) -> Cell:
    return _scenario_cell("scenario-1", 240.0 * scale, seed, "fast")


# chaos-fast: one flap cycle every 40 s of the measured period.
_CHAOS_CYCLE_S = 40.0


def chaos_fault_spec(duration_s: float) -> str:
    """The flapping schedule, as the CLI's ``--faults`` grammar."""
    entries = []
    for i in range(int(duration_s // _CHAOS_CYCLE_S)):
        base = i * _CHAOS_CYCLE_S
        entries.append(
            f"cluster-outage@{base + 10:g}+15:cluster=cluster-2"
            ":mode=blackhole")
        entries.append(
            f"link-partition@{base + 20:g}+10:src=cluster-1:dst=cluster-3")
    return ";".join(entries)


def _chaos_fast(seed: int, scale: float) -> Cell:
    duration_s = max(320.0 * scale, _CHAOS_CYCLE_S)
    scenario = build_scenario("failure-2")
    faults = parse_fault_spec(
        chaos_fault_spec(duration_s), clusters=set(scenario.clusters()),
        services={"api"})
    env = ScenarioBenchConfig(
        request_timeout_s=1.0, max_retries=2, retry_backoff_s=0.05,
        outlier_ejection=OutlierEjectionConfig())
    return _scenario_cell("failure-2", duration_s, seed, "fast",
                          env=env, faults=faults)


def _hotel_process(seed: int, scale: float) -> Cell:
    duration_s = 25.0 * scale
    env = ScenarioBenchConfig(warmup_s=10.0)
    return Cell(
        call=lambda: (run_hotel_benchmark(
            "l3", rps=200.0, duration_s=duration_s, seed=seed, env=env), None),
        rps=constant_series(200.0), warmup_s=env.warmup_s,
        duration_s=duration_s)


def _fleet_vector(seed: int, scale: float) -> Cell:
    scenario = build_fleet_scenario(FleetSpec(), seed=FLEET_TOPOLOGY_SEED)
    env = ScenarioBenchConfig(warmup_s=10.0)
    return _scenario_cell(scenario, 15.0 * scale, seed, "vector", env=env)


def _fleet_shard(seed: int, scale: float) -> Cell:
    scenario = build_fleet_scenario(FleetSpec(), seed=FLEET_TOPOLOGY_SEED)
    duration_s = 90.0 * scale
    env = ScenarioBenchConfig()

    def run(jobs: int):
        return run_sharded_benchmark(
            scenario, "l3", duration_s=duration_s, seed=seed, jobs=jobs), None

    return Cell(
        call=lambda: run(worker_count()), call_traced=lambda: run(1),
        rps=scenario.rps, warmup_s=env.warmup_s, duration_s=duration_s)


def _control_idle(seed: int, scale: float) -> Cell:
    scenario = build_fleet_scenario(
        FleetSpec(total_rps=3.0), seed=FLEET_TOPOLOGY_SEED)
    return _scenario_cell(scenario, 3000.0 * scale, seed, "fast")


def _live_steady(seed: int, scale: float) -> Cell:
    duration_s = max(LIVE_REPEAT_S * scale, 1.0)
    scenario = steady_scenario(
        duration_s, rps=LIVE_RPS, median_s=LIVE_SERVICE_MEDIAN_S,
        p99_s=2 * LIVE_SERVICE_MEDIAN_S)
    config = LiveConfig(algorithm="l3", rps=LIVE_RPS,
                        duration_s=duration_s, drain_s=2.0, seed=seed)
    return Cell(call=lambda: run_live(scenario, config=config),
                rps=constant_series(LIVE_RPS), warmup_s=0.0,
                duration_s=duration_s)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "steady-fast",
        "paper's 3-cluster trace on the reference engine: event kernel, "
        "dispatch state machine, WAN/service sampling and telemetry "
        "writes do ~97% of the work, the control plane <1%",
        "open loop, scenario-1 trace (~300 RPS), sim clock",
        {"entry": "run_scenario_benchmark", "scenario": "scenario-1",
         "algorithm": "l3", "engine": "fast", "duration_s": 240.0},
        _steady_fast),
    Workload(
        "chaos-fast",
        "flapping blackhole + link partition with deadlines, retries and "
        "ejection: the share of traffic that leaves the dispatch fast "
        "path; a happy-path-only shortcut reads no change here",
        "open loop, failure-2 trace (~100 RPS), sim clock",
        {"entry": "run_scenario_benchmark", "scenario": "failure-2",
         "algorithm": "l3", "engine": "fast", "duration_s": 320.0,
         "faults": chaos_fault_spec(320.0), "request_timeout_s": 1.0,
         "max_retries": 2, "retry_backoff_s": 0.05,
         "outlier_ejection": "OutlierEjectionConfig()"},
        _chaos_fast, expects_failures=True),
    Workload(
        "hotel-process",
        "call-graph app on generator processes, Resource queues and "
        "mesh/proxy.py (~72 kernel events per request): guards the "
        "kernel against callback-only tuning",
        "open loop, 200 RPS, sim clock",
        {"entry": "run_hotel_benchmark", "algorithm": "l3", "rps": 200.0,
         "duration_s": 25.0, "warmup_s": 10.0},
        _hotel_process),
    Workload(
        "fleet-vector",
        "120 clusters / ~1200 endpoints at 3000 RPS on the numpy-chunked "
        "engine: large-N weighted pick, WAN link matrix, RNG banks, "
        "chunk-folded telemetry",
        "open loop, ~3000 RPS, sim clock",
        {"entry": "run_scenario_benchmark", "scenario": "FleetSpec()",
         "topology_seed": FLEET_TOPOLOGY_SEED, "algorithm": "l3",
         "engine": "vector", "duration_s": 15.0, "warmup_s": 10.0},
        _fleet_vector, needs_numpy=True),
    Workload(
        "fleet-shard",
        "same fleet through the sharded bulk model, the only "
        "multi-process workload: separates speed-up from parallel "
        "overhead and dominates peak RSS; kernel changes read no change",
        "open loop, ~3000 RPS, sim clock, jobs=min(nproc, 2)",
        {"entry": "run_sharded_benchmark", "scenario": "FleetSpec()",
         "topology_seed": FLEET_TOPOLOGY_SEED, "algorithm": "l3",
         "duration_s": 90.0},
        _fleet_shard, needs_numpy=True),
    Workload(
        "control-idle",
        "fleet topology at 3 RPS for 3000 simulated seconds: scraping "
        "1200 endpoints, windowed rate()/quantile reads and 120-backend "
        "reconciles dominate, request work is small",
        "open loop, ~3 RPS, sim clock",
        {"entry": "run_scenario_benchmark",
         "scenario": "FleetSpec(total_rps=3.0)",
         "topology_seed": FLEET_TOPOLOGY_SEED, "algorithm": "l3",
         "engine": "fast", "duration_s": 3000.0},
        _control_idle),
    Workload(
        "live-steady",
        "real sockets on loopback at 800 RPS with a 1 ms service time: "
        "bare forwarding, so proxy, wire, exposition and scrape cost is "
        "not diluted by application work",
        "open loop (coordinated-omission corrected), 800 RPS, wall "
        "clock, one asyncio process; traffic crosses the loopback "
        "interface, not a real link",
        {"entry": "run_live", "scenario": "steady_scenario(rps=800, "
         "median_s=0.001, p99_s=0.002)", "algorithm": "l3", "rps": LIVE_RPS,
         "duration_s": LIVE_REPEAT_S, "drain_s": 2.0},
        _live_steady, clock="wall"),
)

BY_NAME = {w.name: w for w in WORKLOADS}
