"""Fault-matrix sweep: fault type × balancer, reporting recovery time.

The paper's resilience claim (§5.2.3, Figs. 11-12) is that L3 reroutes
around a failing cluster within one reconcile interval and recovers when
it heals. This harness generalises the claim into a matrix: every fault
kind from :mod:`repro.faults` is injected into a *steady* scenario (flat
latency, flat load — so any disturbance in the measured series is the
fault, not the trace), once per balancing algorithm, and three numbers
come out per cell:

* ``faulted_share_pct`` — share of during-fault traffic still sent to
  the faulted cluster (lower = faster rerouting),
* ``fault_p99_ms`` — client-perceived P99 during the fault,
* ``recovery_intervals`` — reconcile intervals after the fault clears
  until a 5-second bucket's P99 is back within 10 % of the pre-fault
  P99 (the paper's "recovers within one interval" metric;
  :func:`repro.bench.study.recovery_intervals`).

Runs enable a client-side request deadline (`request_timeout_s`): the
matrix includes blackhole outages, which are unsurvivable without one.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.percentiles import exact_percentile
from repro.analysis.stats import success_rate
from repro.balancers.factory import controller_balancer_names
from repro.bench.coordinator import ScenarioBenchConfig
from repro.bench.results import format_table
from repro.bench.study import (
    RECOVERY_BUCKET_S,
    Trial,
    fault_window,
    faulted_share,
    recovery_intervals,
    reduce_grid,
    run_grid,
)
from repro.faults import (
    ClusterOutage,
    ControllerPause,
    LinkDegradation,
    ReplicaCrash,
    ScrapeOutage,
)
from repro.workloads.profiles import constant_backend_profile, constant_series
from repro.workloads.scenarios import CLUSTERS, Scenario

# The cluster every data-plane fault hits (never the client's cluster-1,
# so the client's local network path stays clean).
FAULT_CLUSTER = "cluster-2"

# Default matrix timing: fault hits one minute into the measured period,
# lasts 45 s (nine reconcile intervals — long enough for the controller
# to fully converge onto the remaining clusters), and the run continues
# well past the heal so recovery is observable.
DEFAULT_FAULT_START_S = 60.0
DEFAULT_FAULT_DURATION_S = 45.0

DEFAULT_ALGORITHMS = ("l3", "c3", "round-robin")

# Algorithms with a reconcile-loop controller; ControllerPause targets
# only these (pausing a controller that does not exist is meaningless).
# Derived from the balancer registry so new controller-based algorithms
# join the matrix without edits here.
CONTROLLER_ALGORITHMS = controller_balancer_names()


def steady_scenario(duration_s: float, rps: float = 150.0,
                    median_s: float = 0.040,
                    p99_s: float = 0.120) -> Scenario:
    """A flat scenario: identical constant profiles, constant load.

    Under it every balancer reaches a boring steady state, so the fault
    injection is the *only* disturbance in the measured series — which is
    what makes pre/during/post comparisons meaningful.
    """
    profiles = {
        cluster: constant_backend_profile(median_s, p99_s)
        for cluster in CLUSTERS
    }
    return Scenario(
        "steady", duration_s, profiles, constant_series(rps),
        "flat latency and load; disturbances come from injected faults")


def matrix_fault_cases(start_s: float = DEFAULT_FAULT_START_S,
                       duration_s: float = DEFAULT_FAULT_DURATION_S) -> dict:
    """The fault matrix rows: one representative schedule per fault kind."""
    return {
        "replica-crash": [
            ReplicaCrash("api", FAULT_CLUSTER, at_s=start_s,
                         duration_s=duration_s)],
        "cluster-outage": [
            ClusterOutage(FAULT_CLUSTER, at_s=start_s,
                          duration_s=duration_s)],
        "cluster-blackhole": [
            ClusterOutage(FAULT_CLUSTER, at_s=start_s,
                          duration_s=duration_s, mode="blackhole")],
        "link-degradation": [
            LinkDegradation("cluster-1", FAULT_CLUSTER, at_s=start_s,
                            duration_s=duration_s, multiplier=20.0,
                            extra_delay_s=0.200)],
        "scrape-outage": [
            ScrapeOutage(at_s=start_s, duration_s=duration_s)],
        "controller-pause": [
            ControllerPause(at_s=start_s, duration_s=duration_s)],
    }


def _p99_ms(records) -> float:
    if not records:
        return float("nan")
    return exact_percentile([r.latency_s for r in records], 0.99) * 1000.0


def _fault_scores(result, window: tuple[float, float]) -> dict:
    """One (fault, algorithm) run's matrix row.

    ``faulted_share_pct`` averages over the *whole* fault window
    (including the controller's reaction time); ``shed_share_pct``
    averages from 3 reconcile intervals into the fault to its end — the
    "has the balancer rerouted" number the acceptance criterion is about.
    """
    start, end = window
    records = result.records
    pre = [r for r in records if r.intended_start_s < start]
    during = [r for r in records if start <= r.intended_start_s < end]
    reacted = min(start + 3 * RECOVERY_BUCKET_S, end)
    recovery = recovery_intervals(records, start, end)
    return {
        "pre_p99_ms": _p99_ms(pre),
        "fault_p99_ms": _p99_ms(during),
        "fault_success_pct": (success_rate(during) * 100.0
                              if during else 100.0),
        "faulted_share_pct": faulted_share(
            records, start, end, FAULT_CLUSTER) * 100.0,
        "shed_share_pct": faulted_share(
            records, reacted, end, FAULT_CLUSTER) * 100.0,
        "recovery_intervals": (float(recovery) if recovery is not None
                               else None),
    }


def run_fault_matrix(algorithms=DEFAULT_ALGORITHMS,
                     duration_s: float = 180.0, seed: int = 1,
                     fault_start_s: float = DEFAULT_FAULT_START_S,
                     fault_duration_s: float = DEFAULT_FAULT_DURATION_S,
                     request_timeout_s: float = 1.0,
                     jobs: int | None = 1) -> dict[str, dict[str, dict]]:
    """Sweep every fault kind × every algorithm on the steady scenario.

    Returns ``{fault_name: {algorithm: row}}``, each row the metrics
    :func:`_fault_scores` names. All runs share one deterministic seed,
    so cells differ only in their (fault, algorithm) pair. ``jobs``
    shards the independent cells across worker processes (1 = serial,
    None = all CPUs); the matrix is identical for every value. A fault
    window that starts at 0 or outlasts ``duration_s`` is a
    :class:`~repro.errors.ConfigError` before any cell runs.
    """
    env = ScenarioBenchConfig(request_timeout_s=request_timeout_s)
    scenario = steady_scenario(duration_s)
    trials = []
    for fault_name, faults in matrix_fault_cases(
            fault_start_s, fault_duration_s).items():
        score = partial(_fault_scores, window=fault_window(
            faults, duration_s, env.warmup_s))
        for algorithm in algorithms:
            if (fault_name == "controller-pause"
                    and algorithm not in CONTROLLER_ALGORITHMS):
                continue
            trials.append(Trial(
                f"{fault_name}/{algorithm}", score=score,
                kwargs={"scenario": scenario, "algorithm": algorithm,
                        "duration_s": duration_s, "env": env,
                        "faults": faults}))
    rows = reduce_grid(run_grid(trials, seeds=(seed,), jobs=jobs))
    matrix: dict[str, dict[str, dict]] = {}
    for label, row in rows.items():
        fault_name, algorithm = label.split("/", 1)
        matrix.setdefault(fault_name, {})[algorithm] = row
    return matrix


def render_fault_matrix(matrix: dict) -> str:
    """Render the matrix as one table per fault kind."""
    sections = []
    for fault_name, row in matrix.items():
        sections.append(format_table(
            f"fault matrix — {fault_name}", row, baseline=None))
    return "\n\n".join(sections)
