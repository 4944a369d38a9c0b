"""One experiment per table/figure of the paper's evaluation (§5).

Every public function regenerates the data behind one figure and returns a
structure holding both the measured values and, where the paper reports
concrete numbers, the paper's values for side-by-side comparison. Each has
a matching module under ``benchmarks/``; EXPERIMENTS.md records the
paper-vs-measured comparison produced by these functions. The sweeps are
:class:`~repro.bench.study.Trial` declarations over the study layer.

Durations default to paper scale (10-minute scenario runs, three
repetitions); pass smaller values for quick runs — the scenario traces are
fixed 10-minute recordings regardless, so shorter runs measure a prefix.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial

from repro.analysis.stats import relative_decrease
from repro.bench.coordinator import ScenarioBenchConfig, run_hotel_benchmark
from repro.bench.results import ComparisonTable
from repro.bench.study import (
    Trial,
    convergence_after,
    count_replica_flaps,
    count_weight_flaps,
    fault_window,
    latency,
    reduce_grid,
    run_grid,
)
from repro.core.config import L3Config
from repro.core.rate_control import adjust_weight
from repro.core.weighting import WeightingConfig
from repro.errors import ConfigError
from repro.workloads.scenarios import TRACE_PERIOD_S, build_scenario

ALGORITHMS = ("round-robin", "c3", "l3")

# Paper-reported values (ms / percent), used for the EXPERIMENTS.md tables.
PAPER_FIG9_P99_MS = {"round-robin": 93.0, "c3": 88.3, "l3": 68.8}
PAPER_FIG10_P99_MS = {
    "scenario-1": {"round-robin": 459.4, "c3": 391.2, "l3": 359.6},
    "scenario-2": {"round-robin": 115.4, "c3": 82.4, "l3": 74.7},
    "scenario-3": {"round-robin": 513.3, "c3": 464.9, "l3": 415.0},
    "scenario-4": {"round-robin": 563.7, "c3": 538.0, "l3": 512.7},
    "scenario-5": {"round-robin": 116.4, "c3": 109.2, "l3": 105.7},
}
PAPER_FIG8_P99_MS = {"round-robin": 805.7, "l3-peak": 590.4, "l3": 577.1}
PAPER_FIG11_P99_MS = {
    "failure-1": {"round-robin": 447.5, "c3": 364.2, "l3": 364.9},
    "failure-2": {"round-robin": 117.2, "c3": 84.6, "l3": 76.2},
}
PAPER_FIG12_SUCCESS_PCT = {
    "failure-1": {"round-robin": 91.4, "c3": 91.1, "l3": 92.4},
    "failure-2": {"round-robin": 98.6, "c3": 98.5, "l3": 98.6},
}


@dataclass
class SeriesExperiment:
    """A figure that is a set of named time series (Figs. 1, 2, 4, 6)."""

    figure: str
    title: str
    series: dict = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"{self.figure}: {self.title}"]
        for name, points in self.series.items():
            head = ", ".join(f"({t:.0f}s, {v:.1f})" for t, v in points[:4])
            lines.append(f"  {name}: {len(points)} points [{head} ...]")
        return "\n".join(lines)


@dataclass
class BarExperiment:
    """A figure that is a bar comparison, with paper values attached."""

    figure: str
    title: str
    table: ComparisonTable
    paper: dict = field(default_factory=dict)

    def render(self) -> str:
        out = [self.table.render()]
        if self.paper:
            out.append(f"paper reports: {self.paper}")
        return "\n".join(out)


def _means(trials, repetitions: int, seed0: int, jobs: int | None) -> dict:
    """``{label: mean row}`` over seeds ``seed0 .. seed0+repetitions-1``."""
    return reduce_grid(run_grid(
        trials, seeds=range(seed0, seed0 + repetitions), jobs=jobs))


def _mean_table(title: str, means: dict, columns=("p99_ms",),
                baseline: str = "round-robin") -> ComparisonTable:
    """One row per mean row; ``success_pct`` is the success rate in %."""
    table = ComparisonTable(title, baseline=baseline)
    for label, row in means.items():
        table.add(label, **{
            column: (row["success_rate"] * 100.0
                     if column == "success_pct" else row[column])
            for column in columns})
    return table


# --------------------------------------------------------------------- #
# Fig. 1 and Fig. 2 — scenario-1/2 trace characteristics
# --------------------------------------------------------------------- #

def fig1_2_trace_characteristics(scenarios=("scenario-1", "scenario-2"),
                                 step_s: float = 10.0) -> SeriesExperiment:
    """Figs. 1 & 2: per-cluster P50/P99 latency and RPS of the traces.

    These figures show the *input traces* themselves (TIER Mobility
    captures); our equivalent renders the synthetic scenarios' latency and
    RPS series on the paper's 10-minute axis.
    """
    experiment = SeriesExperiment(
        "Fig. 1 + Fig. 2",
        "scenario trace characteristics (per-cluster P50/P99 ms, RPS)")
    times = [i * step_s for i in range(int(TRACE_PERIOD_S / step_s) + 1)]
    for name in scenarios:
        scenario = build_scenario(name)
        for cluster, profile in sorted(scenario.cluster_profiles.items()):
            experiment.series[f"{name}/{cluster}/p50_ms"] = [
                (t, profile.median_latency_s.value_at(t) * 1000.0)
                for t in times
            ]
            experiment.series[f"{name}/{cluster}/p99_ms"] = [
                (t, profile.p99_latency_s.value_at(t) * 1000.0)
                for t in times
            ]
        experiment.series[f"{name}/rps"] = [
            (t, scenario.rps.value_at(t)) for t in times
        ]
    return experiment


# --------------------------------------------------------------------- #
# Fig. 4 — rate-control adjustment curves
# --------------------------------------------------------------------- #

def fig4_rate_control_curves(points: int = 81) -> SeriesExperiment:
    """Fig. 4: output weight vs relative change for Algorithm 2.

    (a) ``w_b = 2000 > w_mu = 1000``; (b) ``w_b = 500 < w_mu = 1000``;
    swept over relative change c in [-1, 3].
    """
    experiment = SeriesExperiment(
        "Fig. 4", "rate-control weight adjustment (Algorithm 2)")
    changes = [-1.0 + 4.0 * i / (points - 1) for i in range(points)]
    for label, weight in (("a:wb=2000", 2000.0), ("b:wb=500", 500.0)):
        experiment.series[label] = [
            (c, adjust_weight(weight, 1000.0, c)) for c in changes
        ]
    return experiment


# --------------------------------------------------------------------- #
# Fig. 6 — scenario-3/4/5 trace characteristics
# --------------------------------------------------------------------- #

def fig6_trace_characteristics(step_s: float = 10.0) -> SeriesExperiment:
    """Fig. 6: per-cluster P99 latency of scenario-3/4/5."""
    experiment = SeriesExperiment(
        "Fig. 6", "scenario-3/4/5 P99 latency traces (ms)")
    times = [i * step_s for i in range(int(TRACE_PERIOD_S / step_s) + 1)]
    for name in ("scenario-3", "scenario-4", "scenario-5"):
        scenario = build_scenario(name)
        for cluster, profile in sorted(scenario.cluster_profiles.items()):
            experiment.series[f"{name}/{cluster}/p99_ms"] = [
                (t, profile.p99_latency_s.value_at(t) * 1000.0)
                for t in times
            ]
    return experiment


# --------------------------------------------------------------------- #
# Fig. 7 — penalty factor sweep on failure-2
# --------------------------------------------------------------------- #

def fig7_penalty_factor_sweep(
        penalties_s=(0.1, 0.3, 0.6, 1.0, 1.5),
        duration_s: float = TRACE_PERIOD_S, repetitions: int = 2,
        seed0: int = 1, jobs: int | None = 1) -> BarExperiment:
    """Fig. 7b: success rate and percentile-latency decrease vs penalty P.

    Runs failure-2 with round-robin as the baseline and L3 at each penalty
    value; reports the success rate and the relative P50/P90/P99 decrease
    of L3 over round-robin (the paper repeats each run twice).
    """
    run = {"scenario": "failure-2", "duration_s": duration_s}
    trials = [Trial("round-robin", {**run, "algorithm": "round-robin"})]
    trials += [
        Trial(f"l3 P={penalty:g}s", {
            **run, "algorithm": "l3",
            "l3_config": L3Config(weighting=WeightingConfig(
                penalty_s=penalty))})
        for penalty in penalties_s
    ]
    means = _means(trials, repetitions, seed0, jobs)
    table = _mean_table("Fig. 7b: penalty factor sweep on failure-2", means,
                        ("p99_ms", "success_pct"))
    baseline = means["round-robin"]
    for label, row in means.items():
        if label != "round-robin":
            table.rows[label].update({
                f"{q}_dec_pct": relative_decrease(
                    baseline[f"{q}_ms"], row[f"{q}_ms"]) * 100.0
                for q in ("p50", "p90", "p99")})
    return BarExperiment("Fig. 7b", "penalty factor sweep", table)


# --------------------------------------------------------------------- #
# Fig. 8 — EWMA vs PeakEWMA on scenario-4
# --------------------------------------------------------------------- #

def fig8_ewma_vs_peakewma(duration_s: float = TRACE_PERIOD_S,
                          repetitions: int = 3, seed0: int = 1,
                          jobs: int | None = 1) -> BarExperiment:
    """Fig. 8: P99 of round-robin vs L3-PeakEWMA vs L3-EWMA on scenario-4."""
    trials = [Trial(algorithm, {"algorithm": algorithm,
                                "scenario": "scenario-4",
                                "duration_s": duration_s})
              for algorithm in ("round-robin", "l3-peak", "l3")]
    table = _mean_table("Fig. 8: EWMA vs PeakEWMA on scenario-4",
                        _means(trials, repetitions, seed0, jobs))
    return BarExperiment(
        "Fig. 8", "EWMA vs PeakEWMA", table, paper=PAPER_FIG8_P99_MS)


# --------------------------------------------------------------------- #
# Fig. 9 — DeathStarBench hotel reservation
# --------------------------------------------------------------------- #

def fig9_hotel_reservation(rps: float = 200.0,
                           duration_s: float = 1200.0,
                           repetitions: int = 3, seed0: int = 1,
                           jobs: int | None = 1) -> BarExperiment:
    """Fig. 9: hotel-reservation P99 under RR / C3 / L3 at 200 RPS."""
    trials = [Trial(algorithm, {"algorithm": algorithm, "rps": rps,
                                "duration_s": duration_s},
                    run=run_hotel_benchmark)
              for algorithm in ALGORITHMS]
    table = _mean_table("Fig. 9: hotel-reservation P99 at 200 RPS",
                        _means(trials, repetitions, seed0, jobs),
                        ("p50_ms", "p99_ms"))
    return BarExperiment(
        "Fig. 9", "hotel reservation", table, paper=PAPER_FIG9_P99_MS)


# --------------------------------------------------------------------- #
# Figs. 10-12 — the five TIER scenarios, the failure scenarios
# --------------------------------------------------------------------- #

def _scenario_bars(names, figure: str, title: str, columns, paper,
                   duration_s: float, repetitions: int, seed0: int,
                   jobs: int | None) -> dict:
    """scenario → :class:`BarExperiment` of RR / C3 / L3.

    The full (scenario × algorithm × seed) grid is one flat cell sweep,
    so ``jobs`` parallelizes across scenarios as well as algorithms.
    """
    trials = [Trial(f"{name}/{algorithm}",
                    {"algorithm": algorithm, "scenario": name,
                     "duration_s": duration_s})
              for name in names for algorithm in ALGORITHMS]
    means = _means(trials, repetitions, seed0, jobs)
    return {
        name: BarExperiment(
            f"{figure} ({name})", name, _mean_table(
                f"{figure} ({name}): {title}",
                {algorithm: means[f"{name}/{algorithm}"]
                 for algorithm in ALGORITHMS}, columns),
            paper=paper(name))
        for name in names
    }


def fig10_scenario_comparison(scenarios=None,
                              duration_s: float = TRACE_PERIOD_S,
                              repetitions: int = 3, seed0: int = 1,
                              jobs: int | None = 1) -> dict:
    """Fig. 10: P99 of RR / C3 / L3 on scenario-1..5.

    Returns a dict scenario → :class:`BarExperiment`.
    """
    scenarios = scenarios or [f"scenario-{i}" for i in range(1, 6)]
    return _scenario_bars(
        scenarios, "Fig. 10", "P99 comparison", ("p99_ms",),
        lambda name: PAPER_FIG10_P99_MS.get(name, {}),
        duration_s, repetitions, seed0, jobs)


def fig11_12_failure_scenarios(duration_s: float = TRACE_PERIOD_S,
                               repetitions: int = 3, seed0: int = 1,
                               jobs: int | None = 1) -> dict:
    """Figs. 11 & 12: P99 and success rate on failure-1/failure-2.

    Returns a dict scenario → :class:`BarExperiment` whose rows carry both
    the P99 (Fig. 11) and the success rate (Fig. 12).
    """
    return _scenario_bars(
        ("failure-1", "failure-2"), "Fig. 11/12", "P99 and success rate",
        ("p99_ms", "success_pct"),
        lambda name: {"p99_ms": PAPER_FIG11_P99_MS[name],
                      "success_pct": PAPER_FIG12_SUCCESS_PCT[name]},
        duration_s, repetitions, seed0, jobs)


# --------------------------------------------------------------------- #
# Ablations (beyond the paper; design-choice validation)
# --------------------------------------------------------------------- #

def _l3_means(scenario: str, duration_s: float, variants: dict,
              repetitions: int, seed0: int, jobs: int | None) -> dict:
    """Mean rows of one L3 trial per ``{label: extra run kwargs}``."""
    trials = [Trial(label, {"algorithm": "l3", "scenario": scenario,
                            "duration_s": duration_s, **extra})
              for label, extra in variants.items()]
    return _means(trials, repetitions, seed0, jobs)


def ablation_rate_control(scenario: str = "scenario-2",
                          duration_s: float = TRACE_PERIOD_S,
                          repetitions: int = 2, seed0: int = 1,
                          jobs: int | None = 1) -> BarExperiment:
    """Rate controller on vs off (Algorithm 2's contribution)."""
    means = _l3_means(scenario, duration_s, {
        label: {"l3_config": L3Config(rate_control_enabled=enabled)}
        for label, enabled in (("l3", True), ("l3-no-rate-control", False))
    }, repetitions, seed0, jobs)
    table = _mean_table(f"Ablation: rate control on/off ({scenario})",
                        means, baseline="l3")
    return BarExperiment("Ablation", "rate control", table)


def ablation_inflight_exponent(scenario: str = "scenario-1",
                               exponents=(0.0, 1.0, 2.0, 3.0),
                               duration_s: float = TRACE_PERIOD_S,
                               repetitions: int = 2, seed0: int = 1,
                               jobs: int | None = 1) -> BarExperiment:
    """Eq. 4's squared (R_i + 1) term vs other exponents."""
    means = _l3_means(scenario, duration_s, {
        f"k={exponent:g}": {"l3_config": L3Config(
            weighting=WeightingConfig(inflight_exponent=exponent))}
        for exponent in exponents
    }, repetitions, seed0, jobs)
    table = _mean_table(f"Ablation: (R_i+1)^k exponent ({scenario})", means)
    return BarExperiment("Ablation", "in-flight exponent", table)


def hotel_rps_saturation_sweep(rps_values=(200.0, 400.0, 600.0, 800.0,
                                           1000.0, 1200.0),
                               duration_s: float = 120.0,
                               algorithm: str = "l3",
                               seed: int = 1) -> BarExperiment:
    """§5.3.1 prose: the hotel app saturates around 1000 RPS.

    "We ran the benchmark with different RPS with little to no changes in
    the results. At around 1000 RPS we approached the saturation points of
    some of the microservices ... which led to an increase in latency."
    This sweep reproduces that knee: P99 stays flat across the low-RPS
    range and rises steeply as offered load approaches the deployment's
    capacity.
    """
    trials = [Trial(f"{rps:g} RPS", {"algorithm": algorithm, "rps": rps,
                                     "duration_s": duration_s},
                    run=run_hotel_benchmark)
              for rps in rps_values]
    table = _mean_table(
        f"Saturation sweep: hotel-reservation under {algorithm}",
        _means(trials, 1, seed, 1), ("p50_ms", "p99_ms"))
    return BarExperiment(
        "§5.3.1", "hotel saturation sweep", table)


def ablation_retries(scenario: str = "failure-1",
                     duration_s: float = TRACE_PERIOD_S,
                     repetitions: int = 2, seed0: int = 1,
                     jobs: int | None = 1) -> BarExperiment:
    """Client retries vs the paper's no-retry benchmarks (§5.2.1).

    The paper's L_est formula assumes clients retry failed requests but
    its benchmarks do not retry "for simplicity"; it conjectures that with
    retries "the effect of P ... might not be as strong". This ablation
    runs the heavy-failure scenario with and without retries and shows
    (a) retries convert failures into latency, raising success rate, and
    (b) retried failures make Eq. 3's retry model *actual* rather than
    hypothetical.
    """
    means = _l3_means(scenario, duration_s, {
        label: {"env": ScenarioBenchConfig(max_retries=retries)}
        for label, retries in (("l3 no-retry", 0), ("l3 retry-2", 2))
    }, repetitions, seed0, jobs)
    table = _mean_table(f"Ablation: client retries ({scenario})", means,
                        ("p99_ms", "success_pct"), baseline="l3 no-retry")
    return BarExperiment("Ablation", "client retries", table)


def ablation_scrape_interval(scenario: str = "scenario-2",
                             intervals_s=(2.5, 5.0, 10.0),
                             duration_s: float = TRACE_PERIOD_S,
                             repetitions: int = 2, seed0: int = 1,
                             jobs: int | None = 1) -> BarExperiment:
    """§4's 5 s scrape-interval choice: data freshness vs overhead."""
    means = _l3_means(scenario, duration_s, {
        f"{interval:g}s": {
            "env": ScenarioBenchConfig(scrape_interval_s=interval),
            "l3_config": L3Config(reconcile_interval_s=interval,
                                  metrics_window_s=2.0 * interval)}
        for interval in intervals_s
    }, repetitions, seed0, jobs)
    table = _mean_table(f"Ablation: scrape interval ({scenario})", means)
    return BarExperiment("Ablation", "scrape interval", table)


# --------------------------------------------------------------------- #
# Elasticity — autoscaling vs the fixed-capacity corners
# --------------------------------------------------------------------- #

ELASTICITY_MODES = ("fixed-min", "autoscale", "fixed-max")


def elastic_scenario(name: str, duration_s: float, mode: str,
                     target: float | None = None):
    """An ``elastic-*`` scenario in one of the :data:`ELASTICITY_MODES`.

    ``fixed-min`` keeps the initial replica sets, autoscaling off;
    ``autoscale`` runs the scenario's policies (optionally at another
    utilization ``target``); ``fixed-max`` pins every cluster at the
    policy maximum, autoscaling off.
    """
    scenario = build_scenario(name, duration_s)
    if scenario.autoscale is None:
        raise ConfigError(
            f"scenario {name!r} carries no autoscale policies; the "
            "elasticity study needs one of the elastic-* pair")
    if mode not in ELASTICITY_MODES:
        raise ConfigError(f"mode must be one of {ELASTICITY_MODES}: {mode!r}")
    policies = {cluster: (policy if target is None
                          else dataclasses.replace(policy, target=target))
                for cluster, policy in scenario.autoscale.items()}
    if mode == "autoscale":
        return dataclasses.replace(scenario, autoscale=policies)
    topology = scenario.topology
    if mode == "fixed-max":
        topology = dataclasses.replace(topology, replicas={
            cluster: policy.max_replicas
            for cluster, policy in policies.items()})
    return dataclasses.replace(scenario, autoscale=None, topology=topology)


def _elasticity_score(result, mode: str, target: float | None,
                      fixed_replica_seconds: float | None,
                      heal_s: float | None) -> dict:
    """One elasticity run: latency, cost and control-loop interaction."""
    row = latency(result)
    del row["p90_ms"]
    row.update({
        "scenario": result.scenario, "mode": mode,
        "algorithm": result.algorithm, "seed": result.seed,
        "target": target,
        "replica_seconds": (result.total_replica_seconds
                            if fixed_replica_seconds is None
                            else fixed_replica_seconds),
        "scale_events": len(result.autoscale_events),
        "replica_flaps": count_replica_flaps(result.autoscale_events),
        "weight_flaps": count_weight_flaps(result.weight_samples),
        "final_replicas": result.final_replicas,
    })
    if heal_s is not None:
        row["convergence_after_heal_s"] = convergence_after(
            result.autoscale_events, result.weight_samples, heal_s)
    return row


def elasticity_trial(label: str, scenario: str, mode: str,
                     algorithm: str = "l3", duration_s: float = 360.0,
                     target: float | None = None) -> Trial:
    """One elasticity cell: ``scenario`` under ``algorithm`` in ``mode``.

    Fixed modes have no cost integral of their own, so their
    replica-seconds are the analytic ``replicas × run length`` (warm-up
    included, matching the autoscaled integral's span). A scenario with
    faults also reports how long after the heal both control loops took
    to go quiet.
    """
    built = elastic_scenario(scenario, duration_s, mode, target)
    warmup_s = ScenarioBenchConfig().warmup_s
    fixed = None
    if mode != "autoscale":
        fixed = (float(sum(built.topology.replicas.values()))
                 * (warmup_s + duration_s))
    heal_s = None
    if built.faults:
        heal_s = fault_window(built.faults, duration_s, warmup_s)[1]
    return Trial(label, {"scenario": built, "algorithm": algorithm,
                         "duration_s": duration_s},
                 score=partial(_elasticity_score, mode=mode, target=target,
                               fixed_replica_seconds=fixed, heal_s=heal_s))


def fig_elasticity(duration_s: float = 360.0, seed0: int = 1,
                   jobs: int | None = 1) -> BarExperiment:
    """Elasticity frontier: autoscaling vs the fixed-capacity corners.

    Runs the ``elastic-surge`` scenario under L3 in the three
    :data:`ELASTICITY_MODES`: the fixed-minimum fleet saturates through
    the surge, the fixed-maximum fleet pays for idle replicas through the
    shoulders, and the autoscaled fleet should sit between them on *both*
    axes — lower P99 than fixed-min, fewer replica-seconds than
    fixed-max. ``BENCH_autoscale.json`` pins this contract; the figure
    renders it.
    """
    trials = [elasticity_trial(mode, "elastic-surge", mode,
                               duration_s=duration_s)
              for mode in ELASTICITY_MODES]
    table = _mean_table(
        f"elasticity: elastic-surge under l3 ({duration_s:.0f}s)",
        _means(trials, 1, seed0, jobs),
        ("p50_ms", "p99_ms", "success_pct", "replica_seconds",
         "scale_events"), baseline="fixed-min")
    return BarExperiment(
        "Elasticity", "cost vs latency: autoscale between the fixed corners",
        table)
