"""Command-line interface: run scenarios, the hotel app, and paper figures.

Examples::

    python -m repro list
    python -m repro run --scenario scenario-1 --algorithm l3 --duration 120
    python -m repro live --algorithm l3 --duration 30 --report live.json
    python -m repro hotel --algorithm l3 --rps 200 --duration 120
    python -m repro figure fig9 --fast
"""

from __future__ import annotations

import argparse
import sys

from repro.balancers.factory import BALANCER_NAMES
from repro.bench.coordinator import (
    run_hotel_benchmark,
    run_scenario_benchmark,
)
from repro.live.harness import LIVE_ALGORITHMS
from repro.tournament.grid import TOURNAMENT_SCENARIO_NAMES
from repro.tracing import TRACE_FORMATS
from repro.workloads.scenarios import SCENARIO_NAMES

FIGURES = ("fig1", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
           "fig11", "fig12", "elasticity")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'L3: Latency-aware Load Balancing in "
                    "Multi-Cluster Service Mesh' (Middleware '24)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list", help="list available scenarios, algorithms and figures")

    run = commands.add_parser(
        "run", help="run one scenario under one balancing algorithm")
    run.add_argument("--scenario", choices=SCENARIO_NAMES,
                     default="scenario-1")
    run.add_argument("--scenario-file", metavar="FILE", default=None,
                     help="run a scenario loaded from a JSON trace file "
                          "instead of a built-in one")
    run.add_argument("--algorithm", choices=BALANCER_NAMES, default="l3")
    run.add_argument("--trace", metavar="OUT", default=None,
                     help="record per-request distributed traces and "
                          "write them to OUT (also prints the "
                          "critical-path latency breakdown)")
    run.add_argument("--trace-sample", type=float, default=1.0,
                     metavar="RATE",
                     help="deterministic head-sampling rate for --trace "
                          "(0..1, default 1.0)")
    run.add_argument("--trace-format", choices=TRACE_FORMATS,
                     default="otlp",
                     help="--trace output format: OTLP-style JSON or "
                          "Chrome trace events (Perfetto-loadable)")
    run.add_argument("--duration", type=float, default=120.0,
                     help="measured seconds (default 120)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--faults", metavar="SPEC", default=None,
                     help="inject faults: 'kind@start[+duration]"
                          "[:key=value...]' entries joined by ';' "
                          "(e.g. 'cluster-outage@30+30:cluster=cluster-2"
                          ":mode=blackhole'); see 'repro list' for kinds")
    run.add_argument("--autoscale", metavar="SPEC", default=None,
                     help="autoscale replica sets: 'scope[:key=value...]' "
                          "entries joined by ';', scope a cluster name or "
                          "'*' (e.g. '*:target=0.5:min=2:max=6'); see "
                          "'repro list' for keys; overrides the "
                          "scenario's own policies")
    run.add_argument("--request-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-attempt client deadline (off by default, "
                          "as in the paper; required to survive "
                          "blackhole faults)")
    run.add_argument("--outlier-ejection", action="store_true",
                     help="enable the consecutive-failure circuit "
                          "breaker (off by default, as in the paper)")

    live = commands.add_parser(
        "live", help="run the live localhost testbed (real sockets, "
                     "wall-clock, same controller code)")
    live.add_argument("--scenario", choices=SCENARIO_NAMES,
                      default="scenario-1")
    live.add_argument("--scenario-file", metavar="FILE", default=None,
                      help="run a scenario loaded from a JSON trace file "
                           "instead of a built-in one")
    live.add_argument("--algorithm", choices=LIVE_ALGORITHMS, default="l3")
    live.add_argument("--duration", type=float, default=30.0,
                      help="wall-clock seconds of load (default 30)")
    live.add_argument("--port-base", type=int, default=18080,
                      help="first localhost port to bind (collisions walk "
                           "upward; default 18080)")
    live.add_argument("--seed", type=int, default=1)
    live.add_argument("--rps", type=float, default=100.0,
                      help="offered load (default 100; 0 uses the "
                           "scenario's own RPS series)")
    live.add_argument("--ha-replicas", type=int, default=1, metavar="N",
                      help="controller replicas competing over a lease "
                           "(default 1 = no HA)")
    live.add_argument("--lease-ttl", type=float, default=3.0,
                      metavar="SECONDS",
                      help="HA lease TTL: a dead leader is replaced "
                           "within this long (default 3)")
    live.add_argument("--faults", metavar="SPEC", default=None,
                      help="chaos schedule, same grammar as `run "
                           "--faults`; times are seconds into the run "
                           "(e.g. 'cluster-outage@10+10:cluster="
                           "cluster-2:mode=blackhole')")
    live.add_argument("--request-timeout", type=float, default=5.0,
                      metavar="SECONDS",
                      help="per-attempt client deadline; blackholed "
                           "targets need it to fail (default 5; "
                           "0 disables)")
    live.add_argument("--report", metavar="OUT", default=None,
                      help="write a JSON run report (latency summary, "
                           "weight trajectory, fault log, shutdown "
                           "state) to OUT")

    export = commands.add_parser(
        "export-trace", help="save a built-in scenario as a JSON trace")
    export.add_argument("scenario", choices=SCENARIO_NAMES)
    export.add_argument("path", help="output JSON file")

    hotel = commands.add_parser(
        "hotel", help="run the DeathStarBench hotel-reservation benchmark")
    hotel.add_argument("--algorithm", choices=BALANCER_NAMES, default="l3")
    hotel.add_argument("--rps", type=float, default=200.0)
    hotel.add_argument("--duration", type=float, default=120.0)
    hotel.add_argument("--seed", type=int, default=1)

    tournament = commands.add_parser(
        "tournament", help="race registered balancers across the "
                           "tournament scenario grid and print the "
                           "leaderboard")
    tournament.add_argument("--algorithms", nargs="+",
                            choices=BALANCER_NAMES, default=None,
                            metavar="ALG",
                            help="algorithms to race (default: every "
                                 "registered one)")
    tournament.add_argument("--scenarios", nargs="+",
                            choices=TOURNAMENT_SCENARIO_NAMES,
                            default=None, metavar="CELL",
                            help="grid cells to run (default: the full "
                                 "grid)")
    tournament.add_argument("--duration", type=float, default=120.0,
                            help="measured seconds per cell (default 120)")
    tournament.add_argument("--repetitions", type=int, default=1,
                            metavar="N",
                            help="seeds per cell; scores are averaged "
                                 "(default 1)")
    tournament.add_argument("--seed", type=int, default=1,
                            help="first seed (repetition r uses seed+r)")
    tournament.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes (default 1 = serial; "
                                 "0 = all CPUs; results are identical "
                                 "for every value)")
    tournament.add_argument("--output", metavar="OUT", default=None,
                            help="write the tournament document "
                                 "(grid + leaderboard) as JSON to OUT")
    tournament.add_argument("--check", action="store_true",
                            help="exit nonzero unless L3 beats "
                                 "round-robin on P99 in the "
                                 "degraded-backend cell")

    figure = commands.add_parser(
        "figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument("--fast", action="store_true",
                        help="short runs (2-minute trace prefixes)")
    figure.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the figure's "
                             "(scenario x algorithm x seed) sweep "
                             "(default 1 = serial; 0 = all CPUs; results "
                             "are identical for every value)")

    return parser


def _export_traces(tracer, path: str, fmt: str) -> None:
    from repro.analysis import critical_path, render_critical_path
    from repro.tracing import export_trace

    export_trace(tracer.recorder, path, fmt)
    spans = tracer.recorder.finished_spans()
    print(f"  wrote {len(spans)} spans "
          f"({len(tracer.recorder.traces())} traces, "
          f"{tracer.recorder.dropped_traces} dropped) to {path} [{fmt}]")
    breakdown = critical_path(tracer.recorder)
    if breakdown:
        print(render_critical_path(breakdown))


def _print_result(result) -> None:
    from repro.analysis.report import render_spectrum

    print(f"{result.scenario} / {result.algorithm} (seed {result.seed}, "
          f"{result.duration_s:.0f}s): {result.request_count} requests")
    print(render_spectrum(result.records, title="latency spectrum"))
    print(f"  success rate {result.success_rate * 100.0:.2f} %")
    if result.controller_weights:
        print(f"  final weights {result.controller_weights}")
    if getattr(result, "final_replicas", None):
        print(f"  autoscale: {len(result.autoscale_events)} scale events, "
              f"{result.total_replica_seconds:.0f} replica-seconds, "
              f"final replicas {result.final_replicas}")


def _write_live_report(result, harness, path: str) -> None:
    """One JSON document per live run — the CI smoke job's artifact."""
    import json

    latencies = result.latency_percentiles()
    report = {
        "scenario": result.scenario,
        "algorithm": result.algorithm,
        "seed": result.seed,
        "duration_s": result.duration_s,
        "requests": result.request_count,
        "success_rate": result.success_rate,
        "latency_ms": {
            key: value * 1000.0
            for key, value in latencies.summary().items()
        } if result.records else {},
        "final_weights": result.controller_weights,
        "weight_updates": len(harness.weight_history),
        "ports": harness.ports,
        "clean_shutdown": harness.clean_shutdown,
        "leaked_tasks": harness.leaked_tasks,
        "connections_opened": harness.connections_opened,
        "connection_reuse_ratio": harness.connection_reuse_ratio,
        "fault_log": [[when, description]
                      for when, description in harness.fault_log],
        "chaos_errors": harness.chaos_errors,
        "lease_transitions": [[when, name]
                              for when, name in harness.lease_transitions],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote report to {path}")


def _chart_bar_experiment(experiment) -> None:
    from repro.analysis.ascii_chart import render_bar_chart

    p99s = {
        label: row["p99_ms"]
        for label, row in experiment.table.rows.items()
        if "p99_ms" in row
    }
    if p99s:
        print()
        print(render_bar_chart(p99s, unit=" ms", title="P99 latency"))


def _chart_series(series: dict, pick, title: str) -> None:
    from repro.analysis.ascii_chart import render_line_chart

    chosen = {name: pts for name, pts in series.items() if pick(name)}
    if chosen:
        print()
        print(render_line_chart(chosen, title=title))


def _run_figure(name: str, fast: bool, jobs: int | None = 1) -> None:
    from repro.bench import experiments

    duration = 120.0 if fast else 600.0
    hotel_duration = 120.0 if fast else 300.0
    repetitions = 1 if fast else 3

    if name == "fig1":
        experiment = experiments.fig1_2_trace_characteristics()
        print(experiment.render())
        _chart_series(
            experiment.series,
            lambda n: n.startswith("scenario-1/") and n.endswith("p99_ms"),
            "scenario-1 per-cluster P99 (ms)")
    elif name == "fig4":
        experiment = experiments.fig4_rate_control_curves()
        print(experiment.render())
        _chart_series(experiment.series, lambda n: True,
                      "rate-control output weight vs relative change")
    elif name == "fig6":
        experiment = experiments.fig6_trace_characteristics()
        print(experiment.render())
        _chart_series(
            experiment.series,
            lambda n: n.startswith("scenario-4/"),
            "scenario-4 per-cluster P99 (ms)")
    elif name == "fig7":
        print(experiments.fig7_penalty_factor_sweep(
            duration_s=duration, repetitions=min(repetitions, 2),
            jobs=jobs).render())
    elif name == "fig8":
        experiment = experiments.fig8_ewma_vs_peakewma(
            duration_s=duration, repetitions=repetitions, jobs=jobs)
        print(experiment.render())
        _chart_bar_experiment(experiment)
    elif name == "fig9":
        experiment = experiments.fig9_hotel_reservation(
            duration_s=hotel_duration, repetitions=repetitions, jobs=jobs)
        print(experiment.render())
        _chart_bar_experiment(experiment)
    elif name == "fig10":
        for experiment in experiments.fig10_scenario_comparison(
                duration_s=duration, repetitions=repetitions,
                jobs=jobs).values():
            print(experiment.render())
            _chart_bar_experiment(experiment)
            print()
    elif name in ("fig11", "fig12"):
        for experiment in experiments.fig11_12_failure_scenarios(
                duration_s=duration, repetitions=repetitions,
                jobs=jobs).values():
            print(experiment.render())
            _chart_bar_experiment(experiment)
            print()
    elif name == "elasticity":
        experiment = experiments.fig_elasticity(
            duration_s=min(duration, 360.0), jobs=jobs)
        print(experiment.render())
        _chart_bar_experiment(experiment)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.faults import FAULT_KINDS

        from repro.autoscale import AUTOSCALE_SPEC_KEYS

        print("scenarios: ", ", ".join(SCENARIO_NAMES))
        print("algorithms:", ", ".join(BALANCER_NAMES))
        print("figures:   ", ", ".join(FIGURES))
        print("faults:    ", ", ".join(FAULT_KINDS))
        print("autoscale: ", ", ".join(AUTOSCALE_SPEC_KEYS))
        print("tournament:", ", ".join(TOURNAMENT_SCENARIO_NAMES))
        return 0

    if args.command == "run":
        scenario = args.scenario
        if args.scenario_file is not None:
            from repro.workloads.traceio import load_scenario

            scenario = load_scenario(args.scenario_file)
        faults = None
        env = None
        tracer = None
        autoscale = None
        if args.faults is not None:
            from repro.bench.coordinator import SCENARIO_SERVICE
            from repro.faults import parse_fault_spec
            from repro.workloads.scenarios import build_scenario

            topology = (build_scenario(scenario)
                        if isinstance(scenario, str) else scenario)
            faults = parse_fault_spec(
                args.faults, clusters=set(topology.clusters()),
                services={SCENARIO_SERVICE})
        if args.autoscale is not None:
            from repro.autoscale import parse_autoscale_spec
            from repro.workloads.scenarios import build_scenario

            built = (build_scenario(scenario)
                     if isinstance(scenario, str) else scenario)
            autoscale = parse_autoscale_spec(
                args.autoscale, built.clusters())
        if args.request_timeout is not None or args.outlier_ejection:
            from repro.bench.coordinator import ScenarioBenchConfig
            from repro.mesh.ejection import OutlierEjectionConfig

            env = ScenarioBenchConfig(
                request_timeout_s=args.request_timeout,
                outlier_ejection=(OutlierEjectionConfig()
                                  if args.outlier_ejection else None))
        if args.trace is not None:
            from repro.tracing import MeshTracer, TracingConfig

            tracer = MeshTracer(TracingConfig(sample_rate=args.trace_sample))
        result = run_scenario_benchmark(
            scenario, args.algorithm, duration_s=args.duration,
            seed=args.seed, env=env, faults=faults, tracer=tracer,
            autoscale=autoscale)
        _print_result(result)
        if tracer is not None:
            _export_traces(tracer, args.trace, args.trace_format)
        return 0

    if args.command == "live":
        from repro.live import LiveConfig, LiveHarness

        scenario = args.scenario
        if args.scenario_file is not None:
            from repro.workloads.traceio import load_scenario

            scenario = load_scenario(args.scenario_file)
        config = LiveConfig(
            algorithm=args.algorithm, duration_s=args.duration,
            port_base=args.port_base, seed=args.seed,
            rps=args.rps if args.rps > 0 else None,
            ha_replicas=args.ha_replicas, lease_ttl_s=args.lease_ttl,
            faults=args.faults,
            request_timeout_s=(args.request_timeout
                               if args.request_timeout > 0 else None))
        harness = LiveHarness(scenario, config)
        result = harness.run()
        _print_result(result)
        for when, description in harness.fault_log:
            print(f"  [chaos {when:7.2f}s] {description}")
        if harness.lease_transitions:
            print(f"  lease transitions {harness.lease_transitions}")
        if harness.chaos_errors:
            print(f"  CHAOS ERRORS: {harness.chaos_errors}")
        if not harness.clean_shutdown:
            print(f"  DIRTY SHUTDOWN: leaked tasks {harness.leaked_tasks}")
        if args.report is not None:
            _write_live_report(result, harness, args.report)
        return (0 if harness.clean_shutdown
                and not harness.chaos_errors else 1)

    if args.command == "export-trace":
        from repro.workloads.scenarios import build_scenario
        from repro.workloads.traceio import save_scenario

        save_scenario(build_scenario(args.scenario), args.path)
        print(f"wrote {args.scenario} to {args.path}")
        return 0

    if args.command == "hotel":
        result = run_hotel_benchmark(
            args.algorithm, rps=args.rps, duration_s=args.duration,
            seed=args.seed)
        _print_result(result)
        return 0

    if args.command == "tournament":
        import json

        from repro.tournament import (
            check_contract,
            render_grid,
            render_leaderboard,
            run_tournament,
            tournament_json,
        )

        result = run_tournament(
            algorithms=args.algorithms, scenarios=args.scenarios,
            duration_s=args.duration, repetitions=args.repetitions,
            seed0=args.seed, jobs=args.jobs if args.jobs > 0 else None)
        document = tournament_json(result)
        print(render_grid(result))
        print()
        print(render_leaderboard(document["leaderboard"]))
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote tournament document to {args.output}")
        if args.check:
            failures = check_contract(result)
            if failures:
                for failure in failures:
                    print(f"CHECK FAILED: {failure}")
                return 1
            print("check OK: l3 beat round-robin on degraded-backend P99")
        return 0

    if args.command == "figure":
        # --jobs 0 means "all CPUs" (run_cells takes None for that).
        _run_figure(args.name, args.fast,
                    jobs=args.jobs if args.jobs > 0 else None)
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
