#!/usr/bin/env python3
"""Failure injection: success-rate-aware balancing (paper Figs. 11-12).

Runs the failure-1 scenario (average success ~91 %, with per-cluster
outages dropping success to 30-60 %) under the three algorithms and shows
how L3's success-rate term (Eq. 3's retry penalty) steers traffic away
from failing clusters — something neither round-robin nor the C3
adaptation does.

Also demonstrates the §5.2.1 penalty-factor trade-off, the §7
dynamic-penalty extension, and the fault-injection API
(:mod:`repro.faults`): a whole cluster blackholes mid-run, L3 detects the
dead backend through its success-rate EWMA and reroutes, and traffic
rebalances after the cluster restarts.

Run with::

    python examples/failure_injection.py [duration_seconds]
"""

import sys

from repro import L3Config, ScenarioBenchConfig, WeightingConfig, \
    run_scenario_benchmark
from repro.bench.fault_matrix import steady_scenario
from repro.bench.results import ComparisonTable
from repro.bench.study import faulted_share
from repro.faults import ClusterOutage


def fault_api_demo() -> None:
    """Crash → detect → reroute → restart → re-balance, on a flat scenario.

    The scenario is steady (identical constant profiles), so any traffic
    shift is L3's doing. cluster-2 blackholes from t=40 s to t=80 s; the
    client's 1-second deadline turns the silence into failed attempts the
    success-rate EWMA can see.
    """
    print("\nfault injection API: cluster-2 blackhole, 40-80 s")
    duration_s = 120.0
    outage = ClusterOutage("cluster-2", at_s=40.0, duration_s=40.0,
                           mode="blackhole")
    env = ScenarioBenchConfig(request_timeout_s=1.0)
    result = run_scenario_benchmark(
        steady_scenario(duration_s), "l3", duration_s=duration_s, seed=7,
        env=env, faults=[outage])

    for when, description in result.fault_log:
        print(f"  t={when - env.warmup_s:6.1f}s  {description}")

    warm = env.warmup_s
    windows = {
        "before the outage (0-40 s)": (0.0, 40.0),
        "during, after detection (55-80 s)": (55.0, 80.0),
        "after restart + re-balance (95-120 s)": (95.0, duration_s),
    }
    shares = {}
    for label, (start, end) in windows.items():
        shares[label] = faulted_share(
            result.records, warm + start, warm + end, cluster="cluster-2")
        print(f"  cluster-2 traffic share {label}: "
              f"{shares[label] * 100.0:5.1f} %")
    rerouted = shares["during, after detection (55-80 s)"]
    rebalanced = shares["after restart + re-balance (95-120 s)"]
    print(f"  L3 rerouted around the outage (share {rerouted * 100.0:.1f} % "
          f"< 10 %) and rebalanced after restart "
          f"(share back to {rebalanced * 100.0:.1f} %)")
    assert rerouted < 0.10, "L3 failed to shed the blackholed cluster"
    assert rebalanced > 0.15, "traffic did not return after the restart"


def main() -> None:
    duration_s = float(sys.argv[1]) if len(sys.argv) > 1 else 180.0

    table = ComparisonTable(
        f"failure-1, {duration_s:.0f}s measured", baseline="round-robin")
    for algorithm in ("round-robin", "c3", "l3"):
        print(f"running {algorithm} ...")
        result = run_scenario_benchmark(
            "failure-1", algorithm, duration_s=duration_s, seed=7)
        table.add(algorithm,
                  p99_ms=result.p99_ms,
                  success_pct=result.success_rate * 100.0)
    print()
    print(table.render())

    print("\npenalty factor sweep (failure-1): larger P trades latency for"
          " success rate")
    sweep = ComparisonTable("penalty sweep", baseline=None)
    for penalty_s in (0.1, 0.6, 1.5):
        config = L3Config(weighting=WeightingConfig(penalty_s=penalty_s))
        result = run_scenario_benchmark(
            "failure-1", "l3", duration_s=duration_s, seed=7,
            l3_config=config)
        sweep.add(f"P={penalty_s:g}s",
                  p99_ms=result.p99_ms,
                  success_pct=result.success_rate * 100.0)
    print()
    print(sweep.render())

    print("\ndynamic penalty (paper future work): P tracked per backend"
          " from observed failure latency")
    result = run_scenario_benchmark(
        "failure-1", "l3", duration_s=duration_s, seed=7,
        l3_config=L3Config(dynamic_penalty=True))
    print(f"  dynamic-P L3: p99={result.p99_ms:.1f} ms  "
          f"success={result.success_rate * 100.0:.2f} %")

    fault_api_demo()


if __name__ == "__main__":
    main()
