"""Determinism contract: golden digest + parallel/serial equivalence.

Three guarantees every kernel or telemetry optimization must keep:

1. A fixed-seed scenario run reproduces the committed golden digest —
   same request records, same controller weights, same percentiles, a
   byte-identical OTLP trace export. Any change to event ordering,
   float arithmetic or scrape timing flips the hash.
2. A sweep executed with ``jobs=4`` is byte-identical to the same sweep
   executed serially — per-cell seeding and the ordered merge make
   worker scheduling invisible.
3. Every pinned cell — seeds, algorithms, fault schedules, deadline and
   retry storms, the balancer zoo, the hotel and social call graphs, the
   idle fleet — reproduces the digest recorded for it (for most, what
   the retired generator engine printed).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.coordinator import (
    ScenarioBenchConfig,
    run_callgraph_benchmark,
    run_hotel_benchmark,
    run_scenario_benchmark,
    run_social_benchmark,
)
from repro.bench.digest import digest_result, first_divergence, golden_digest
from repro.bench.parallel import Cell, run_cells
from repro.faults.faults import (
    ClusterOutage,
    LinkDegradation,
    LinkPartition,
    ReplicaCrash,
)
from repro.mesh.ejection import OutlierEjectionConfig
from repro.tracing import MeshTracer, TracingConfig
from repro.tracing.export import to_otlp
from repro.workloads.fleet import FleetSpec, build_fleet_scenario
from repro.workloads.hotel import build_hotel_application
from tests.bench._pins import flip_report

# SHA-256 of the fixed-seed reference run (scenario-1 / l3 / 30 s /
# seed 1, traces on). Recompute ONLY for an intentional behavior change:
#   PYTHONPATH=src python -c "from repro.bench.digest import golden_digest;
#   print(golden_digest())"
GOLDEN_DIGEST = (
    "5079b35ea955fa7d694348cfdfdc3a97160e5283727f651d6a555b221c375a43"
)


def _golden_run():
    """The run ``golden_digest`` fingerprints, untraced: tracing draws no
    random number, so the records and weights are the same."""
    return run_scenario_benchmark("scenario-1", "l3", duration_s=30.0, seed=1)


def test_fixed_seed_run_matches_golden_digest():
    assert golden_digest() == GOLDEN_DIGEST, flip_report(_golden_run)


def test_parallel_sweep_is_byte_identical_to_serial():
    cells = [
        Cell(id=f"{algorithm}/seed{seed}",
             fn=run_scenario_benchmark,
             kwargs={"scenario": "scenario-2", "algorithm": algorithm,
                     "duration_s": 10.0, "seed": seed})
        for algorithm in ("l3", "round-robin")
        for seed in (1, 2)
    ]
    serial = run_cells(cells, jobs=1)
    parallel = run_cells(cells, jobs=4)

    assert list(serial) == list(parallel)
    for cell_id in serial:
        inline, pooled = serial[cell_id].unwrap(), parallel[cell_id].unwrap()
        assert digest_result(inline) == digest_result(pooled), (
            f"{cell_id}: {first_divergence(inline, pooled)}")


# --------------------------------------------------------------------- #
# Pinned digests: what the retired generator engine produced.
#
# Until PR 22 the request lifecycle existed twice — generator processes
# (``engine="process"``, the only engine call graphs ran on) and the
# callback state machines — and two suites compared the twins cell by
# cell. The generator copy is gone; these are its outputs, recorded at
# the parent commit (913ac43) as
#   digest_result(result, trace_blob=repr(result.fault_log).encode())
# of ``run_scenario_benchmark(..., engine="process")`` for the scenario
# cells and of ``run_hotel_benchmark`` / ``run_social_benchmark`` (which
# had no other engine) for the call-graph cells; the traced cell's blob
# is the OTLP export instead, as in ``golden_digest``. Recompute ONLY for
# an intentional behavior change.
# --------------------------------------------------------------------- #


def _deadline_retry_env() -> ScenarioBenchConfig:
    """A deadline/retry-heavy client config: tight per-attempt timeout,
    retries with backoff, and the outlier-ejection circuit breaker on."""
    return ScenarioBenchConfig(
        request_timeout_s=0.05, max_retries=2, retry_backoff_s=0.01,
        outlier_ejection=OutlierEjectionConfig())


def _scenario(scenario, algorithm, seed, duration_s=10.0, **kwargs):
    return lambda: run_scenario_benchmark(
        scenario, algorithm, duration_s=duration_s, seed=seed, **kwargs)


_CALLGRAPH_ENV = ScenarioBenchConfig(warmup_s=5.0, drain_s=5.0)


def _callgraph(run, algorithm, seed):
    return lambda: run(algorithm, rps=100.0, duration_s=10.0, seed=seed,
                       env=_CALLGRAPH_ENV)


# Faults exercise blackholed replicas (gated grants), fail-fast outages
# and WAN partitions; each fires *and* recovers inside the window.
_CRASH_AND_OUTAGE = [
    ReplicaCrash(service="api", cluster="cluster-1", at_s=5.0,
                 replica_index=0, duration_s=10.0, mode="blackhole"),
    ClusterOutage(cluster="cluster-2", at_s=12.0, duration_s=6.0,
                  mode="fail_fast", service="api"),
]
_PARTITION_AND_DEGRADATION = [
    LinkPartition(src="cluster-1", dst="cluster-2", at_s=8.0,
                  duration_s=5.0),
    LinkDegradation(src="cluster-1", dst="cluster-3", at_s=15.0,
                    duration_s=8.0, multiplier=3.0, extra_delay_s=0.005),
]

PINNED = {
    # Same scenario, five seeds: RNG consumption order.
    "scenario-1/l3/seed1": (
        _scenario("scenario-1", "l3", 1),
        "8803638ab098d04b77831f55e50ee188729d7db6465da30150ba79660d66ae85"),
    "scenario-1/l3/seed2": (
        _scenario("scenario-1", "l3", 2),
        "dd02f99b201d7fa0dba09c2b634c855333ffd66c5684f83382d29ebf13a17b80"),
    "scenario-1/l3/seed3": (
        _scenario("scenario-1", "l3", 3),
        "909ce3d66f88805a7b970f16dfe2812d3f2a4eca2f177b003a970d80abb63a1d"),
    "scenario-1/l3/seed4": (
        _scenario("scenario-1", "l3", 4),
        "aefe826721e6b0d4a78e032b2e339806d4a3c4620821eb7db1ea900d84615ae2"),
    "scenario-1/l3/seed5": (
        _scenario("scenario-1", "l3", 5),
        "5717c330fe9808522733bfaedfdd94556d02fff7b07872f3702d525bfd8a2de8"),
    # Different traffic shapes and algorithms.
    "scenario-4/round-robin/seed2": (
        _scenario("scenario-4", "round-robin", 2),
        "89a12b6ec24b7bc27a55c49bf1f0ce89d3f3057ac81dca97b3b72f8f1c5f7f3b"),
    "scenario-4/c3/seed2": (
        _scenario("scenario-4", "c3", 2),
        "3fb9a8de0d3839f624fefb0ba351d6f61d2eb1e275541ab260037a106bc60e20"),
    "scenario-4/l3-peak/seed2": (
        _scenario("scenario-4", "l3-peak", 2),
        "a7634d7fbfd592f2bf2b577948a1c172118bd43a508c39d364ebe0be2b0a7bad"),
    "failure-1/p2c/seed7": (
        _scenario("failure-1", "p2c", 7),
        "da34731235c6063a7a8c96fe382b34124a4c053e12911eb0e342e0821b9e38a6"),
    "scenario-2/l3/seed3/crash+outage": (
        _scenario("scenario-2", "l3", 3, duration_s=25.0,
                  env=_deadline_retry_env(), faults=_CRASH_AND_OUTAGE),
        "1779fccc53116db86b54dee5c6ae2b0df87a272b7a0c1c684682be0d724e1f36"),
    "scenario-3/l3/seed5/partition+degradation": (
        _scenario("scenario-3", "l3", 5, duration_s=25.0,
                  env=_deadline_retry_env(),
                  faults=_PARTITION_AND_DEGRADATION),
        "370b379a02ee711e2aee2e404ad3e137299ec6acce5fa68f865599bf4c4c287b"),
    # failure-2 saturates a cluster; with a 50 ms deadline and retries
    # the timeout/retry/ejection machinery dominates the lifecycle.
    "failure-2/l3/seed9/deadline-heavy": (
        _scenario("failure-2", "l3", 9, duration_s=15.0,
                  env=_deadline_retry_env()),
        "388275443eb308868f3d70519e92b2bd475b261fd1e51ee9d9d5ab28967822ee"),
    # The balancer zoo.
    "scenario-2/least-outstanding/seed3": (
        _scenario("scenario-2", "least-outstanding", 3, duration_s=15.0),
        "cf71c8bf6a2944b52cb9d1fe03cf1d756d288170902d60893e7238d23aa02627"),
    "scenario-2/ewma/seed3": (
        _scenario("scenario-2", "ewma", 3, duration_s=15.0),
        "2df1abe08926bcb2a0311c805d407483ccf8fdb2c3e634d4cdca11d929ef9b49"),
    "scenario-2/knapsack/seed3": (
        _scenario("scenario-2", "knapsack", 3, duration_s=15.0),
        "9bb161300ba63885d676746556ef0b0dffa90262387d8bf1bd31eaf5dbb55807"),
    "scenario-2/gradient/seed3": (
        _scenario("scenario-2", "gradient", 3, duration_s=15.0),
        "f67c45088ac6dd3a3693ce855aaf1c2607eca9f55ef6ec6dfc35f5f5fb274001"),
    "scenario-2/service-rate/seed3": (
        _scenario("scenario-2", "service-rate", 3, duration_s=15.0),
        "367da44bf2e540a7d44eb907e2c08d505957d90f499199de4023c07c9e5a698c"),
    # Call graphs: bodies, fan-out, cached reads.
    "hotel/l3/seed1": (
        _callgraph(run_hotel_benchmark, "l3", 1),
        "4dedc3414fba90a5b76fab72463811f35949ba858e54040c78615c7d52a75349"),
    "hotel/l3/seed2": (
        _callgraph(run_hotel_benchmark, "l3", 2),
        "29fb1eaf5a7d7e175ec1a924e2976a0216bfba75a5344f220c5b6bfda9241ac4"),
    "hotel/round-robin/seed1": (
        _callgraph(run_hotel_benchmark, "round-robin", 1),
        "5c00d952b6e93bfef3f180cb9390f53340ebff6fd433d8e1f60f6cf4a92a564a"),
    "hotel/round-robin/seed2": (
        _callgraph(run_hotel_benchmark, "round-robin", 2),
        "ff663191f41d686cf45063f72389f67407e006c0e5e57a8034a3b21c27a99e55"),
    "social/l3/seed1": (
        _callgraph(run_social_benchmark, "l3", 1),
        "413d96c3b04e7b0cbba3f22bf9ffb3c0d35c0f70ef85eb0f92a50e8a022f814c"),
    "social/l3/seed2": (
        _callgraph(run_social_benchmark, "l3", 2),
        "7bd50751007ec427458353a0c82452d8e2a8a85d08c5a03df58cdaba0d464542"),
    "social/round-robin/seed1": (
        _callgraph(run_social_benchmark, "round-robin", 1),
        "7612cca9bbff46bbae0e89c73fc347135f31f3d28143925d4a81111ceaff4e24"),
    "social/round-robin/seed2": (
        _callgraph(run_social_benchmark, "round-robin", 2),
        "de39dec2bbeda9e2c0d345750cfd91a14d3c011d0cbf4d029ce4cc5390a64355"),
}


# The wide, mostly idle reconcile: 120 backends at 3 RPS, where most
# windowed reads find no traffic and most EWMAs are decaying. Recorded at
# 18f15bf, before the controller read the EWMAs directly and queries
# skipped unchanged series, with the same digest call as above.
def _idle_fleet(algorithm):
    return lambda: run_scenario_benchmark(
        build_fleet_scenario(FleetSpec(total_rps=3.0), seed=1), algorithm,
        duration_s=300.0, seed=1)


PINNED.update({
    "idle-fleet/l3/seed1": (
        _idle_fleet("l3"),
        "510ebf078180830225a456024040ada78cb95edb57c18095a8e051aa2b8ef427"),
    "idle-fleet/l3-peak/seed1": (
        _idle_fleet("l3-peak"),
        "d60409cda0835c77078377aab499b4d43b6cd1c86c9c6814ab2637d948d6c7aa"),
})


@pytest.mark.parametrize("cell", PINNED)
def test_pinned_digest(cell):
    run, pinned = PINNED[cell]
    result = run()
    assert result.records, "a digest of an empty run proves nothing"
    assert digest_result(
        result, trace_blob=repr(result.fault_log).encode()) == pinned, (
        flip_report(run, result))


def traced_hotel_run():
    """hotel / l3 / seed 7, 40 RPS, 5 s after a 5 s warm-up, traces on."""
    tracer = MeshTracer(TracingConfig(sample_rate=1.0))
    return run_callgraph_benchmark(
        build_hotel_application, "hotel-reservation", "l3", rps=40.0,
        duration_s=5.0, seed=7, env=_CALLGRAPH_ENV, tracer=tracer)


def traced_digest(result) -> str:
    """The digest of a traced run: its records plus its OTLP export."""
    assert result.records
    return digest_result(result, trace_blob=json.dumps(
        to_otlp(result.tracer.recorder), sort_keys=True,
        separators=(",", ":")).encode("utf-8"))


TRACED_HOTEL_DIGEST = (
    "9759e3ff1f950a71f11256ab2e9e98922bdef2e647037bd214c6f30f859e0e90"
)


def test_pinned_traced_call_graph_digest():
    result = traced_hotel_run()
    assert traced_digest(result) == TRACED_HOTEL_DIGEST, (
        flip_report(traced_hotel_run, result))
