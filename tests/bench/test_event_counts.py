"""Count gates on the simulated request path.

A hop is an agenda entry only when simulated time passes or another
request wakes this one (:mod:`repro.mesh.fastdispatch`). These tests pin
what that buys — agenda events per run and garbage per raced attempt —
and the one ordering rule it changes: a same-instant continuation runs
inside the callback that caused it, ahead of an entry already due at
that instant.
"""

from __future__ import annotations

import gc

from repro.balancers.static_weights import StaticWeightBalancer
from repro.bench.coordinator import run_scenario_benchmark
from repro.mesh.mesh import ServiceMesh
from repro.workloads.profiles import constant_backend_profile
from tests.bench.test_determinism import _deadline_retry_env


def test_reference_cell_event_count():
    # 7.00 agenda events per generated request when every same-instant
    # hop was an agenda entry (85 189 here); 5.00 without them.
    result = run_scenario_benchmark("scenario-1", "l3", duration_s=10,
                                    seed=1)
    assert result.events_processed <= 61_000


def test_raced_attempts_leave_no_cyclic_garbage():
    # A raced attempt used to allocate a fresh flight whose pre-bound
    # methods formed a reference cycle: ~32 unreachable objects each.
    gc.collect()
    gc.disable()
    try:
        result = run_scenario_benchmark(
            "failure-2", "l3", duration_s=15, seed=9,
            env=_deadline_retry_env())
        garbage = gc.collect()
    finally:
        gc.enable()
    attempts = sum(record.attempts for record in result.records)
    assert attempts > 0
    assert garbage / attempts < 5


class _LoggingBalancer(StaticWeightBalancer):
    def __init__(self, weights, log):
        super().__init__(weights)
        self.log = log

    def pick(self, rng, now):
        self.log.append(("send", now))
        return super().pick(rng, now)


def test_same_instant_send_runs_before_a_tick_due_then(sim, rng_registry):
    mesh = ServiceMesh(sim, rng_registry, clusters=["cluster-1"])
    mesh.deploy_service("api", profiles={
        "cluster-1": constant_backend_profile(0.010, 0.010)})
    log = []
    proxy = mesh.client_proxy(
        "cluster-1", "api",
        _LoggingBalancer({"api/cluster-1": 1.0}, log))
    records = []
    # The arrival enters the agenda before the periodic tick is armed
    # for the same instant, so it fires first; the request it dispatches
    # is sent inside the arrival's callback, before the tick runs.
    sim.pool.schedule(
        1.0, lambda: proxy.dispatch(sim.now, records.append))
    loop = sim.every(1.0, lambda now: log.append(("tick", now)))
    sim.run(until=1.5)
    loop.cancel()
    assert log == [("send", 1.0), ("tick", 1.0)]
    (record,) = records
    assert record.success
