"""Every reconcile controller records its decisions on a traced run."""

import pytest

from repro.balancers.factory import controller_balancer_names
from repro.bench import coordinator
from repro.bench.coordinator import ScenarioBenchConfig, run_scenario_benchmark
from repro.tracing import MeshTracer, model


@pytest.mark.parametrize("algorithm", controller_balancer_names())
def test_traced_run_records_one_decision_per_reconcile(algorithm,
                                                       monkeypatch):
    built = []
    make = coordinator.make_balancer

    def capture(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(coordinator, "make_balancer", capture)
    tracer = MeshTracer()
    run_scenario_benchmark(
        "scenario-2", algorithm, duration_s=20.0, seed=3, tracer=tracer,
        env=ScenarioBenchConfig(warmup_s=10.0, drain_s=2.0))

    (balancer,) = built
    controller = balancer.controller
    decisions = tracer.audit.decisions
    assert controller.reconcile_count > 0
    assert len(decisions) == controller.reconcile_count
    assert decisions[-1].weights == controller.last_weights
    assert set(decisions[-1].backends) == set(controller.last_weights)
    spans = [s for s in tracer.recorder.finished_spans()
             if s.name == model.RECONCILE]
    assert len(spans) == len(decisions)
    assert {s.attributes["controller"] for s in spans} == {algorithm}
