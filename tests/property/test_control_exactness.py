"""Exactness of the controller's direct paths against their definitions.

``L3Controller.reconcile`` runs Algorithm 1 straight from the EWMAs and
Algorithm 2 with its ``(1 + k c^2)^1.5`` factors computed once per call.
Both must equal the per-backend definitions bit for bit: the raw weights
those of ``compute_weights`` over validated ``BackendSnapshot``s, the
rate-controlled weights those of ``adjust_weight`` one weight at a time.
Equality is on ``repr``, which tells ``-0.0`` from ``0.0``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import L3Config
from repro.core.controller import L3Controller, MetricSample
from repro.core.rate_control import (
    adjust_weight,
    apply_rate_control,
    relative_change,
)
from repro.core.weighting import WeightingConfig, compute_weights


def bits(weights: dict) -> dict:
    return {name: repr(weight) for name, weight in weights.items()}


# Filter values: around every clamp and guard of Algorithm 1 — negative
# EWMAs, -0.0, zero and just-below-0.1 RPS, success rate 0 and above 1.
edge_values = st.sampled_from(
    [-1.0, -0.0, 0.0, 1e-9, 0.0999999, 0.1, 0.5, 1.0, 1.5, 7.0, 1e4])
values = st.one_of(edge_values,
                   st.floats(min_value=-10.0, max_value=1e4))
samples = st.one_of(
    st.none(),
    st.builds(MetricSample,
              latency_s=st.one_of(st.none(), values),
              success_rate=st.one_of(st.sampled_from([0.0, 1.0]),
                                     st.floats(0.0, 1.0)),
              rps=st.one_of(st.sampled_from([0.0, 0.0999999, 0.1]),
                            st.floats(0.0, 1e3)),
              inflight=values))
penalties = st.one_of(st.sampled_from([0.0, 0.6]),
                      st.floats(min_value=0.0, max_value=5.0))
backends = st.lists(
    st.tuples(st.tuples(values, values, values, values),  # preset filters
              penalties,  # preset failure-latency filter (dynamic only)
              samples,  # what collect returns at the reconcile
              st.one_of(st.none(), penalties)),  # failure quantile read
    min_size=1, max_size=6)
configs = st.builds(
    L3Config,
    use_peak_ewma=st.booleans(),
    dynamic_penalty=st.booleans(),
    weighting=st.builds(
        WeightingConfig,
        penalty_s=st.sampled_from([0.0, 0.6, 2.0]),
        min_weight=st.sampled_from([0.0, 1.0]),
        inflight_exponent=st.sampled_from([0.0, 2.0, 3.0])))


class ScriptedSource:
    """Serves one fixed sample and failure quantile per backend."""

    def __init__(self, samples, failures):
        self.samples = samples
        self.failures = failures

    def collect(self, backend_names, now, window_s, percentile):
        return {name: self.samples[name] for name in backend_names}

    def failure_latency_quantile(self, name, now, window_s, percentile):
        return self.failures[name]


class NullSink:
    def set_weights(self, weights, now):
        pass


@settings(max_examples=300, deadline=None)
@given(backends, configs, st.sampled_from([5.0, 30.0]))
def test_reconcile_weights_equal_compute_weights_over_snapshots(
        rows, config, now):
    names = [f"b{i}" for i in range(len(rows))]
    source = ScriptedSource(
        {name: row[2] for name, row in zip(names, rows)},
        {name: row[3] for name, row in zip(names, rows)})
    controller = L3Controller(names, source, NullSink(), config)
    for name, (filters, penalty, _sample, _failure) in zip(names, rows):
        state = controller.backends[name]
        for ewma, value in zip((state.latency, state.success_rate,
                                state.rps, state.inflight), filters):
            ewma._value = value
        if config.dynamic_penalty:
            state.failure_latency._value = penalty
    # t=5 observes or holds; t=30 is past staleness, so "no data" decays.
    controller.reconcile(now)
    states = controller.backends.values()
    overrides = ({state.name: state.failure_latency.value for state in states}
                 if config.dynamic_penalty else None)
    expected = compute_weights([state.snapshot() for state in states],
                               config.weighting, penalty_overrides=overrides)
    assert bits(controller.last_raw_weights) == bits(expected)


def reference_adjust(weight, mean_weight, change):
    """Algorithm 2 for one weight, factors recomputed per call."""
    if change > 0.0:
        damping = (1.0 + change * change) ** 1.5
        return mean_weight - mean_weight / damping + weight / damping
    if change < 0.0:
        if weight <= mean_weight:
            return weight / (1.0 + 2.0 * change * change) ** 1.5
        spread = (1.0 + 3.0 * change * change) ** 1.5
        return 2.0 * weight - mean_weight - (weight - mean_weight) / spread
    return weight


weight_maps = st.lists(st.floats(min_value=0.0, max_value=1e7),
                       min_size=1, max_size=12).map(
    lambda ws: {f"b{i}": w for i, w in enumerate(ws)})


@pytest.mark.parametrize("rps_ewma, rps_last, expected_change", [
    (100.0, 150.0, 0.5),        # c > 0: pull toward the mean
    (100.0, 40.0, -0.6),        # c < 0: push apart
    (100.0, 100.0, 0.0),        # c == 0: untouched
    (0.0, 5.0, 1e6),            # the cap: traffic from a zero baseline
    (100.0, 0.0, -1.0),         # the most negative reachable change
])
@settings(max_examples=60, deadline=None)
@given(weights=weight_maps, min_weight=st.sampled_from([0.0, 1.0]))
def test_apply_rate_control_equals_per_weight_adjust_weight(
        rps_ewma, rps_last, expected_change, weights, min_weight):
    change = relative_change(rps_ewma, rps_last)
    assert change == pytest.approx(expected_change)
    mean_weight = sum(weights.values()) / len(weights)
    got = bits(apply_rate_control(weights, rps_ewma, rps_last,
                                  min_weight=min_weight))
    for adjust in (adjust_weight, reference_adjust):
        assert got == bits({
            name: max(adjust(weight, mean_weight, change), min_weight)
            for name, weight in weights.items()})


@settings(max_examples=300, deadline=None)
# Inputs whose result depends on the factors' rounding: an operation-order
# change such as ``3.0 * (c * c)`` flips the last bit here.
@example(1493.5133605397523, 543.8986540905754, -0.8491527854127803)
@given(st.floats(min_value=0.0, max_value=1e7),
       st.floats(min_value=0.0, max_value=1e7),
       st.one_of(st.sampled_from([1e6, -1e6, 1e-300, -1e-300, 0.0, -0.0]),
                 # Small |c| keeps the factors' last bits in the result.
                 st.floats(min_value=-5.0, max_value=5.0),
                 st.floats(min_value=-1e6, max_value=1e6)))
def test_adjust_weight_is_the_reference_formula(weight, mean_weight, change):
    assert (repr(adjust_weight(weight, mean_weight, change))
            == repr(reference_adjust(weight, mean_weight, change)))
