"""Distributional contracts of the balancer zoo.

**Chi-square pick-frequency convergence** — each balancer, frozen on a
fixed synthetic latency field, must draw backends with the empirical
frequencies its update rule prescribes. The goodness-of-fit test runs
at alpha = 0.001 on seeded RNGs, so it is deterministic in CI and
still sharp enough to catch an inverted comparison or a mis-normalised
split. (Each algorithm's full benchmark run is pinned by digest in
``tests/bench/test_determinism.py``.)
"""

from __future__ import annotations

import pytest

from repro.balancers.estimate import LoadCostModel
from repro.balancers.ewma_latency import EwmaLatencyBalancer
from repro.balancers.gradient import GradientConfig, GradientDescentBalancer
from repro.balancers.knapsack import KnapsackLbBalancer
from repro.balancers.least_outstanding import LeastOutstandingBalancer
from repro.balancers.service_rate import ServiceRateAwareBalancer
from repro.sim.engine import Simulator

# Chi-square critical values at alpha = 0.001 by degrees of freedom.
CHI2_CRITICAL = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52}

DRAWS = 6000

def assert_frequencies(counts: dict[str, int],
                       expected: dict[str, float]) -> None:
    """Chi-square goodness-of-fit of observed counts vs. a target split."""
    total = sum(counts.values())
    assert total > 0
    stat = 0.0
    for name, probability in expected.items():
        expected_count = total * probability
        assert expected_count > 5, (
            f"cell {name} too thin for chi-square: {expected_count}")
        stat += (counts[name] - expected_count) ** 2 / expected_count
    critical = CHI2_CRITICAL[len(expected) - 1]
    assert stat < critical, (stat, critical, counts, expected)


def draw_counts(balancer, rng, draws: int = DRAWS,
                now: float = 0.0) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _ in range(draws):
        name = balancer.pick(rng, now)
        counts[name] = counts.get(name, 0) + 1
    return counts


class FakeSource:
    def __init__(self, samples):
        self.samples = samples

    def collect(self, backend_names, now, window_s, percentile):
        return {name: self.samples.get(name) for name in backend_names}


class Sample:
    def __init__(self, rps=10.0, mean_latency_s=None, latency_s=None,
                 inflight=0.0):
        self.rps = rps
        self.mean_latency_s = mean_latency_s
        self.latency_s = latency_s
        self.inflight = inflight
        self.success_rate = 1.0


class TestEwmaFrequencies:
    def test_epsilon_greedy_split(self, rng):
        """Picks converge to (1-eps) + eps/n on the argmin, eps/n elsewhere."""
        names = ["b0", "b1", "b2"]
        balancer = EwmaLatencyBalancer(names, explore_prob=0.12)
        # Drive every EWMA close to its true latency before freezing.
        latencies = {"b0": 0.010, "b1": 0.050, "b2": 0.200}
        for step in range(60):
            for name in names:
                balancer.on_response(name, float(step), latencies[name], True)
        eps = balancer.explore_prob
        expected = {name: eps / len(names) for name in names}
        expected["b0"] += 1.0 - eps
        assert_frequencies(draw_counts(balancer, rng), expected)


class TestLeastOutstandingFrequencies:
    def test_uniform_over_tied_minimum(self, rng):
        """Ties at the minimum queue split uniformly; loaded never picked."""
        names = ["b0", "b1", "b2"]
        balancer = LeastOutstandingBalancer(names)
        for _ in range(5):
            balancer.on_request_sent("b2", 0.0)
        counts = draw_counts(balancer, rng)
        assert counts.get("b2", 0) == 0
        assert_frequencies(
            {name: counts.get(name, 0) for name in ("b0", "b1")},
            {"b0": 0.5, "b1": 0.5})


class TestGradientFrequencies:
    def test_converges_to_floored_optimum(self, rng):
        """A persistent 50x cost gap drives the split to the exploration
        floor, and the sampler reproduces the solved shares."""
        names = ["cheap", "costly"]
        config = GradientConfig(min_share=0.05)
        balancer = GradientDescentBalancer(names, config=config)
        costs = {"cheap": 0.010, "costly": 0.500}
        for step in range(30):
            for name in names:
                balancer.on_response(name, float(step), costs[name], True)
            balancer.update(float(step))
        assert balancer.shares["costly"] == pytest.approx(0.05)
        assert balancer.shares["cheap"] == pytest.approx(0.95)
        assert_frequencies(draw_counts(balancer, rng), dict(balancer.shares))


class TestKnapsackFrequencies:
    def test_split_matches_marginal_cost_solve(self, rng):
        """Equal bases, slopes 1:3 -> the greedy solve equalises marginal
        latency at a 3:1 unit split, and picks follow the pushed weights."""
        sim = Simulator()
        names = ["flat", "steep"]
        source = FakeSource({name: Sample(rps=50.0) for name in names})
        balancer = KnapsackLbBalancer(
            sim, "api", names, source, propagation_delay_s=0.0)
        slopes = {"flat": 0.001, "steep": 0.003}
        for name in names:
            model = balancer.controller.models[name]
            for load in (0.0, 40.0, 80.0):
                model.observe(load, 0.020 + slopes[name] * load)
        weights = balancer.controller.reconcile(now=0.0)
        total = sum(weights.values())
        expected = {name: weights[name] / total for name in names}
        assert expected["flat"] == pytest.approx(0.75, abs=0.02)
        assert_frequencies(draw_counts(balancer, rng), expected)


class TestServiceRateFrequencies:
    def test_split_proportional_to_service_rates(self, rng):
        """Constant service times 10 ms vs. 30 ms -> rates 3:1 -> shares
        0.75/0.25, reproduced by the sampled picks."""
        sim = Simulator()
        names = ["fast", "slow"]
        service_times = {"fast": 0.010, "slow": 0.030}
        source = FakeSource({
            name: Sample(rps=50.0, mean_latency_s=service_times[name])
            for name in names
        })
        balancer = ServiceRateAwareBalancer(
            sim, "api", names, source, propagation_delay_s=0.0)
        weights = balancer.controller.reconcile(now=0.0)
        total = sum(weights.values())
        expected = {name: weights[name] / total for name in names}
        assert expected["fast"] == pytest.approx(0.75, abs=0.02)
        assert_frequencies(draw_counts(balancer, rng), expected)


class TestModelFitProperty:
    def test_fit_interpolates_seen_range(self):
        """Within the observed load range the fitted curve stays between
        the smallest and largest observed costs (no wild extrapolation)."""
        model = LoadCostModel(0.1)
        points = [(10.0, 0.02), (50.0, 0.04), (90.0, 0.06)]
        for rps, cost in points:
            model.observe(rps, cost)
        for load in (10.0, 30.0, 60.0, 90.0):
            predicted = model.predict(load)
            assert 0.02 <= predicted <= 0.06, (load, predicted)
