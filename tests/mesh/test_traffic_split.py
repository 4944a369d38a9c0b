"""Tests for the SMI-style TrafficSplit."""

import collections

import pytest

from repro.errors import ConfigError, MeshError
from repro.mesh.traffic_split import TrafficSplit


@pytest.fixture
def split(sim):
    return TrafficSplit(sim, "svc", ["a", "b", "c"],
                        propagation_delay_s=0.5)


class TestConstruction:
    def test_needs_backends(self, sim):
        with pytest.raises(ConfigError):
            TrafficSplit(sim, "svc", [])

    def test_rejects_duplicates(self, sim):
        with pytest.raises(ConfigError):
            TrafficSplit(sim, "svc", ["a", "a"])

    def test_negative_propagation_rejected(self, sim):
        with pytest.raises(ConfigError):
            TrafficSplit(sim, "svc", ["a"], propagation_delay_s=-1.0)

    def test_starts_with_equal_weights(self, split):
        assert split.weights == {"a": 1, "b": 1, "c": 1}


class TestSetWeights:
    def test_unknown_backend_rejected(self, sim, split):
        with pytest.raises(MeshError):
            split.set_weights({"ghost": 5}, now=sim.now)

    def test_non_integer_weight_rejected(self, sim, split):
        with pytest.raises(MeshError):
            split.set_weights({"a": 1.5}, now=sim.now)
        with pytest.raises(MeshError):
            split.set_weights({"a": -1}, now=sim.now)

    def test_weights_apply_after_propagation_delay(self, sim, split):
        split.set_weights({"a": 10, "b": 1, "c": 1}, now=sim.now)
        assert split.weights == {"a": 1, "b": 1, "c": 1}
        sim.run(until=0.4)
        assert split.weights["a"] == 1
        sim.run(until=0.6)
        assert split.weights["a"] == 10

    def test_zero_propagation_applies_immediately(self, sim):
        split = TrafficSplit(sim, "svc", ["a", "b"],
                             propagation_delay_s=0.0)
        split.set_weights({"a": 7, "b": 3}, now=sim.now)
        assert split.weights == {"a": 7, "b": 3}

    def test_partial_update_keeps_other_weights(self, sim):
        split = TrafficSplit(sim, "svc", ["a", "b"],
                             propagation_delay_s=0.0)
        split.set_weights({"a": 5}, now=sim.now)
        assert split.weights == {"a": 5, "b": 1}

    def test_update_count(self, sim, split):
        split.set_weights({"a": 2}, now=sim.now)
        split.set_weights({"a": 3}, now=sim.now)
        sim.run()
        assert split.update_count == 2


class TestPick:
    def test_single_backend_always_picked(self, sim, rng):
        split = TrafficSplit(sim, "svc", ["only"])
        assert all(split.pick(rng) == "only" for _ in range(10))

    def test_distribution_follows_weights(self, sim, rng):
        split = TrafficSplit(sim, "svc", ["a", "b"],
                             propagation_delay_s=0.0)
        split.set_weights({"a": 3, "b": 1}, now=sim.now)
        counts = collections.Counter(split.pick(rng) for _ in range(8000))
        ratio = counts["a"] / counts["b"]
        assert 2.5 < ratio < 3.6

    def test_zero_weight_backend_gets_no_traffic(self, sim, rng):
        split = TrafficSplit(sim, "svc", ["a", "b"],
                             propagation_delay_s=0.0)
        split.set_weights({"a": 0, "b": 5}, now=sim.now)
        assert all(split.pick(rng) == "b" for _ in range(100))

    def test_all_zero_weights_fall_back_to_uniform(self, sim, rng):
        split = TrafficSplit(sim, "svc", ["a", "b"],
                             propagation_delay_s=0.0)
        split.set_weights({"a": 0, "b": 0}, now=sim.now)
        counts = collections.Counter(split.pick(rng) for _ in range(1000))
        assert set(counts) == {"a", "b"}


class TestDynamicBackends:
    def test_add_backend_receives_traffic(self, sim, rng):
        split = TrafficSplit(sim, "svc", ["a"], propagation_delay_s=0.0)
        split.add_backend("b", weight=1)
        picks = {split.pick(rng) for _ in range(200)}
        assert picks == {"a", "b"}

    def test_add_duplicate_rejected(self, sim, split):
        with pytest.raises(MeshError):
            split.add_backend("a")

    def test_add_invalid_weight_rejected(self, sim, split):
        with pytest.raises(MeshError):
            split.add_backend("new", weight=-1)

    def test_remove_backend(self, sim, rng, split):
        split.remove_backend("c")
        assert set(split.backend_names()) == {"a", "b"}
        assert all(split.pick(rng) != "c" for _ in range(100))

    def test_remove_unknown_rejected(self, sim, split):
        with pytest.raises(MeshError):
            split.remove_backend("ghost")

    def test_remove_last_backend_rejected(self, sim, rng):
        split = TrafficSplit(sim, "svc", ["only"])
        with pytest.raises(MeshError):
            split.remove_backend("only")


class TestGenerationGuard:
    def test_older_push_never_overwrites_newer(self, sim):
        split = TrafficSplit(sim, "svc", ["a"], propagation_delay_s=0.0)
        # Apply generation 2 first, then replay generation 1 manually.
        split.set_weights({"a": 2}, now=sim.now)
        split._apply({"a": 99}, generation=1)
        assert split.weights["a"] == 2
