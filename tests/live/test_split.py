"""Tests for the live split: TrafficSplit on a WallClock at zero delay.

The harness builds its L3/C3 balancer on a :class:`WallClock` with
``propagation_delay_s=0.0``; a WallClock has no agenda, so every weight
write must apply synchronously and schedule nothing — a push that tried
to schedule would fail right here, outside any event loop.
"""

import random
from collections import Counter

import pytest

from repro.balancers.periodic import PeriodicSplitBalancer
from repro.core.controller import L3Controller
from repro.errors import ConfigError, MeshError
from repro.live.clock import WallClock
from repro.mesh.traffic_split import TrafficSplit
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.timeseries import TimeSeriesStore


def live_split(names):
    return TrafficSplit(WallClock(), "api", names, propagation_delay_s=0.0)


def split(*names):
    return live_split(names or ("a", "b", "c"))


class TestConstruction:
    def test_needs_backends(self):
        with pytest.raises(ConfigError):
            live_split([])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            live_split(["a", "a"])

    def test_starts_uniform(self):
        assert split().weights == {"a": 1, "b": 1, "c": 1}


class TestSetWeights:
    def test_applies_immediately(self):
        s = split()
        s.set_weights({"a": 5, "b": 0, "c": 2}, now=3.0)
        assert s.weights == {"a": 5, "b": 0, "c": 2}
        assert s.update_count == 1

    def test_omitted_backends_keep_weight(self):
        s = split()
        s.set_weights({"a": 9}, now=1.0)
        assert s.weights == {"a": 9, "b": 1, "c": 1}

    def test_unknown_backend_rejected(self):
        with pytest.raises(MeshError):
            split().set_weights({"nope": 1}, now=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(MeshError):
            split().set_weights({"a": -1}, now=0.0)

    def test_non_integer_weight_rejected(self):
        with pytest.raises(MeshError):
            split().set_weights({"a": 1.5}, now=0.0)


class TestPick:
    def test_zero_weight_backend_never_picked(self):
        s = split()
        s.set_weights({"a": 1, "b": 0, "c": 0}, now=0.0)
        rng = random.Random(7)
        assert {s.pick(rng) for _ in range(200)} == {"a"}

    def test_proportional_distribution(self):
        s = split()
        s.set_weights({"a": 3, "b": 1, "c": 0}, now=0.0)
        rng = random.Random(11)
        counts = Counter(s.pick(rng) for _ in range(4000))
        assert counts["c"] == 0
        assert 0.70 < counts["a"] / 4000 < 0.80  # expected 0.75

    def test_all_zero_falls_back_to_uniform(self):
        s = split()
        s.set_weights({"a": 0, "b": 0, "c": 0}, now=0.0)
        rng = random.Random(3)
        counts = Counter(s.pick(rng) for _ in range(900))
        assert set(counts) == {"a", "b", "c"}
        assert all(count > 200 for count in counts.values())

    def test_matches_balancer_pick_shape(self):
        # The proxy is handed the balancer that owns the split.
        balancer = PeriodicSplitBalancer(
            WallClock(), "api", ["a", "b", "c"],
            PromMetricsSource(TimeSeriesStore()), L3Controller,
            propagation_delay_s=0.0)
        balancer.split.set_weights({"a": 0, "b": 4, "c": 0}, now=0.0)
        assert balancer.pick(random.Random(1), 5.0) == "b"
