"""Tests for the HPA-style autoscaler extension."""

import pytest

from repro.autoscale.hpa import Autoscaler, AutoscalerConfig
from repro.errors import ConfigError
from repro.workloads.profiles import constant_backend_profile
from tests.mesh._drive import backend_of, local_proxy, start


@pytest.fixture
def proxy(sim, rng_registry):
    # Deterministic 1 s service time so occupancy is controllable.
    return local_proxy(sim, rng_registry,
                       constant_backend_profile(1.0, 1.0),
                       replicas=2, capacity=4)


@pytest.fixture
def backend(proxy):
    return backend_of(proxy)


def flood(sim, proxy, count):
    for _ in range(count):
        start(sim, proxy)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(target_utilization=0.0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=5, max_replicas=2)
        with pytest.raises(ConfigError):
            AutoscalerConfig(interval_s=0.0)


class TestScaling:
    def test_desired_replicas_tracks_utilization(self, sim, proxy, backend):
        autoscaler = Autoscaler(backend, AutoscalerConfig(
            target_utilization=0.5, max_replicas=10))
        # 2 replicas x capacity 4 = 8 slots; flood 8 -> utilization 1.0
        # -> desired = ceil(2 * 1.0 / 0.5) = 4.
        flood(sim, proxy, 8)
        sim.run(until=0.1)
        assert autoscaler.desired_replicas() == 4

    def test_scale_up_after_delay(self, sim, proxy, backend):
        config = AutoscalerConfig(
            target_utilization=0.5, interval_s=5.0, scale_up_delay_s=10.0,
            max_replicas=10)
        autoscaler = Autoscaler(backend, config)
        loop = sim.spawn(autoscaler.run(sim))

        def keep_loaded(sim):
            while sim.now < 30.0:
                flood(sim, proxy, 8)
                yield sim.timeout(1.0)

        sim.spawn(keep_loaded(sim))
        sim.run(until=5.5)
        assert autoscaler.replica_count == 2  # decision made, pods starting
        sim.run(until=16.0)
        assert autoscaler.replica_count > 2   # pods arrived after delay
        loop.interrupt()
        sim.run()

    def test_never_exceeds_max(self, sim, proxy, backend):
        config = AutoscalerConfig(
            target_utilization=0.1, interval_s=2.0, scale_up_delay_s=0.5,
            max_replicas=3)
        autoscaler = Autoscaler(backend, config)
        loop = sim.spawn(autoscaler.run(sim))

        def keep_loaded(sim):
            while sim.now < 20.0:
                flood(sim, proxy, 20)
                yield sim.timeout(0.5)

        sim.spawn(keep_loaded(sim))
        sim.run(until=20.0)
        assert autoscaler.replica_count <= 3
        loop.interrupt()
        sim.run()

    def test_scale_down_respects_cooldown_and_min(self, sim, proxy, backend):
        config = AutoscalerConfig(
            target_utilization=0.5, interval_s=5.0,
            scale_down_cooldown_s=30.0, min_replicas=1)
        autoscaler = Autoscaler(backend, config)
        loop = sim.spawn(autoscaler.run(sim))
        # No load at all: scale down toward min, one per cooldown window.
        sim.run(until=40.0)
        down_events = [t for t, delta in autoscaler.scale_events
                       if delta == -1]
        assert len(down_events) == 1  # cooldown throttles to one in 40 s
        sim.run(until=200.0)
        assert autoscaler.replica_count == 1
        loop.interrupt()
        sim.run()

    def test_scale_events_recorded(self, sim, proxy, backend):
        config = AutoscalerConfig(
            target_utilization=0.5, interval_s=5.0, scale_up_delay_s=1.0)
        autoscaler = Autoscaler(backend, config)
        flood(sim, proxy, 8)
        sim.run(until=0.1)  # let the flood occupy the replicas
        autoscaler.step(sim)
        sim.run(until=2.0)
        assert autoscaler.scale_events
        assert all(delta == +1 for _t, delta in autoscaler.scale_events)
