"""End-to-end live harness smoke tests (real sockets, short wall-clock runs).

The acceptance behaviour of the live testbed: with one backend's latency
degraded 5x, the real L3 control loop — scraping real HTTP /metrics
pages into the unmodified PromMetricsSource/L3Controller — shifts weight
away from the degraded backend, while round-robin keeps spraying traffic
uniformly. Runs use a fast control cadence so a few wall-clock seconds
cover many reconcile cycles.
"""

import asyncio
import socket
from dataclasses import replace

import pytest

from repro.bench.coordinator import BenchmarkResult
from repro.core.controller import L3Controller
from repro.errors import ConfigError, MeshError
from repro.live.clock import PreciseEpollSelector
from repro.live.harness import (
    LiveConfig,
    LiveHarness,
    live_l3_config,
    run_live,
    weight_points,
)
from repro.live.server import MetricsServer
from repro.mesh.request import RequestRecord
from repro.workloads.profiles import BackendProfile, constant_series
from repro.workloads.scenarios import Scenario

PORT_BASE = 19580
UNIFORM_SHARE = 100.0 / 3.0


def latency_profile(median_s):
    return BackendProfile(
        median_latency_s=constant_series(median_s),
        p99_latency_s=constant_series(median_s * 3.0),
        failure_prob=constant_series(0.0))


def degraded_scenario(base_s=0.040, factor=5.0):
    """Three clusters; cluster-2's latency is ``factor`` times the others."""
    profiles = {
        "cluster-1": latency_profile(base_s),
        "cluster-2": latency_profile(base_s * factor),
        "cluster-3": latency_profile(base_s),
    }
    return Scenario("degraded", 120.0, profiles, constant_series(60.0),
                    "one 5x-degraded backend")


def fast_config(algorithm, port_base, duration_s, **overrides):
    return LiveConfig(
        algorithm=algorithm, duration_s=duration_s, port_base=port_base,
        rps=60.0, scrape_interval_s=0.5, reconcile_interval_s=0.5,
        drain_s=3.0, seed=1, **overrides)


def port_is_free(port):
    with socket.socket() as probe:
        try:
            probe.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


class TestLiveSmoke:
    def test_l3_shifts_weight_away_from_degraded_backend(self):
        # The acceptance budget is 60 s; 20 s leaves headroom for a
        # loaded CI host (standalone the shift lands well inside 10 s).
        harness = LiveHarness(
            degraded_scenario(),
            fast_config("l3", PORT_BASE, duration_s=20.0))
        result = harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        assert result.request_count > 100
        assert result.controller_weights
        # The trajectory shows the controller actually drove the split.
        assert len(harness.weight_history) >= 5
        # >= 20 weight points moved off the degraded backend (from the
        # uniform 33.3 it started at) at some point of the run. The low
        # point of the trajectory, not its last sample: where a
        # wall-clock run happens to stop is scheduling luck.
        shares = [weight_points(weights)["api/cluster-2"]
                  for _, weights in harness.weight_history]
        assert min(shares) <= UNIFORM_SHARE - 20.0, shares

    def test_round_robin_does_not_shift(self):
        harness = LiveHarness(
            degraded_scenario(),
            fast_config("round-robin", PORT_BASE + 16, duration_s=4.0))
        result = harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        # No controller: no weights, no trajectory.
        assert result.controller_weights == {}
        assert harness.weight_history == []
        # Traffic stays uniform regardless of the degraded backend.
        counts = {}
        for record in result.records:
            counts[record.backend] = counts.get(record.backend, 0) + 1
        shares = {name: 100.0 * count / result.request_count
                  for name, count in counts.items()}
        assert shares["api/cluster-2"] > UNIFORM_SHARE - 5.0, shares

    def test_c3_produces_weights_and_clean_shutdown(self):
        result, harness = run_live(
            degraded_scenario(), config=fast_config(
                "c3", PORT_BASE + 32, duration_s=4.0))
        assert harness.clean_shutdown, harness.leaked_tasks
        assert set(result.controller_weights) == {
            "api/cluster-1", "api/cluster-2", "api/cluster-3"}

    def test_ha_mode_has_exactly_one_active_leader(self):
        config = replace(fast_config("l3", PORT_BASE + 48, duration_s=4.0),
                         ha_replicas=2)
        harness = LiveHarness(degraded_scenario(), config)
        result = harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        assert result.controller_weights
        active = [c for c in harness.parts.controllers
                  if c.reconcile_count > 0]
        assert len(active) == 1
        assert len(harness.parts.lease.transitions) == 1

    def test_result_is_a_benchmark_result(self):
        result, harness = run_live(
            degraded_scenario(), config=fast_config(
                "l3", PORT_BASE + 64, duration_s=3.0))
        assert isinstance(result, BenchmarkResult)
        assert result.scenario == "degraded"
        assert result.algorithm == "l3"
        assert result.success_rate == 1.0
        assert all(record.latency_s >= 0.0 for record in result.records)
        # Ports were allocated for 3 replicas plus the metrics endpoint.
        assert len(harness.ports) == 4

    @pytest.mark.parametrize("ha_replicas,port_base", [
        (1, PORT_BASE + 80), (2, PORT_BASE + 88)], ids=["plain", "ha"])
    def test_weight_history_has_one_entry_per_applied_reconcile(
            self, ha_replicas, port_base):
        harness = LiveHarness(degraded_scenario(), fast_config(
            "l3", port_base, duration_s=3.0, ha_replicas=ha_replicas))
        harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        reconciles = sum(c.reconcile_count
                         for c in harness.parts.controllers)
        assert reconciles >= 2
        assert len(harness.weight_history) == reconciles
        assert harness.parts.balancer.split.update_count == reconciles
        times = [when for when, _weights in harness.weight_history]
        assert times == sorted(times)
        assert harness.weight_history[-1][1] == harness.final_weights()


class TestLiveFailures:
    """A run that cannot go on still tears down, then says why."""

    def test_raising_reconcile_fails_the_run_after_a_clean_teardown(
            self, monkeypatch):
        calls = []
        reconcile = L3Controller.reconcile

        def flaky(self, now):
            calls.append(now)
            if len(calls) == 2:
                raise RuntimeError("reconcile blew up")
            return reconcile(self, now)

        monkeypatch.setattr(L3Controller, "reconcile", flaky)
        harness = LiveHarness(degraded_scenario(), fast_config(
            "l3", PORT_BASE + 96, duration_s=2.0))
        with pytest.raises(RuntimeError, match="reconcile blew up"):
            harness.run()
        # The loop died with its tick: one applied update, no more calls.
        assert len(calls) == 2
        assert len(harness.weight_history) == 1
        assert harness.clean_shutdown, harness.leaked_tasks
        assert all(port_is_free(port) for port in harness.ports)

    @pytest.mark.parametrize("name,value", [
        ("max_retries", -1), ("request_timeout_s", -1.0)])
    def test_invalid_knob_is_a_config_error_with_no_port_bound(
            self, name, value):
        port_base = PORT_BASE + 104
        with pytest.raises(ConfigError):
            LiveHarness(degraded_scenario(), fast_config(
                "l3", port_base, duration_s=1.0, **{name: value})).run()
        assert port_is_free(port_base)

    def test_boot_failure_after_the_first_bind_releases_the_ports(
            self, monkeypatch):
        async def refuse(self, port):
            raise MeshError("no port for the metrics endpoint")

        monkeypatch.setattr(MetricsServer, "start", refuse)
        harness = LiveHarness(degraded_scenario(), fast_config(
            "l3", PORT_BASE + 112, duration_s=1.0))
        with pytest.raises(MeshError):
            harness.run()
        assert len(harness.ports) == 3  # the replicas did bind
        assert all(port_is_free(port) for port in harness.ports)
        assert harness.clean_shutdown, harness.leaked_tasks


class TestLiveRunLoop:
    def test_run_waits_on_the_precise_loop(self, monkeypatch):
        async def selector_class(self):
            return type(asyncio.get_running_loop()._selector)

        monkeypatch.setattr(LiveHarness, "run_async", selector_class)
        assert LiveHarness(degraded_scenario()).run() is PreciseEpollSelector

    def test_send_lag_is_start_minus_intended_start_in_ms(self):
        harness = LiveHarness(degraded_scenario())
        assert harness.send_lag_ms == {}
        harness.records = [
            RequestRecord(i, "api", "cluster-1", "api/cluster-1",
                          intended_start_s=1.0, start_s=1.0 + lag,
                          end_s=2.0, success=True)
            for i, lag in enumerate((0.001, 0.002, 0.003))]
        lag = harness.send_lag_ms
        assert set(lag) == {"p50", "p99"}
        assert lag["p50"] == pytest.approx(2.0)
        assert lag["p99"] == pytest.approx(2.98)


class TestLiveConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            LiveConfig(algorithm="p2c")

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError):
            LiveConfig(duration_s=0.0)

    def test_port_base_range(self):
        with pytest.raises(ConfigError):
            LiveConfig(port_base=65530)

    def test_ha_replicas_minimum(self):
        with pytest.raises(ConfigError):
            LiveConfig(ha_replicas=0)

    def test_live_l3_config_scales_the_whole_loop(self):
        config = live_l3_config(1.0)
        assert config.reconcile_interval_s == 1.0
        assert config.metrics_window_s == 2.0
        assert config.latency_half_life_s == 1.0
        assert config.staleness_s == 2.0
        # Non-temporal tunables keep the paper's values.
        assert config.percentile == 0.99
        assert config.default_latency_s == 5.0

    def test_live_l3_config_floors_window_at_three_scrape_intervals(self):
        # rate() needs two samples in the window and a live round can
        # land up to one interval late, so 2x the scrape interval (the
        # simulator's minimum) flaps between 1 and 2 visible samples.
        config = live_l3_config(0.5, scrape_interval_s=0.5)
        assert config.metrics_window_s == pytest.approx(1.5)
        # A window already wider than the floor is left alone.
        wide = live_l3_config(5.0, scrape_interval_s=0.5)
        assert wide.metrics_window_s == pytest.approx(10.0)

    @pytest.mark.parametrize("name,value", [
        ("max_retries", -1), ("retry_backoff_s", -0.1),
        ("request_timeout_s", 0.0), ("replica_capacity", 0),
        ("rps", -5.0), ("rps", 0.0)])
    def test_invalid_knobs_rejected(self, name, value):
        with pytest.raises(ConfigError):
            LiveConfig(**{name: value})

    def test_optional_knobs_accept_none(self):
        config = LiveConfig(rps=None, request_timeout_s=None)
        assert config.rps is None and config.request_timeout_s is None
