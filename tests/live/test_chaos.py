"""Tests for live chaos: the shaper, the injector, and real-socket runs.

Unit tests drive :class:`~repro.live.chaos.LiveFaultInjector` with a
FakeClock and an injected sleep (no sockets, no waiting); the smoke
class at the bottom runs the full harness against real localhost sockets
with faults landing mid-run — the acceptance behaviour of the chaos
harness (reroute around a blackholed cluster, restore after the revert,
fail the leader over within one lease TTL, exit clean).
"""

import asyncio

import pytest

from repro.errors import ConfigError, FaultSpecError, MeshError
from repro.faults import (
    ClusterOutage,
    ControllerCrash,
    ControllerPause,
    LinkDegradation,
    LinkPartition,
    ReplicaCrash,
    ReplicaRestart,
    ScrapeOutage,
)
from repro.live.chaos import LiveFaultInjector, LiveLinkShaper
from repro.live.clock import FakeClock
from repro.live.harness import LiveConfig, LiveHarness, weight_points

from tests.live.test_harness import (
    UNIFORM_SHARE,
    degraded_scenario,
    fast_config,
    latency_profile,
)
from repro.workloads.profiles import constant_series
from repro.workloads.scenarios import Scenario

PORT_BASE = 19720


class FakeServer:
    """Records the chaos calls a ReplicaServer would receive."""

    def __init__(self):
        self.events = []
        self.metrics_fail_mode = None

    async def crash(self, mode):
        self.events.append(("crash", mode))

    async def restart(self):
        self.events.append(("restart",))

    def fail_metrics(self, mode="error"):
        self.metrics_fail_mode = mode

    def restore_metrics(self):
        self.metrics_fail_mode = None


class FakeController:
    def __init__(self):
        self.paused = False

    def pause(self):
        self.paused = True

    def resume(self):
        self.paused = False


class FakeReplica:
    def __init__(self):
        self.crashed = False

    def crash(self):
        self.crashed = True

    def recover(self):
        self.crashed = False


def build_injector(clusters=("cluster-1", "cluster-2"), **kwargs):
    clock = FakeClock()

    async def sleep(delay):
        clock.advance(delay)

    servers = {f"api/{cluster}": FakeServer() for cluster in clusters}
    injector = LiveFaultInjector(
        "api", servers, LiveLinkShaper(), clock, sleep=sleep, **kwargs)
    return injector, servers, clock


def run_schedule(injector, faults, offset_s=0.0):
    injector.schedule_all(faults, offset_s=offset_s)
    asyncio.run(injector.run())


class TestLiveLinkShaper:
    def test_degradation_adds_delay_symmetrically(self):
        shaper = LiveLinkShaper(base_delay_s=0.010)
        shaper.degrade("a", "b", multiplier=3.0, extra_delay_s=0.005)
        assert shaper.extra_delay_s("a", "b") == pytest.approx(0.025)
        assert shaper.extra_delay_s("b", "a") == pytest.approx(0.025)
        assert shaper.extra_delay_s("a", "c") == 0.0
        shaper.heal_degradation("a", "b")
        assert shaper.extra_delay_s("a", "b") == 0.0

    def test_asymmetric_faults_shape_one_direction(self):
        shaper = LiveLinkShaper()
        shaper.partition("a", "b", symmetric=False)
        assert shaper.partitioned("a", "b")
        assert not shaper.partitioned("b", "a")

    def test_partitioned_traversal_hangs_until_release_then_raises(self):
        shaper = LiveLinkShaper()
        shaper.partition("a", "b")

        async def scenario():
            task = asyncio.ensure_future(shaper.traverse("a", "b"))
            await asyncio.sleep(0)
            assert not task.done()  # hanging, like a real partition
            shaper.release()
            with pytest.raises(MeshError):
                await task

        asyncio.run(scenario())
        assert shaper.dropped == 1

    def test_healed_link_passes(self):
        shaper = LiveLinkShaper()
        shaper.partition("a", "b")
        shaper.heal_partition("a", "b")
        asyncio.run(shaper.traverse("a", "b"))  # returns, nothing raised

    def test_base_delay_validation(self):
        with pytest.raises(ConfigError):
            LiveLinkShaper(base_delay_s=-1.0)


class TestLiveFaultInjector:
    def test_cluster_outage_crashes_and_restarts_the_server(self):
        injector, servers, _clock = build_injector()
        run_schedule(injector, [
            ClusterOutage("cluster-2", at_s=5.0, duration_s=5.0,
                          mode="blackhole")])
        assert servers["api/cluster-2"].events == [
            ("crash", "blackhole"), ("restart",)]
        assert servers["api/cluster-1"].events == []
        times = [t for t, _desc in injector.log]
        assert times == pytest.approx([5.0, 10.0])
        assert injector.errors == []

    def test_replica_crash_hits_the_one_live_replica(self):
        injector, servers, _clock = build_injector()
        run_schedule(injector, [
            ReplicaCrash("api", "cluster-1", at_s=1.0, duration_s=2.0),
            ReplicaRestart("api", "cluster-2", at_s=0.5)])
        assert servers["api/cluster-1"].events == [
            ("crash", "fail_fast"), ("restart",)]
        assert servers["api/cluster-2"].events == [("restart",)]

    def test_scrape_outage_breaks_every_metrics_page(self):
        metrics_server = FakeServer()
        clock = FakeClock()

        async def sleep(delay):
            # Mid-outage the pages must already be broken.
            if clock.now < 3.0 <= clock.now + delay:
                clock.now = 3.5
                assert all(s.metrics_fail_mode == "stall"
                           for s in [server_a, server_b, metrics_server])
            clock.advance(delay)

        server_a, server_b = FakeServer(), FakeServer()
        injector = LiveFaultInjector(
            "api", {"api/cluster-1": server_a, "api/cluster-2": server_b},
            LiveLinkShaper(), clock, metrics_server=metrics_server,
            sleep=sleep)
        run_schedule(injector, [
            ScrapeOutage(at_s=2.0, duration_s=2.0, mode="stall")])
        assert metrics_server.metrics_fail_mode is None  # restored
        assert server_a.metrics_fail_mode is None

    def test_link_faults_drive_the_shaper(self):
        injector, _servers, _clock = build_injector()
        shaper = injector.mesh.network
        seen = []

        async def probe_sleep(delay):
            seen.append((injector.clock() + delay,
                         shaper.partitioned("cluster-1", "cluster-2"),
                         shaper.extra_delay_s("cluster-1", "cluster-2")))
            injector.clock.advance(delay)

        injector._sleep = probe_sleep
        run_schedule(injector, [
            LinkPartition("cluster-1", "cluster-2", at_s=1.0,
                          duration_s=1.0),
            LinkDegradation("cluster-1", "cluster-2", at_s=4.0,
                            duration_s=1.0, extra_delay_s=0.050)])
        assert not shaper.partitioned("cluster-1", "cluster-2")
        assert shaper.extra_delay_s("cluster-1", "cluster-2") == 0.0
        # The sleep *into* each revert saw the fault active.
        assert (2.0, True, 0.0) in seen
        assert (5.0, False, 0.050) in seen

    def test_controller_faults_reach_controllers_and_replicas(self):
        controller = FakeController()
        replica = FakeReplica()
        injector, _servers, _clock = build_injector(
            controllers=[controller], replicas=[replica])

        async def scenario():
            injector.schedule(ControllerPause(at_s=0.0, duration_s=1.0))
            injector.schedule(ControllerCrash(at_s=0.0, duration_s=2.0))
            await injector.run()

        asyncio.run(scenario())
        assert not controller.paused  # paused at 0, resumed at 1
        assert not replica.crashed    # crashed at 0, recovered at 2
        assert len(injector.log) == 4

    def test_unrunnable_fault_is_logged_not_fatal(self):
        injector, servers, _clock = build_injector()  # no replicas
        run_schedule(injector, [
            ControllerCrash(at_s=1.0, duration_s=1.0),
            ClusterOutage("cluster-1", at_s=3.0, duration_s=1.0)])
        # Both the apply and the revert failed, loudly...
        assert len(injector.errors) == 2
        assert "needs controller replicas" in injector.errors[0]
        # ...and the rest of the schedule still ran.
        assert servers["api/cluster-1"].events == [
            ("crash", "fail_fast"), ("restart",)]

    def test_revert_runs_before_an_apply_due_at_the_same_time(self):
        injector, servers, _clock = build_injector()
        run_schedule(injector, [
            ClusterOutage("cluster-1", at_s=5.0, duration_s=5.0),
            ClusterOutage("cluster-1", at_s=10.0, duration_s=5.0,
                          mode="blackhole")])
        assert servers["api/cluster-1"].events == [
            ("crash", "fail_fast"), ("restart",),
            ("crash", "blackhole"), ("restart",)]

    def test_facade_rejects_unknown_service_and_cluster(self):
        injector, _servers, _clock = build_injector()
        with pytest.raises(ConfigError):
            injector.mesh.deployment("db")
        with pytest.raises(ConfigError):
            injector.mesh.deployment("api").backend_in("cluster-9")

    def test_offset_shifts_the_whole_schedule(self):
        injector, _servers, _clock = build_injector()
        run_schedule(injector,
                     [ClusterOutage("cluster-1", at_s=1.0, duration_s=1.0)],
                     offset_s=10.0)
        assert [t for t, _desc in injector.log] == pytest.approx(
            [11.0, 12.0])


def chaos_config(algorithm, port_base, duration_s, faults, **overrides):
    config = fast_config(algorithm, port_base, duration_s)
    config.faults = faults
    config.request_timeout_s = 0.5
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


def uniform_scenario(base_s=0.040):
    profiles = {f"cluster-{i}": latency_profile(base_s) for i in (1, 2, 3)}
    return Scenario("uniform", 120.0, profiles, constant_series(60.0),
                    "three equal clusters")


class TestChaosValidation:
    """Boot-time rejection: a bad schedule must not bind a single port."""

    def test_unknown_cluster_rejected_before_boot(self):
        config = chaos_config("l3", PORT_BASE, 5.0,
                              "cluster-outage@1+2:cluster=cluster-9")
        with pytest.raises(FaultSpecError, match="unknown cluster"):
            LiveHarness(uniform_scenario(), config).run()

    def test_controller_crash_requires_ha(self):
        config = chaos_config("l3", PORT_BASE, 5.0,
                              "controller-crash@1+2:replica=0")
        with pytest.raises(FaultSpecError, match="HA mode"):
            LiveHarness(uniform_scenario(), config).run()

    def test_controller_faults_rejected_for_round_robin(self):
        config = chaos_config("round-robin", PORT_BASE, 5.0,
                              "controller-pause@1+2")
        with pytest.raises(FaultSpecError, match="round-robin"):
            LiveHarness(uniform_scenario(), config).run()

    def test_replica_index_beyond_the_single_live_server(self):
        config = chaos_config(
            "l3", PORT_BASE, 5.0,
            "replica-crash@1+2:service=api:cluster=cluster-1:index=3")
        with pytest.raises(FaultSpecError, match="single server"):
            LiveHarness(uniform_scenario(), config).run()

    def test_parsed_fault_list_accepted_too(self):
        config = chaos_config(
            "l3", PORT_BASE, 5.0,
            [ClusterOutage("cluster-9", at_s=1.0, duration_s=2.0)])
        with pytest.raises(FaultSpecError, match="unknown cluster"):
            LiveHarness(uniform_scenario(), config).run()


class TestChaosSmoke:
    """Real sockets, real faults, short wall-clock runs."""

    def test_l3_reroutes_around_blackholed_cluster_and_restores(self):
        # Uniform clusters; cluster-2 blackholes mid-run and comes back.
        # L3 must shift >= 20 points away during the outage and bring
        # the share back up after the revert.
        duration, t0, t1 = 18.0, 4.0, 9.0
        config = chaos_config(
            "l3", PORT_BASE + 16, duration,
            f"cluster-outage@{t0}+{t1 - t0}"
            f":cluster=cluster-2:mode=blackhole")
        harness = LiveHarness(uniform_scenario(), config)
        result = harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        assert harness.chaos_errors == []
        assert [desc.split(" ", 1)[0] for _t, desc in harness.fault_log] \
            == ["apply", "revert"]

        shares = [(t, weight_points(w)["api/cluster-2"])
                  for t, w in harness.weight_history]
        during = [s for t, s in shares if t >= t0]
        assert during and min(during) <= UNIFORM_SHARE - 20.0, shares
        # After the revert the controller walks the share back up.
        revert_t = harness.fault_log[1][0]
        after = [s for t, s in shares if t >= revert_t]
        assert after and max(after) >= UNIFORM_SHARE - 15.0, shares
        # The outage really happened on the wire.
        outage_failures = [r for r in result.records
                           if not r.success
                           and r.backend == "api/cluster-2"]
        assert outage_failures

    def test_leader_crash_fails_over_within_one_ttl(self):
        config = chaos_config(
            "l3", PORT_BASE + 32, 8.0, "controller-crash@2:replica=0",
            ha_replicas=2, lease_ttl_s=1.5)
        harness = LiveHarness(uniform_scenario(), config)
        harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        assert harness.chaos_errors == []
        transitions = harness.lease_transitions
        assert len(transitions) == 2, transitions
        crash_t = harness.fault_log[0][0]
        takeover_t, successor = transitions[1]
        assert successor == "replica-1"
        # Takeover within one TTL, plus a reconcile tick of slack for a
        # loaded host (the contract is TTL-bounded, not instantaneous).
        assert takeover_t - crash_t <= config.lease_ttl_s \
            + 2 * config.reconcile_interval_s + 0.5, transitions

    def test_replica_crash_recovers_and_exits_clean(self):
        config = chaos_config(
            "l3", PORT_BASE + 48, 8.0,
            "replica-crash@2+3:service=api:cluster=cluster-2"
            ":mode=fail_fast ; scrape-outage@3+2")
        harness = LiveHarness(degraded_scenario(), config)
        result = harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        assert harness.chaos_errors == []
        server = harness.parts.servers["api/cluster-2"]
        assert server.crash_count == 1
        assert server.restart_count == 1
        # The crashed listener re-bound on the same port and served again.
        served_after = [r for r in result.records
                        if r.backend == "api/cluster-2" and r.success
                        and r.start_s > 5.0]
        assert served_after
        # The scraper felt the outage and survived it.
        assert harness.parts.scraper.failed_scrapes > 0
        assert result.request_count > 50

    def test_open_faults_at_teardown_leak_no_task_socket_or_fd(self):
        # A fail-fast crash, a blackholed replica and a partitioned link
        # are all still open when the run ends: dead pooled connections,
        # parked handlers and traversals hung on the partition must all
        # be gone after shutdown.
        import os

        fds_before = len(os.listdir("/proc/self/fd"))
        config = chaos_config(
            "l3", PORT_BASE + 64, 4.0,
            "replica-crash@1.5:service=api:cluster=cluster-2:mode=fail_fast ; "
            "replica-crash@2:service=api:cluster=cluster-3:mode=blackhole ; "
            "link-partition@2.5:src=cluster-1:dst=cluster-1:symmetric=false")
        harness = LiveHarness(uniform_scenario(), config)
        result = harness.run()

        assert harness.clean_shutdown, harness.leaked_tasks
        assert harness.chaos_errors == []
        assert [desc.split(" ", 1)[0] for _t, desc in harness.fault_log] \
            == ["apply"] * 3
        # The pools were warm before the faults and are empty now.
        clients = harness.http_clients()
        assert len(clients) == 2
        assert all(c.requests_sent > c.connections_opened > 0
                   for c in clients)
        assert [c.idle_connections for c in clients] == [0, 0]
        assert result.request_count > 50
        assert any(not r.success for r in result.records)
        assert len(os.listdir("/proc/self/fd")) == fds_before
