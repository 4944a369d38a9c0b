"""Tests for lease-based leader election (paper §4 HA mode)."""

import pytest

from repro.core.leader import ControllerReplica, LeaseLock
from repro.errors import ConfigError
from repro.live.clock import FakeClock


# The cadence the tests' loops step their replicas at.
STEP_INTERVAL_S = 5.0


class CountingController:
    paused = False

    def __init__(self):
        self.reconciles = []

    def reconcile(self, now):
        self.reconciles.append(now)


class TestLeaseLock:
    def test_ttl_validation(self):
        with pytest.raises(ConfigError):
            LeaseLock(ttl_s=0.0)

    def test_first_candidate_acquires(self):
        lease = LeaseLock(ttl_s=10.0)
        assert lease.try_acquire("a", now=0.0)
        assert lease.holder(5.0) == "a"

    def test_second_candidate_blocked_while_held(self):
        lease = LeaseLock(ttl_s=10.0)
        lease.try_acquire("a", now=0.0)
        assert not lease.try_acquire("b", now=5.0)
        assert lease.holder(5.0) == "a"

    def test_holder_renews(self):
        lease = LeaseLock(ttl_s=10.0)
        lease.try_acquire("a", now=0.0)
        assert lease.try_acquire("a", now=8.0)  # renew
        assert lease.holder(17.0) == "a"        # ttl from renewal

    def test_expiry_allows_takeover(self):
        lease = LeaseLock(ttl_s=10.0)
        lease.try_acquire("a", now=0.0)
        assert lease.holder(10.0) is None  # expired exactly at ttl
        assert lease.try_acquire("b", now=10.0)
        assert lease.holder(12.0) == "b"

    def test_release_lets_others_in_immediately(self):
        lease = LeaseLock(ttl_s=100.0)
        lease.try_acquire("a", now=0.0)
        lease.release("a", now=1.0)
        assert lease.try_acquire("b", now=1.0)

    def test_release_by_non_holder_is_noop(self):
        lease = LeaseLock(ttl_s=100.0)
        lease.try_acquire("a", now=0.0)
        lease.release("b", now=1.0)
        assert lease.holder(2.0) == "a"

    def test_transitions_recorded(self):
        lease = LeaseLock(ttl_s=10.0)
        lease.try_acquire("a", now=0.0)
        lease.try_acquire("a", now=5.0)   # renewal: no transition
        lease.try_acquire("b", now=20.0)  # takeover
        assert lease.transitions == [(0.0, "a"), (20.0, "b")]

    def test_same_holder_reacquiring_an_expired_lease_is_no_transition(self):
        # Two replicas stepping every 1.2 s over a 1 s TTL: the leader's
        # lease lapses between its own steps, and it takes it straight
        # back each time — leadership never changes hands.
        lease = LeaseLock(ttl_s=1.0)
        for step in range(4):
            now = 1.2 * step
            assert lease.try_acquire("replica-0", now=now)
            assert not lease.try_acquire("replica-1", now=now)
        assert lease.transitions == [(0.0, "replica-0")]
        # A real change of holder still counts.
        assert lease.try_acquire("replica-1", now=10.0)
        assert lease.transitions == [(0.0, "replica-0"), (10.0, "replica-1")]


class TestWallClockLease:
    """The live testbed's HA mode: the lease reads an attached clock."""

    def test_explicit_now_required_without_clock(self):
        lease = LeaseLock(ttl_s=10.0)
        with pytest.raises(ConfigError):
            lease.holder()

    def test_clock_supplies_time_when_now_omitted(self):
        clock = FakeClock()
        lease = LeaseLock(ttl_s=10.0, clock=clock)
        assert lease.try_acquire("a")
        clock.advance(5.0)
        assert lease.holder() == "a"
        clock.advance(5.0)  # expired exactly at ttl
        assert lease.holder() is None

    def test_explicit_now_still_wins_over_the_clock(self):
        clock = FakeClock(100.0)
        lease = LeaseLock(ttl_s=10.0, clock=clock)
        lease.try_acquire("a", now=0.0)
        assert lease.holder(5.0) == "a"

    def test_takeover_after_leader_goes_silent(self):
        """Two controller replicas on one wall-clock lease: when the
        leader stops renewing, the standby takes over within the TTL."""
        clock = FakeClock()
        lease = LeaseLock(ttl_s=3.0, clock=clock)
        controllers = [CountingController(), CountingController()]
        replicas = [
            ControllerReplica(f"replica-{i}", controller, lease)
            for i, controller in enumerate(controllers)
        ]

        # Both step once per second; replica-0 wins the first election.
        for _ in range(5):
            stepped = [replica.step() for replica in replicas]
            assert stepped == [True, False]
            clock.advance(1.0)
        assert controllers[0].reconciles and not controllers[1].reconciles

        # The leader dies (stops renewing); the standby keeps stepping
        # and acquires the lease once the TTL runs out.
        replicas[0].crash()
        takeover_at = None
        for _ in range(6):
            if replicas[1].step():
                takeover_at = clock()
                break
            clock.advance(1.0)
        assert takeover_at is not None
        assert takeover_at <= 5.0 + lease.ttl_s
        assert controllers[1].reconciles == [takeover_at]
        assert [name for _t, name in lease.transitions] == [
            "replica-0", "replica-1"]

    def test_release_then_immediate_takeover_on_wall_clock(self):
        clock = FakeClock()
        lease = LeaseLock(ttl_s=100.0, clock=clock)
        lease.try_acquire("a")
        lease.release("a")
        assert lease.try_acquire("b")
        assert lease.holder() == "b"


class TestControllerReplica:
    def test_only_leader_reconciles(self, sim):
        lease = LeaseLock(ttl_s=12.0)
        controllers = [CountingController() for _ in range(3)]
        replicas = [
            ControllerReplica(f"replica-{i}", controller, lease)
            for i, controller in enumerate(controllers)
        ]
        loops = [sim.every(STEP_INTERVAL_S, replica.step)
                 for replica in replicas]
        sim.run(until=60.0)
        for loop in loops:
            loop.cancel()
        sim.run()
        active = [c for c in controllers if c.reconciles]
        assert len(active) == 1
        assert len(active[0].reconciles) == 12  # every 5 s for 60 s

    def test_failover_after_leader_crash(self, sim):
        lease = LeaseLock(ttl_s=12.0)
        controllers = [CountingController(), CountingController()]
        replicas = [
            ControllerReplica(f"replica-{i}", controller, lease)
            for i, controller in enumerate(controllers)
        ]
        loops = [sim.every(STEP_INTERVAL_S, replica.step)
                 for replica in replicas]
        # replica-0 wins the first election (tie broken by start order).
        sim.run(until=20.0)
        leader_index = 0 if replicas[0].is_leader(20.0) else 1
        standby_index = 1 - leader_index
        replicas[leader_index].crash()
        sim.run(until=60.0)
        for loop in loops:
            loop.cancel()
        sim.run()
        # The standby took over within the lease TTL and kept reconciling.
        assert controllers[standby_index].reconciles
        takeover = controllers[standby_index].reconciles[0]
        assert takeover <= 20.0 + lease.ttl_s + 5.0
        assert len(lease.transitions) == 2

    def test_crashed_replica_can_recover_and_rejoin(self, sim):
        lease = LeaseLock(ttl_s=10.0)
        controller = CountingController()
        replica = ControllerReplica("solo", controller, lease)
        loop = sim.every(STEP_INTERVAL_S, replica.step)
        sim.run(until=12.0)
        replica.crash()
        sim.run(until=30.0)
        count_at_crash = len(controller.reconciles)
        replica.recover()
        sim.run(until=50.0)
        loop.cancel()
        sim.run()
        assert len(controller.reconciles) > count_at_crash

    def test_reconcile_gap_bounded_by_ttl_plus_interval(self, sim):
        lease = LeaseLock(ttl_s=12.0)
        controllers = [CountingController(), CountingController()]
        replicas = [
            ControllerReplica(f"replica-{i}", controller, lease)
            for i, controller in enumerate(controllers)
        ]
        loops = [sim.every(STEP_INTERVAL_S, replica.step)
                 for replica in replicas]
        sim.run(until=20.0)
        leader_index = 0 if replicas[0].is_leader(20.0) else 1
        replicas[leader_index].crash()
        sim.run(until=80.0)
        for loop in loops:
            loop.cancel()
        sim.run()
        all_reconciles = sorted(
            controllers[0].reconciles + controllers[1].reconciles)
        gaps = [b - a for a, b in zip(all_reconciles, all_reconciles[1:])]
        assert max(gaps) <= lease.ttl_s + 5.0 + 1e-9
