"""End-to-end fault recovery (the robustness acceptance bar).

One deterministic fixed-seed run per property: cluster-2 blackholes on a
steady scenario while the client has a 1-second deadline, and

* no request hangs the load generator — failures land within the deadline,
* L3 sheds >= 90 % of the dead cluster's traffic within 3 reconcile
  intervals,
* traffic rebalances onto the cluster after it restarts,
* a raising metrics source never kills the reconcile loop.
"""

import pytest

from repro.bench.coordinator import ScenarioBenchConfig, run_scenario_benchmark
from repro.bench.fault_matrix import FAULT_CLUSTER, steady_scenario
from repro.bench.study import faulted_share, recovery_intervals
from repro.faults import ClusterOutage, ScrapeOutage

SEED = 1
DURATION_S = 120.0
# The outage: cluster-2 is dead silent from t=40 to t=80 of the measured
# period, then every replica restarts.
OUTAGE = ClusterOutage("cluster-2", at_s=40.0, duration_s=40.0,
                       mode="blackhole")
ENV = ScenarioBenchConfig(request_timeout_s=1.0)
RECONCILE_INTERVAL_S = 5.0


@pytest.fixture(scope="module")
def blackhole_run():
    return run_scenario_benchmark(
        steady_scenario(DURATION_S), "l3", duration_s=DURATION_S,
        seed=SEED, env=ENV, faults=[OUTAGE])


def shifted(offset_s):
    """Measured-period time -> absolute simulation time."""
    return ENV.warmup_s + offset_s


class TestBlackholeOutage:
    def test_fault_applied_and_reverted(self, blackhole_run):
        assert [d.split("(")[0] for _t, d in blackhole_run.fault_log] == [
            "apply ClusterOutage", "revert ClusterOutage"]
        times = [t for t, _d in blackhole_run.fault_log]
        assert times == [shifted(40.0), shifted(80.0)]

    def test_no_request_hangs_past_the_deadline(self, blackhole_run):
        # Every scheduled request completed (none parked forever), and
        # every failure resolved within the 1 s deadline (plus the small
        # client-side pre-deadline overhead).
        records = blackhole_run.records
        assert len(records) > 10_000  # ~150 rps * 120 s, nothing lost
        failed = [r for r in records if not r.success]
        assert failed, "a blackhole with timeouts must produce failures"
        assert max(r.end_s - r.start_s for r in failed) <= 1.0 + 1e-6

    def test_l3_sheds_faulted_cluster_within_three_reconciles(
            self, blackhole_run):
        # After 3 reconcile intervals, <= 10 % of traffic still reaches
        # the dead cluster (acceptance: >= 90 % shifted off).
        after_reaction = faulted_share(
            blackhole_run.records,
            shifted(40.0 + 3 * RECONCILE_INTERVAL_S), shifted(80.0),
            FAULT_CLUSTER)
        assert after_reaction < 0.10

    def test_success_rate_recovers_during_the_outage(self, blackhole_run):
        window = [r for r in blackhole_run.records
                  if shifted(60.0) <= r.intended_start_s < shifted(80.0)]
        ok = sum(1 for r in window if r.success) / len(window)
        assert ok > 0.90  # only the shed remainder still fails

    def test_traffic_rebalances_after_restart(self, blackhole_run):
        during = faulted_share(
            blackhole_run.records, shifted(55.0), shifted(80.0),
            FAULT_CLUSTER)
        after = faulted_share(
            blackhole_run.records, shifted(95.0), shifted(DURATION_S),
            FAULT_CLUSTER)
        assert after > during
        assert after > 0.15  # back toward its ~1/3 steady-state share

    def test_tail_latency_recovers_after_restart(self, blackhole_run):
        assert recovery_intervals(
            blackhole_run.records, shifted(40.0), shifted(80.0)) is not None

    def test_run_is_deterministic(self, blackhole_run):
        repeat = run_scenario_benchmark(
            steady_scenario(DURATION_S), "l3", duration_s=DURATION_S,
            seed=SEED, env=ENV, faults=[OUTAGE])
        assert repeat.request_count == blackhole_run.request_count
        assert repeat.controller_weights == blackhole_run.controller_weights
        sample = {r.request_id: (r.backend, r.end_s, r.success)
                  for r in repeat.records[:500]}
        baseline = {r.request_id: (r.backend, r.end_s, r.success)
                    for r in blackhole_run.records[:500]}
        assert sample == baseline


class TestScrapeOutageEndToEnd:
    def test_controller_survives_a_scrape_outage(self):
        # The scraper pauses for 30 s: queries come back empty, the decay
        # path runs, and the benchmark completes with healthy traffic.
        result = run_scenario_benchmark(
            steady_scenario(90.0), "l3", duration_s=90.0, seed=SEED,
            env=ENV, faults=[ScrapeOutage(at_s=20.0, duration_s=30.0)])
        assert result.success_rate > 0.99
        assert len(result.fault_log) == 2
