"""The live testbed's entry points: configuration and ``run_live``.

:class:`LiveConfig`, the re-timed controller configurations and
:func:`run_live` live here; :class:`~repro.live.runtime.LiveHarness`,
the socket substrate and the controllers it runs are imported when a
live run starts (``repro.live.harness.LiveHarness`` still resolves to
it). So a process that only configures or names a live run — the CLI's
argument parser, a benchmark's set-up — loads no socket code and no
asyncio.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace

from repro._lazy import lazy_exports
from repro.core.config import L3Config
from repro.env import MeshEnv
from repro.errors import ConfigError

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.balancers.c3 import C3Config
    from repro.bench.coordinator import BenchmarkResult
    from repro.live.runtime import LiveHarness
    from repro.workloads.scenarios import Scenario

# Algorithms the live harness can run. The per-request in-proxy policies
# (p2c, failover) are omitted: the live testbed exists to exercise the
# *controller* path (metrics → weights → split).
LIVE_ALGORITHMS = ("round-robin", "l3", "l3-peak", "c3")

# The paper's control cadence (reconcile every 5 s, 10 s windows) assumes
# multi-minute runs; live smoke runs last tens of seconds, so the default
# cadence scales the whole loop down proportionally from this reference.
_PAPER_INTERVAL_S = 5.0


def live_l3_config(reconcile_interval_s: float,
                   base: L3Config | None = None,
                   scrape_interval_s: float | None = None) -> L3Config:
    """An L3Config with the paper's loop proportionally re-timed.

    Every time constant of the control loop (windows, EWMA half-lives,
    staleness horizon) scales by ``reconcile_interval_s / 5 s``, so a
    1-second live cadence behaves like the paper's 5-second loop does
    over a 5x longer run. Non-temporal tunables are taken from ``base``.

    When ``scrape_interval_s`` is given, the metrics window is floored
    at **three** scrape intervals: ``rate()`` needs two samples inside
    the trailing window, and on the wall clock a round's samples land
    up to one interval after the tick that scheduled them (sleep drift,
    concurrent fetches), so the simulator's exactly-two-intervals
    minimum flaps between one and two visible samples live.
    """
    return _retimed(base or L3Config(), reconcile_interval_s,
                    scrape_interval_s, (
                        "latency_half_life_s", "inflight_half_life_s",
                        "success_half_life_s", "rps_half_life_s",
                        "staleness_s"))


def live_c3_config(reconcile_interval_s: float,
                   scrape_interval_s: float | None = None) -> C3Config:
    """A C3Config re-timed the same way as :func:`live_l3_config`."""
    from repro.balancers.c3 import C3Config

    return _retimed(C3Config(), reconcile_interval_s, scrape_interval_s,
                    ("latency_half_life_s", "queue_half_life_s"))


def _retimed(base, reconcile_interval_s: float,
             scrape_interval_s: float | None, time_constants):
    """``base`` at ``reconcile_interval_s``, its window and the named
    time constants scaled by the same factor."""
    factor = reconcile_interval_s / _PAPER_INTERVAL_S
    window_s = base.metrics_window_s * factor
    if scrape_interval_s is not None:
        window_s = max(window_s, 3.0 * scrape_interval_s)
    return replace(
        base, reconcile_interval_s=reconcile_interval_s,
        metrics_window_s=window_s,
        **{name: getattr(base, name) * factor for name in time_constants})


def weight_points(weights: dict[str, int]) -> dict[str, float]:
    """Weights normalised to shares of 100 ("weight points")."""
    total = sum(weights.values())
    if total <= 0:
        share = 100.0 / max(len(weights), 1)
        return {name: share for name in weights}
    return {name: 100.0 * w / total for name, w in weights.items()}


@dataclass(frozen=True, kw_only=True)
class LiveConfig(MeshEnv):
    """One live run: :class:`~repro.env.MeshEnv`, three of its defaults
    changed on purpose (DESIGN §5e), plus the live knobs."""

    algorithm: str = "l3"
    duration_s: float = 30.0
    port_base: int = 18080
    host: str = "127.0.0.1"
    seed: int = 1
    # Offered load; None uses the scenario's own RPS series (typically
    # hundreds of RPS — heavier than a CI smoke run needs).
    rps: float | None = 100.0
    # Live runs last tens of seconds, not the paper's minutes: the
    # control loop is re-timed to match (live_l3_config).
    scrape_interval_s: float = 1.0
    reconcile_interval_s: float = 1.0
    l3_config: L3Config | None = None
    # A bounded per-attempt deadline: a wedged localhost socket must not
    # hang a CI job.
    request_timeout_s: float | None = 5.0
    # Controller replicas; > 1 runs lease-based HA (satellite of §4).
    ha_replicas: int = 1
    lease_ttl_s: float = 3.0
    # A live drain holds real sockets open for wall-clock seconds.
    drain_s: float = 5.0
    # Chaos: a --faults spec string or a parsed Fault list; times are
    # seconds into the run. None runs fault-free (no shaper, no task).
    faults: object = None

    _FLOORS = MeshEnv._FLOORS + (("ha_replicas", 1),)
    _POSITIVE = MeshEnv._POSITIVE + (
        "duration_s", "reconcile_interval_s", "lease_ttl_s", "rps")

    def __post_init__(self):
        """Reject every unrunnable value before a single port is bound."""
        super().__post_init__()
        if self.algorithm not in LIVE_ALGORITHMS:
            raise ConfigError(
                f"algorithm must be one of {LIVE_ALGORITHMS}: "
                f"{self.algorithm!r}")
        if not 0 < self.port_base < 65536 - 256:
            raise ConfigError(f"port_base out of range: {self.port_base}")


def run_live(scenario: str | Scenario, config: LiveConfig | None = None,
             ) -> tuple[BenchmarkResult, LiveHarness]:
    """Build a harness for ``config`` (default :class:`LiveConfig`), run
    it, return both."""
    from repro.live.runtime import LiveHarness

    harness = LiveHarness(scenario, config)
    return harness.run(), harness


__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.live.runtime": ("LiveHarness",),
})
