"""The tournament's scenario axis.

Seven cells. The first five are the paper's TIER-derived trace scenarios
verbatim (``scenario-1`` … ``scenario-5``): the balancers race on the
same cross-cluster latency skews the L3 evaluation uses. The last two
are *perturbation* cells built on the fault matrix's steady scenario —
flat profiles and flat load, so the injected disturbance is the only
signal — which is what makes a convergence-time score well-defined:

* ``degraded-backend`` — the client's WAN path to cluster-2 degrades
  sharply (20x one-way delay + 200 ms) mid-run, then heals. A
  latency-aware balancer sheds the cluster and re-admits it afterwards;
  this is the cell the CI ``--check`` contract (L3 beats round-robin on
  P99) runs on.
* ``outage`` — cluster-2 goes down fail-fast mid-run, then heals;
  success rate during the fault separates balancers that reroute from
  ones that keep feeding the dead cluster.

Fault timing scales with the cell duration (start at 3/8, heal at 5/8),
so a 60-second smoke run and the committed multi-minute baseline measure
the same three phases: converge, perturb, recover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.fault_matrix import FAULT_CLUSTER
from repro.errors import ConfigError
from repro.faults import ClusterOutage, LinkDegradation

# The five TIER-derived trace cells raced as-is.
TRACE_SCENARIOS = ("scenario-1", "scenario-2", "scenario-3", "scenario-4",
                   "scenario-5")

# The perturbation cells built on the steady scenario + fault matrix.
PERTURBATION_SCENARIOS = ("degraded-backend", "outage")

TOURNAMENT_SCENARIO_NAMES = TRACE_SCENARIOS + PERTURBATION_SCENARIOS

# Fault window as fractions of the measured duration: hit at 3/8, heal
# at 5/8 — leaving an equal pre-fault baseline and post-heal recovery
# window on both sides.
FAULT_START_FRACTION = 0.375
FAULT_DURATION_FRACTION = 0.25


@dataclass(frozen=True)
class TournamentScenario:
    """One column of the tournament grid.

    ``base`` is a built-in scenario name, or ``None`` for the steady
    scenario; ``perturbed`` marks the cells whose faults define a
    convergence-time score.
    """

    name: str
    base: str | None
    faults: tuple = ()

    @property
    def perturbed(self) -> bool:
        return bool(self.faults)


def tournament_scenarios(duration_s: float) -> tuple[TournamentScenario, ...]:
    """The grid columns, fault windows scaled to ``duration_s``."""
    if duration_s <= 0:
        raise ConfigError(f"duration_s must be positive: {duration_s}")
    start = duration_s * FAULT_START_FRACTION
    length = duration_s * FAULT_DURATION_FRACTION
    cells = [TournamentScenario(name, base=name)
             for name in TRACE_SCENARIOS]
    cells.append(TournamentScenario(
        "degraded-backend", base=None,
        faults=(LinkDegradation("cluster-1", FAULT_CLUSTER, at_s=start,
                                duration_s=length, multiplier=20.0,
                                extra_delay_s=0.200),)))
    cells.append(TournamentScenario(
        "outage", base=None,
        faults=(ClusterOutage(FAULT_CLUSTER, at_s=start,
                              duration_s=length, mode="fail_fast"),)))
    return tuple(cells)


def select_scenarios(duration_s: float,
                     names=None) -> tuple[TournamentScenario, ...]:
    """The grid columns for ``names`` (None = the full grid), validated."""
    cells = tournament_scenarios(duration_s)
    if names is None:
        return cells
    by_name = {cell.name: cell for cell in cells}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ConfigError(
            f"unknown tournament scenario(s) {unknown}; expected a subset "
            f"of {TOURNAMENT_SCENARIO_NAMES}")
    return tuple(by_name[name] for name in names)
