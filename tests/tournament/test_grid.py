"""Tests for the tournament's scenario axis."""

import pytest

from repro.bench.study import fault_window
from repro.errors import ConfigError
from repro.tournament.grid import (
    PERTURBATION_SCENARIOS,
    TOURNAMENT_SCENARIO_NAMES,
    TRACE_SCENARIOS,
    select_scenarios,
    tournament_scenarios,
)
from repro.workloads.scenarios import SCENARIO_NAMES


class TestGrid:
    def test_seven_cells_in_declared_order(self):
        cells = tournament_scenarios(120.0)
        assert tuple(c.name for c in cells) == TOURNAMENT_SCENARIO_NAMES
        assert len(TOURNAMENT_SCENARIO_NAMES) == 7

    def test_trace_cells_are_real_scenarios(self):
        for name in TRACE_SCENARIOS:
            assert name in SCENARIO_NAMES

    def test_perturbation_cells_have_faults(self):
        cells = {c.name: c for c in tournament_scenarios(120.0)}
        for name in PERTURBATION_SCENARIOS:
            cell = cells[name]
            assert cell.perturbed
            assert cell.base is None
            assert cell.faults

    def test_trace_cells_have_no_fault_window(self):
        cells = {c.name: c for c in tournament_scenarios(120.0)}
        assert not cells["scenario-1"].perturbed
        with pytest.raises(ConfigError, match="no fault window"):
            fault_window(cells["scenario-1"].faults, 120.0)

    def test_fault_window_scales_with_duration(self):
        for duration in (40.0, 120.0, 600.0):
            cells = {c.name: c for c in tournament_scenarios(duration)}
            for name in PERTURBATION_SCENARIOS:
                start, end = fault_window(cells[name].faults, duration)
                assert start == pytest.approx(duration * 0.375)
                assert end == pytest.approx(duration * 0.625)

    def test_select_preserves_request_order(self):
        cells = select_scenarios(60.0, ["outage", "scenario-3"])
        assert tuple(c.name for c in cells) == ("outage", "scenario-3")

    def test_select_unknown_lists_valid_set(self):
        with pytest.raises(ConfigError, match="degraded-backend"):
            select_scenarios(60.0, ["scenario-99"])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            tournament_scenarios(0.0)
