"""Full-precision pins of the study outputs.

Each digest is the sha256 of the ``repr`` of one study's rows at full
float precision — not of the rendered tables, which round to one
decimal. They pin multi-seed means (tournament and Fig. 10 at two
repetitions), the fault matrix's numbers and the elasticity frontier, so
a harness change that moves any of them by one ulp fails here. Update a
digest only together with a change that is meant to move that study's
numbers.
"""

import hashlib
import json

from repro.bench.experiments import fig10_scenario_comparison, fig_elasticity
from repro.bench.fault_matrix import run_fault_matrix
from repro.tournament import run_tournament, tournament_json


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sorted_rows(grid: dict) -> dict:
    return {outer: {inner: sorted(row.items()) for inner, row in rows.items()}
            for outer, rows in grid.items()}


def test_tournament_means_and_document_pinned():
    result = run_tournament(["round-robin", "l3"],
                            ["scenario-2", "degraded-backend"],
                            duration_s=24, repetitions=2)
    assert _digest(repr(_sorted_rows(result.scores))) == (
        "750c7ad35c658a7843e999857f69f2a4ab5f8c2693d1c35d8dc9f80e4a40c1cd")
    assert _digest(json.dumps(tournament_json(result), sort_keys=True)) == (
        "b86c77d0e5b49ec2689745163316610c53bdd44e9dd9224e7d92852b6264f003")


def test_fault_matrix_metrics_pinned():
    matrix = run_fault_matrix(("l3", "round-robin"), duration_s=40,
                              fault_start_s=10, fault_duration_s=10)
    assert _digest(repr(_sorted_rows(matrix))) == (
        "66f5341472902072e3adfcff0df1f2e38a4ff26512e035ddfeda24ccb45ca2bd")


def test_fig10_two_seed_means_pinned():
    out = fig10_scenario_comparison(["scenario-5"], duration_s=15,
                                    repetitions=2)
    rows = {name: experiment.table.rows for name, experiment in out.items()}
    assert _digest(repr(rows)) == (
        "31ee4dac80560420de0d24a118421d08953dedb1e2828e54f5e922b565b71596")


def test_elasticity_frontier_pinned():
    experiment = fig_elasticity(duration_s=60)
    assert _digest(repr(experiment.table.rows)) == (
        "5eb19f89158c55afaf3b06afcfffc185f978c231555b0f82a7b3e5ca3ab105b4")
