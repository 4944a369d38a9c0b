"""Smoke tests: every example script runs end to end.

Examples are documentation that executes — these tests keep them honest.
The slower demos (autoscaling, cost_aware) have fixed internal durations
and are exercised through their underlying APIs elsewhere; here we run the
parameterisable ones at small scale.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, check=False)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "20")
        assert result.returncode == 0, result.stderr
        assert "round-robin" in result.stdout
        assert "l3" in result.stdout
        assert "final TrafficSplit weights" in result.stdout

    def test_hotel_reservation(self):
        result = run_example("hotel_reservation.py", "60", "30")
        assert result.returncode == 0, result.stderr
        assert "paper Fig. 9" in result.stdout
        assert "P50 over time" in result.stdout

    def test_failure_injection(self):
        result = run_example("failure_injection.py", "30")
        assert result.returncode == 0, result.stderr
        assert "penalty factor sweep" in result.stdout
        assert "dynamic penalty" in result.stdout
        # The fault-API demo ran its full crash → detect → reroute →
        # restart → re-balance cycle (the script asserts the traffic
        # shares internally; a failure would flip the return code).
        assert "fault injection API" in result.stdout
        assert "apply ClusterOutage" in result.stdout
        assert "revert ClusterOutage" in result.stdout
        assert "rerouted around the outage" in result.stdout

    def test_social_network(self):
        result = run_example("social_network.py", "60", "30")
        assert result.returncode == 0, result.stderr
        assert "full latency spectra" in result.stdout

    def test_live_demo(self):
        # Short real-socket run on a port range reserved for this test.
        result = run_example("live_demo.py", "4", "19880", timeout=60.0)
        assert result.returncode == 0, result.stderr
        assert "weight trajectory" in result.stdout
        assert "clean shutdown: True" in result.stdout

    def test_tournament_demo(self):
        result = run_example("tournament_demo.py", "12")
        assert result.returncode == 0, result.stderr
        assert "leaderboard" in result.stdout
        assert "head-to-head" in result.stdout
        assert "overall winner on this grid:" in result.stdout

    def test_custom_mesh(self):
        result = run_example("custom_mesh.py")
        assert result.returncode == 0, result.stderr
        assert "during eu-west degradation" in result.stdout
        # The degraded cluster's weight collapsed during the episode.
        lines = [l for l in result.stdout.splitlines()
                 if "during eu-west degradation" in l]
        assert lines


EXAMPLE_NAMES = [
    "quickstart.py", "hotel_reservation.py", "failure_injection.py",
    "custom_mesh.py", "autoscaling.py", "cost_aware.py",
    "social_network.py", "live_demo.py", "tournament_demo.py",
]


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_compiles(name):
    """Every example at least byte-compiles (including the slow ones)."""
    source = (EXAMPLES / name).read_text(encoding="utf-8")
    compile(source, name, "exec")


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_imports_resolve(name):
    """Every ``repro`` name an example imports exists — the slow demos
    only compile above, so a renamed or deleted class shows up here."""
    tree = ast.parse((EXAMPLES / name).read_text(encoding="utf-8"))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
                    imported += 1
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    getattr(module, alias.name)
                except AttributeError:
                    importlib.import_module(f"{node.module}.{alias.name}")
                imported += 1
    assert imported, name
