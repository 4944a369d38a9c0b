"""A process loads only the code it runs (DESIGN.md, "What a process imports").

Each check starts a fresh interpreter, imports or runs something, and
inspects ``sys.modules``. Package ``__init__``s resolve their exports on
first access, and optional subsystems are imported by the function that
uses them, so importing an entry module must not drag in the autoscaler,
the tournament, the live testbed's sockets or a process pool — and a
run must not import anything its entry modules did not (the saving is
not load time moved into the run).
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

from tests._imports import modules_after

# Never loaded by importing the simulator's entry modules.
HEAVY_STDLIB = ("asyncio", "multiprocessing", "concurrent.futures", "numpy")
OPTIONAL_PACKAGES = ("repro.autoscale", "repro.tournament", "repro.live")
OPTIONAL_MODULES = ("repro.tracing.export", "repro.analysis.critical_path",
                    "repro.workloads.hotel", "repro.workloads.social",
                    "repro.workloads.callgraph")
# The registry and the paper's algorithm; every other balancer loads
# when it is built.
DEFAULT_BALANCERS = ("repro.balancers", "repro.balancers.base",
                     "repro.balancers.factory", "repro.balancers.periodic")
LIVE_SOCKET_MODULES = tuple(
    f"repro.live.{name}" for name in (
        "server", "proxy", "scrape", "loadgen", "exposition", "httpwire",
        "chaos", "runtime"))


def _within(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def unneeded(modules: set[str]) -> list[str]:
    """Modules a simulation entry module has no business loading."""
    return sorted(
        m for m in modules
        if _within(m, HEAVY_STDLIB) or _within(m, OPTIONAL_PACKAGES)
        or m in OPTIONAL_MODULES
        or (m.startswith("repro.balancers.") and m not in DEFAULT_BALANCERS))


@pytest.mark.parametrize("module", [
    "repro", "repro.bench.coordinator", "repro.bench.fault_matrix",
    "repro.sim.shard"])
def test_entry_module_loads_no_optional_subsystem(module):
    assert unneeded(modules_after(f"import {module}")) == []


PACKAGES = ["repro"] + [f"repro.{info.name}"
                        for info in pkgutil.iter_modules(repro.__path__)
                        if info.ispkg]


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_table_and_all_agree(name):
    """``dir()`` lists the lazy table's names, so a name added to one of
    the table and ``__all__`` but not the other shows up here."""
    package = importlib.import_module(name)
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    public = {attr for attr in dir(package) if not attr.startswith("_")}
    exported = set(package.__all__) - {"__version__"}
    assert exported <= public
    assert public - exported <= submodules | {"lazy_exports"}


def test_package_exports_resolve_without_loading_siblings():
    loaded = modules_after("from repro import L3Config")
    assert "repro.core.config" in loaded
    assert [m for m in loaded
            if _within(m, ("repro.bench", "repro.mesh", "repro.sim"))] == []


def test_live_entry_loads_no_socket_code():
    loaded = modules_after(
        "import repro.live\nfrom repro.live import LiveConfig, run_live")
    assert "repro.live.harness" in loaded
    assert sorted(
        m for m in loaded
        if m in LIVE_SOCKET_MODULES or m == "asyncio"
        or m in ("repro.balancers.c3", "repro.core.leader")) == []


def test_live_harness_still_resolves_to_the_runtime():
    loaded = modules_after(
        "from repro.live.harness import LiveHarness\n"
        "assert LiveHarness.__module__ == 'repro.live.runtime'")
    assert "repro.live.runtime" in loaded


def test_export_named_like_its_submodule_stays_the_function():
    modules_after(
        "import repro.analysis as a\n"
        "from repro.analysis import render_critical_path\n"
        "assert callable(a.critical_path) and a.critical_path.__name__ "
        "== 'critical_path', a.critical_path")


@pytest.mark.parametrize("argv", [["--help"], ["list"]],
                         ids=["help", "list"])
def test_cli_cold_start_loads_no_runtime(argv):
    loaded = modules_after(
        "import runpy\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit_:\n"
        "    assert not exit_.code, exit_.code\n")
    runtime = sorted(
        m for m in loaded
        if m.startswith(("repro.mesh", "repro.bench", "repro.balancers."))
        and m != "repro.balancers.factory"
        or _within(m, ("repro.sim",))
        or (m.startswith("repro.live.") and m != "repro.live.harness")
        or _within(m, HEAVY_STDLIB))
    assert runtime == []


def test_runs_import_nothing_their_entry_modules_did_not():
    """The cells of the ledger's simulation workloads, short: a
    fault-free ``scenario-1``/``l3`` run and a ``failure-2`` run with
    faults, deadlines, retries and outlier ejection."""
    code = """
from repro.bench.coordinator import ScenarioBenchConfig, run_scenario_benchmark
from repro.faults.spec import parse_fault_spec
from repro.mesh.ejection import OutlierEjectionConfig
from repro.workloads.scenarios import build_scenario

faults = parse_fault_spec(
    "cluster-outage@2+3:cluster=cluster-2:mode=blackhole;"
    "link-partition@4+2:src=cluster-1:dst=cluster-3",
    clusters=set(build_scenario("failure-2").clusters()), services={"api"})
env = ScenarioBenchConfig(
    warmup_s=5.0, request_timeout_s=1.0, max_retries=2,
    retry_backoff_s=0.05, outlier_ejection=OutlierEjectionConfig())
before = set(sys.modules)
plain = run_scenario_benchmark("scenario-1", "l3", duration_s=5.0, seed=1,
                               env=ScenarioBenchConfig(warmup_s=5.0))
chaos = run_scenario_benchmark("failure-2", "l3", duration_s=10.0, seed=1,
                               env=env, faults=faults)
assert plain.records and chaos.records and chaos.fault_log
new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
assert new == [], new
"""
    modules_after(code)


def test_mesh_env_is_a_leaf():
    """Both substrates' configs build on ``repro.env``: it must stay as
    cheap to import as ``repro.errors``."""
    loaded = modules_after("import repro.env")
    assert sorted(m for m in loaded if m.startswith("repro.")) == [
        "repro._lazy", "repro.env", "repro.errors"]
