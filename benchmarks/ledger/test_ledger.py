"""Smoke tests of the ledger harness.

Run with ``python -m pytest benchmarks/ledger -q`` (tier-1 ``testpaths``
does not include this directory). Every workload runs once through
``run.py --smoke`` (~1/20 durations) in a fresh interpreter, exactly as
the driver would start it.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import pytest

import compare
import layers
import run
from workloads import WORKLOADS

from repro.sim.vectorpath import HAVE_NUMPY

RUN_PY = pathlib.Path(run.__file__).resolve()
MANIFEST = run.REPO_ROOT / "BENCHMARK.json"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN_PY), *args],
                          capture_output=True, text=True, check=False)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _skip_without_numpy(workload) -> None:
    if workload.needs_numpy and not HAVE_NUMPY:
        pytest.skip(f"{workload.name} needs numpy (the [fleet] extra)")


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory) -> pathlib.Path:
    """One smoke ledger (untraced pass of every runnable workload)."""
    if not HAVE_NUMPY:
        pytest.skip("the whole-ledger pass includes the numpy workloads")
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = _run("--smoke", "--seconds", "0", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_end_to_end_metrics_present_and_finite(workload):
    _skip_without_numpy(workload)
    done = _run("--workload", workload.name, "--smoke", "--seconds", "0",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in run.END_TO_END]
    for spec in run.END_TO_END:
        metric = result["metrics"][spec.name]
        assert metric["unit"] == spec.unit
        assert math.isfinite(metric["value"]) and metric["value"] > 0, spec.name


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_per_layer_metrics_present_and_shares_sum_to_one(workload, tmp_path):
    _skip_without_numpy(workload)
    out = tmp_path / "detail.json"
    done = _run("--workload", workload.name, "--smoke", "--trace", "1",
                "--out", str(out))
    assert done.returncode == 0, done.stderr
    table = layers.per_layer_table()
    line = _last_json(done.stdout)["metrics"]
    assert list(line) == [name for name, *_ in table]
    assert all(math.isfinite(m["value"]) for m in line.values())

    # The detail file keeps an explicit null where the result line says 0.
    detail = json.loads(out.read_text(encoding="utf-8"))["metrics"]
    for name, unit, _ in table:
        value = detail[name]["value"]
        assert detail[name]["unit"] == unit
        assert value is None or math.isfinite(value), name
    live = workload.clock == "wall"
    for name, *_ in layers.LIVE_METRICS:
        assert (detail[name]["value"] is not None) == live, name
    shares = sum(detail[f"{pkg}.share"]["value"] for pkg in layers.PACKAGES)
    assert shares + detail["other.share"]["value"] == pytest.approx(1.0, abs=0.01)
    assert detail["trace.overhead_ratio"]["value"] > 0
    for stem in layers.BOUNDARIES:
        assert detail[f"{stem}.calls"]["value"] is not None, stem


def test_manifest_matches_the_harness():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert manifest == run.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    assert any(e["name"] == "setup_s" for e in manifest["end_to_end"])


def test_compare_with_itself_reports_no_regression(smoke_ledger):
    done = _run("--compare", str(smoke_ledger), str(smoke_ledger))
    assert done.returncode == 0, done.stdout
    assert "regressed" not in done.stdout
    rows, _ = compare.compare(
        json.loads(smoke_ledger.read_text(encoding="utf-8")),
        json.loads(smoke_ledger.read_text(encoding="utf-8")))
    assert len(rows) == len(WORKLOADS) * len(run.END_TO_END)
    assert {row["verdict"] for row in rows} <= {"unchanged", "unresolved"}


def test_compare_verdicts():
    base = {"value": 10.0, "repeats": [9.9, 10.0, 10.1]}
    judge = compare.judge
    assert judge(base, {"value": 11.5, "repeats": [11.4, 11.5, 11.6]},
                 "lower", 0.10)[0] == "regressed"
    assert judge(base, {"value": 9.0, "repeats": [8.9, 9.0, 9.1]},
                 "lower", 0.10)[0] == "improved"
    assert judge(base, {"value": 10.05, "repeats": [9.95, 10.05, 10.15]},
                 "lower", 0.10)[0] == "unchanged"
    assert judge({"value": 10.0}, {"value": 9.9}, "lower", 0.10)[0] == "unchanged"
    # Ranges overlapping by more than the bound cannot show "unchanged".
    noisy = {"value": 10.0, "repeats": [8.0, 10.0, 12.0]}
    assert judge(noisy, {"value": 10.2, "repeats": [8.5, 10.2, 12.5]},
                 "lower", 0.10)[0] == "unresolved"
    # Sim-clock cells at equal seed: bound 0, any worsening regresses.
    assert judge(base, {"value": 10.0001}, "lower", 0.0)[0] == "regressed"
    assert judge(base, {"value": 9.9999}, "lower", 0.0)[0] == "changed"
    assert judge(base, {"value": 9.0, "repeats": [9.0]},
                 "higher", 0.05)[0] == "regressed"


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    """In a tree holding only the benchmark, no result may be printed."""
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for source in RUN_PY.parent.glob("*.py"):
        (bare / source.name).write_text(
            source.read_text(encoding="utf-8"), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "steady-fast", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "metrics" not in done.stdout
