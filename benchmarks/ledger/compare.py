"""``run.py --compare BASE NEW``: apply the benchmark's bounds to two ledgers.

One row per (end-to-end metric, workload). ``worse`` is how far NEW's
value moved in the bad direction as a share of BASE's value; every
ratio is printed with its base. Verdicts:

* ``regressed`` — worse by more than the metric's bound;
* ``improved`` — every repeat of NEW reads better than every repeat of
  BASE, with at least three repeats a side (one sample beating one
  sample shows nothing);
* ``unresolved`` — neither of the above, and the two sides' per-repeat
  ranges overlap by more than the bound (as a share of BASE's value):
  the measurement cannot tell "unchanged" from "moved by the bound";
* ``unchanged`` — within the bound, and the spread is tighter than it.

Sim-clock numbers (``p50_ms``, ``p99_ms``, ``ok_ratio`` on simulation
workloads) repeat exactly for a fixed seed, so when both files ran the
same seed their bound is 0: any difference is ``changed`` — a behaviour
change, which a pure speed-up must not cause — and is a regression when
it is for the worse. The behaviour digest is compared the same way
(informational: it is recorded, not pinned).
"""

from __future__ import annotations

import json
import pathlib


def _load(path: str) -> dict:
    ledger = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if "workloads" not in ledger or "end_to_end" not in ledger:
        raise SystemExit(f"{path}: not a ledger file written by run.py --out")
    return ledger


def _overlap(a: list[float], b: list[float]) -> float:
    """Length of the intersection of the two sides' [min, max] ranges."""
    return max(0.0, min(max(a), max(b)) - max(min(a), min(b)))


def judge(base: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """Verdict and worsening (share of base value) for one metric cell."""
    base_value, new_value = base["value"], new["value"]
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(base_value) or 1.0
    worse = sign * (new_value - base_value) / scale
    base_runs = base.get("repeats") or [base_value]
    new_runs = new.get("repeats") or [new_value]
    if bound == 0.0:
        if new_value == base_value:
            return "unchanged", worse
        return ("regressed" if worse > 0 else "changed"), worse
    if worse > bound:
        return "regressed", worse
    if better == "lower":
        all_better = max(new_runs) < min(base_runs)
    else:
        all_better = min(new_runs) > max(base_runs)
    if all_better and min(len(base_runs), len(new_runs)) >= 3:
        return "improved", worse
    if _overlap(base_runs, new_runs) / scale > bound:
        return "unresolved", worse
    return "unchanged", worse


def compare(base: dict, new: dict) -> tuple[list[dict], list[str]]:
    """Rows for every shared (metric, workload) pair, plus notes."""
    rows = []
    notes = []
    same_seed = base.get("seed") == new.get("seed")
    if base.get("smoke") or new.get("smoke"):
        notes.append("a side is a --smoke run: numbers are not comparable")
    if base.get("host") != new.get("host"):
        notes.append(f"fingerprints differ: base {base.get('host')} / "
                     f"new {new.get('host')}")
    for name, base_wl in base["workloads"].items():
        new_wl = new["workloads"].get(name)
        if new_wl is None or "end_to_end" not in base_wl \
                or "end_to_end" not in new_wl:
            notes.append(f"{name}: missing on one side, not compared")
            continue
        exact = same_seed and base_wl.get("clock") == "sim"
        if exact and base_wl.get("digest") != new_wl.get("digest"):
            notes.append(f"{name}: behaviour digest changed "
                         f"({base_wl.get('digest')} -> {new_wl.get('digest')})")
        for metric, spec in base["end_to_end"].items():
            b = base_wl["end_to_end"].get(metric)
            n = new_wl["end_to_end"].get(metric)
            if not b or not n or b["value"] is None or n["value"] is None:
                notes.append(f"{name}/{metric}: no value on one side")
                continue
            bound = 0.0 if exact and spec.get("sim_clock") \
                else spec["bound"]
            verdict, worse = judge(b, n, spec["better"], bound)
            rows.append({"workload": name, "metric": metric,
                         "unit": spec["unit"], "better": spec["better"],
                         "bound": bound, "base": b["value"],
                         "new": n["value"], "worse": worse,
                         "verdict": verdict})
    return rows, notes


def compare_files(base_path: str, new_path: str) -> int:
    rows, notes = compare(_load(base_path), _load(new_path))
    print(f"base = {base_path}\nnew  = {new_path}")
    print(f"{'workload':<14} {'metric':<15} {'base':>12} {'new':>12} "
          f"{'unit':<6} {'new/base':>9} {'worse':>8} {'bound':>6}  verdict")
    for row in rows:
        ratio = row["new"] / row["base"] if row["base"] else float("nan")
        print(f"{row['workload']:<14} {row['metric']:<15} "
              f"{row['base']:>12.6g} {row['new']:>12.6g} {row['unit']:<6} "
              f"{ratio:>9.4f} {row['worse']:>+8.2%} {row['bound']:>6.0%}  "
              f"{row['verdict']}")
    for note in notes:
        print(f"note: {note}")
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0
