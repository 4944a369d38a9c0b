"""Per-layer attribution: fold a deterministic profile by ``src/repro`` package.

The traced pass runs one repeat under :mod:`cProfile`, started and
stopped in ``run.py`` around the ``run_*`` call. :func:`fold` turns the
profiler's entries into the ledger's per-layer numbers:

* **self time by layer.** A function defined under ``src/repro/<pkg>/``
  contributes its *inline* time (own time minus callees') to ``<pkg>``
  and to its module. Everything else — C builtins (``heapq``, ``math``,
  ``select``, numpy ufuncs) and Python code outside the package
  (``random.py``, ``asyncio`` streams, numpy wrappers) — is charged to
  the layer that *called* it, through the profiler's caller table. A
  direct call from repro code is charged exactly; a library routine
  called by another library routine passes the charge on to its own
  callers in proportion to the cumulative time each spent in it (the
  gprof rule — cProfile keeps call pairs, not stacks). The charge stops
  at *framework* code, i.e. non-repro code that itself calls back into
  the package (the asyncio loop running repro coroutines): that is
  machinery above the program, not a routine serving a layer, and it
  lands in ``other`` together with this harness.
* **idle time.** The event loop's selector wait is waiting, not work:
  it is reported as ``live.idle_s`` and left out of the shares.
* **boundary functions.** Cumulative time and call count of a fixed
  table of public functions, matched by code object, so a rename shows
  as ``None`` (never a guess). For coroutine functions every resume is a
  call and the cumulative time is on-CPU time, not awaited time.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict

PACKAGES = ("sim", "mesh", "telemetry", "core", "balancers", "workloads",
            "faults", "autoscale", "live", "bench", "tracing", "analysis")

HOT_MODULES = (
    "sim.engine", "sim.events", "sim.process", "sim.resources",
    "sim.vectorpath", "sim.shard",
    "mesh.fastdispatch", "mesh.proxy", "mesh.network", "mesh.replica",
    "mesh.traffic_split", "mesh.ejection",
    "telemetry.metrics", "telemetry.histogram", "telemetry.scraper",
    "telemetry.query", "telemetry.timeseries",
    "core.controller", "core.weighting", "core.ewma",
    "workloads.profiles", "workloads.loadgen", "workloads.callgraph",
    "live.proxy", "live.httpwire", "live.server", "live.exposition",
    "live.scrape", "live.loadgen",
)

# metric stem -> ((module, dotted attribute), ...); times and calls of
# all listed functions are summed (one runs per substrate).
BOUNDARIES = {
    "sim.run": (("repro.sim.engine", "Simulator.run"),),
    "sim.schedule": (("repro.sim.events", "EventPool.schedule"),),
    "mesh.net_delay": (("repro.mesh.network", "NetworkModel.delay"),),
    "mesh.pick": (("repro.mesh.traffic_split", "TrafficSplit.pick"),),
    "telemetry.on_response": (
        ("repro.telemetry.metrics", "BackendTelemetry.on_response"),),
    "telemetry.scrape": (
        ("repro.telemetry.scraper", "Scraper.scrape_once"),
        ("repro.live.scrape", "HttpScraper.scrape_once")),
    "telemetry.collect": (
        ("repro.telemetry.query", "PromMetricsSource.collect"),),
    "core.reconcile": (("repro.core.controller", "L3Controller.reconcile"),),
    "live.dispatch": (("repro.live.proxy", "LiveProxy.dispatch"),),
    "live.connect": (("asyncio", "open_connection"),),
    "live.render": (("repro.live.exposition", "render_exposition"),),
}

_SELECTOR_WAITS = ("select.epoll", "select.poll", "select.kqueue",
                   "select.select")


def _resolve_code(module: str, dotted: str):
    """The code object of ``module.dotted``, or None when it is gone."""
    try:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            obj = getattr(obj, part)
        return obj.__code__
    except (ImportError, AttributeError):
        return None


def _is_selector_wait(code) -> bool:
    return isinstance(code, str) and any(s in code for s in _SELECTOR_WAITS)


class _Owners:
    """Maps each profiled function to the repro module(s) that own its time."""

    _MAX_DEPTH = 12

    def __init__(self, entries, package_dir: str):
        self._root = os.path.join(os.path.realpath(package_dir), "")
        # callee code -> [(caller code, inline, cumulative)]: the
        # callee's own and total time while called from that caller.
        self.callers = defaultdict(list)
        self._callees = defaultdict(list)
        for entry in entries:
            for sub in entry.calls or ():
                self.callers[sub.code].append(
                    (entry.code, sub.inlinetime, sub.totaltime))
                self._callees[entry.code].append(sub.code)
        self._memo: dict = {}
        self._framework: dict = {}

    def module_of(self, code) -> str | None:
        """``pkg.module`` for code defined under the repro package."""
        if isinstance(code, str):
            return None
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self._root):
            return None
        parts = path[len(self._root):-len(".py")].split(os.sep)
        if len(parts) < 2 or parts[0] not in PACKAGES:
            return None
        return f"{parts[0]}.{parts[-1]}"

    def is_framework(self, code) -> bool:
        """True for non-repro code that (transitively) calls repro code."""
        known = self._framework.get(code)
        if known is None:
            self._framework[code] = False       # breaks cycles
            known = self._framework[code] = any(
                self.module_of(callee) is not None
                or self.is_framework(callee)
                for callee in self._callees.get(code, ()))
        return known

    def shares(self, code, depth: int = 0) -> dict[str, float]:
        """Fractions (summing to <= 1) of the time spent *under* ``code``
        as a caller that each repro module owns."""
        module = self.module_of(code)
        if module is not None:
            return {module: 1.0}
        if code in self._memo:
            return self._memo[code]
        if depth >= self._MAX_DEPTH or self.is_framework(code):
            return {}
        self._memo[code] = {}       # breaks cycles: recursion owns nothing
        callers = self.callers.get(code, ())
        total = sum(t for _, _, t in callers)
        out: dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, _, t in callers:
                for module, frac in self.shares(caller, depth + 1).items():
                    out[module] += frac * t / total
        self._memo[code] = dict(out)
        return self._memo[code]


def fold(entries, package_dir: str) -> dict:
    """Fold ``cProfile.Profile.getstats()`` entries into layer numbers.

    Returns ``{"modules": {pkg.module: self_s}, "packages": {pkg:
    {"self_s", "calls"}}, "other_s", "idle_s", "busy_s", "boundaries":
    {stem: {"cum_s", "calls"} | None}}``.
    """
    owners = _Owners(entries, package_dir)
    modules: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    other_s = idle_s = 0.0
    by_code = {}
    for entry in entries:
        code = entry.code
        by_code[code] = entry
        if _is_selector_wait(code):
            idle_s += entry.inlinetime
            continue
        module = owners.module_of(code)
        if module is not None:
            modules[module] += entry.inlinetime
            calls[module.split(".")[0]] += entry.callcount
            continue
        # Non-repro code: charge each caller edge's inline time upward.
        charged = 0.0
        for caller, inline, _ in owners.callers.get(code, ()):
            for owner, frac in owners.shares(caller).items():
                modules[owner] += inline * frac
                charged += inline * frac
        other_s += max(entry.inlinetime - charged, 0.0)

    packages = {
        pkg: {"self_s": sum(t for m, t in modules.items()
                            if m.split(".")[0] == pkg),
              "calls": calls.get(pkg, 0)}
        for pkg in PACKAGES
    }
    boundaries = {}
    for stem, targets in BOUNDARIES.items():
        codes = [_resolve_code(*target) for target in targets]
        if all(code is None for code in codes):
            boundaries[stem] = None
            continue
        hit = [by_code[c] for c in codes if c is not None and c in by_code]
        boundaries[stem] = {
            "cum_s": sum(e.totaltime for e in hit),
            "calls": sum(e.callcount for e in hit),
        }
    busy_s = sum(modules.values()) + other_s
    return {"modules": dict(modules), "packages": packages,
            "other_s": other_s, "idle_s": idle_s, "busy_s": busy_s,
            "boundaries": boundaries}



# --------------------------------------------------------------------- #
# The per-layer metric table (names, units, direction)
# --------------------------------------------------------------------- #

# Exact counts taken from the untraced result: they repeat exactly for a
# fixed seed, so two commits compare exactly.
EXACT_COUNTS = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_req", "count", "lower"),
    ("mesh.attempts_per_req", "count", "lower"),
    ("mesh.useful_ratio", "ratio", "higher"),
    ("faults.applied", "count", "lower"),
)

# From the untraced live repeat's request records and host CPU time.
LIVE_METRICS = (
    ("live.sched_lag_p50_ms", "ms", "lower"),
    ("live.sched_lag_p99_ms", "ms", "lower"),
    ("live.overhead_p50_ms", "ms", "lower"),
    ("live.idle_s", "s", "higher"),
    ("live.est_ceiling_rps", "1/s", "higher"),
)


def per_layer_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    table = []
    for pkg in PACKAGES:
        table += [(f"{pkg}.self_s", "s", "lower"),
                  (f"{pkg}.share", "ratio", "lower"),
                  (f"{pkg}.calls", "count", "lower")]
    table += [("other.self_s", "s", "lower"), ("other.share", "ratio", "lower")]
    table += [(f"{module}.self_s", "s", "lower") for module in HOT_MODULES]
    for stem in BOUNDARIES:
        table += [(f"{stem}.cum_s", "s", "lower"),
                  (f"{stem}.calls", "count", "lower")]
    table += EXACT_COUNTS
    table += LIVE_METRICS
    table.append(("trace.overhead_ratio", "ratio", "lower"))
    return table


def layer_values(folded: dict) -> dict:
    """The profile-derived rows of :func:`per_layer_table` from :func:`fold`.

    A boundary function that no longer exists maps to ``None``.
    """
    busy = folded["busy_s"] or 1.0
    values = {}
    for pkg, row in folded["packages"].items():
        values[f"{pkg}.self_s"] = row["self_s"]
        values[f"{pkg}.share"] = row["self_s"] / busy
        values[f"{pkg}.calls"] = row["calls"]
    values["other.self_s"] = folded["other_s"]
    values["other.share"] = folded["other_s"] / busy
    for module in HOT_MODULES:
        values[f"{module}.self_s"] = folded["modules"].get(module, 0.0)
    for stem, row in folded["boundaries"].items():
        values[f"{stem}.cum_s"] = None if row is None else row["cum_s"]
        values[f"{stem}.calls"] = None if row is None else row["calls"]
    values["live.idle_s"] = folded["idle_s"]
    return values
