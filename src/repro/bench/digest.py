"""Golden-digest fingerprinting of a benchmark run.

The perf work this repo does (kernel fast paths, zero-copy telemetry,
parallel sweeps) is only admissible if it is *behavior-preserving*: a
fixed-seed run must produce the same routing weights, the same reported
percentiles and a byte-identical trace export before and after any
optimization. :func:`golden_digest` collapses one run into a single
SHA-256 hex string over a canonical JSON serialization of everything the
coordinator reports, so a determinism test reduces to one string
comparison — and any future kernel change that shifts behavior by even
one event ordering fails loudly. When one does, :func:`first_divergence`
says where: the first request record (or final weight) that differs,
with both values.
"""

from __future__ import annotations

import hashlib
import json

from repro.bench.coordinator import run_scenario_benchmark

#: The fields of one fingerprint record, in list order.
RECORD_FIELDS = ("request_id", "backend", "intended_start_s", "start_s",
                 "end_s", "success", "attempts")


def result_fingerprint(result) -> dict:
    """A canonical, JSON-serializable fingerprint of one benchmark run.

    Captures every request record (ids, timing, backend, outcome), the
    controller's final weights, and the headline percentiles. Floats pass
    through ``repr`` via ``json.dumps`` (shortest round-trip repr, stable
    across CPython versions), so the serialization is reproducible
    byte-for-byte.
    """
    # Key order is what first_divergence walks (records before the
    # totals they explain); the digest sorts keys, so it cannot see it.
    fingerprint = {
        "scenario": result.scenario,
        "algorithm": result.algorithm,
        "seed": result.seed,
        "records": [
            [r.request_id, r.backend, r.intended_start_s, r.start_s,
             r.end_s, r.success, r.attempts]
            for r in result.records
        ],
        "request_count": result.request_count,
        "weights": dict(sorted(result.controller_weights.items())),
    }
    if result.records:
        fingerprint["percentiles_ms"] = {
            "p50": result.p50_ms, "p90": result.p90_ms, "p99": result.p99_ms}
    return fingerprint


def digest_result(result, trace_blob: bytes | None = None) -> str:
    """SHA-256 hex digest of one run's fingerprint (+ optional trace)."""
    blob = json.dumps(
        result_fingerprint(result), sort_keys=True,
        separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(blob)
    if trace_blob is not None:
        digest.update(trace_blob)
    return digest.hexdigest()


def first_divergence(a, b) -> str | None:
    """Where two runs first differ; ``None`` when they agree.

    ``a`` and ``b`` are benchmark results, their
    :func:`result_fingerprint` dicts, or any nested dicts, lists and
    tuples of plain values (a study's rows). Records are walked first,
    in completion order, so the answer is the earliest request whose
    record differs, e.g. ``records[1832].end_s: 41.2083 != 41.2087``;
    when every record agrees it is the first differing count, final
    weight or percentile (``weights['api/cluster-2']: 41 != 40``).
    Values compare by type and ``repr``, as the digest's JSON does, so
    ``1`` and ``1.0`` differ and two NaNs agree.
    """
    return _diverge(_comparable(a), _comparable(b), "")


def _comparable(run):
    if hasattr(run, "records") and hasattr(run, "controller_weights"):
        run = result_fingerprint(run)
    if isinstance(run, dict) and isinstance(run.get("records"), list):
        run = dict(run, records=[
            dict(zip(RECORD_FIELDS, record)) if isinstance(record, list)
            else record for record in run["records"]])
    return run


_ABSENT = "<absent>"


def _diverge(a, b, path: str) -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(key for key in b if key not in a)]:
            where = (f"{path}.{key}" if isinstance(key, str)
                     and key.isidentifier() else f"{path}[{key!r}]")
            if key not in a or key not in b:
                return _report(where, a.get(key, _ABSENT),
                               b.get(key, _ABSENT))
            found = _diverge(a[key], b[key], where)
            if found is not None:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for index, (x, y) in enumerate(zip(a, b)):
            found = _diverge(x, y, f"{path}[{index}]")
            if found is not None:
                return found
        if len(a) == len(b):
            return None
        index = min(len(a), len(b))
        return _report(f"{path}[{index}]",
                       a[index] if index < len(a) else _ABSENT,
                       b[index] if index < len(b) else _ABSENT)
    if type(a) is type(b) and repr(a) == repr(b):
        return None
    return _report(path, a, b)


def _report(path: str, a, b) -> str:
    show = [value if value is _ABSENT else repr(value) for value in (a, b)]
    return f"{path.lstrip('.') or 'value'}: {show[0]} != {show[1]}"


def golden_digest(scenario: str = "scenario-1", algorithm: str = "l3",
                  duration_s: float = 30.0, seed: int = 1,
                  with_trace: bool = True) -> str:
    """Run one fixed-seed benchmark and return its behavior digest.

    With ``with_trace`` the run records full distributed traces and the
    digest additionally covers the byte-exact OTLP-JSON export — the
    strictest equality the tracing subsystem can express.
    """
    tracer = None
    if with_trace:
        from repro.tracing import MeshTracer, TracingConfig

        tracer = MeshTracer(TracingConfig(sample_rate=1.0))
    result = run_scenario_benchmark(
        scenario, algorithm, duration_s=duration_s, seed=seed, tracer=tracer)
    trace_blob = None
    if tracer is not None:
        from repro.tracing.export import to_otlp

        trace_blob = json.dumps(
            to_otlp(tracer.recorder), sort_keys=True,
            separators=(",", ":")).encode("utf-8")
    return digest_result(result, trace_blob)
