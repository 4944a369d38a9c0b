"""Trace exporters and the §5.1 round-trip back into scenarios.

Two on-disk formats:

* **OTLP-style JSON** (``format="otlp"``): the OpenTelemetry protocol's
  JSON encoding (``resourceSpans`` → ``scopeSpans`` → ``spans`` with
  hex-encoded ids and nanosecond timestamps). This is the interchange
  format: :func:`workload_spans` turns it back into
  :class:`repro.workloads.spans.Span` trees, so a recorded simulation
  feeds straight into :func:`~repro.workloads.spans.scenario_from_spans`
  — the same methodology the paper applied to its production traces
  ("we excluded network delay spans ... focus solely on extracting
  service execution latency"), closing the
  simulate → trace → rebuild → re-simulate loop.
* **Chrome trace-event JSON** (``format="chrome"``): loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` for visual
  inspection — each trace renders as one track, the controller's
  ``l3.reconcile`` decisions as instant events on their own track.

All output is byte-deterministic: ids and timestamps are integers, keys
are sorted, and the recorder's content is a pure function of the seed.
"""

from __future__ import annotations

import json
import pathlib
import typing

from repro.errors import ConfigError
from repro.tracing import model

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.workloads.spans import Span as WorkloadSpan

TRACE_FORMATS = ("otlp", "chrome")

# OTLP SpanKind enum values (trace.proto).
_OTLP_KIND = {
    model.INTERNAL: 1,
    model.SERVER: 2,
    model.CLIENT: 3,
    # OTLP has no network kind; WAN spans export as CLIENT with the
    # original kind preserved in the "repro.kind" attribute.
    model.NETWORK: 3,
}

# OTLP Status.StatusCode: 1 = OK, 2 = ERROR.
_OTLP_STATUS = {model.OK: 1, model.ERROR: 2, model.TIMEOUT: 2}


def _otlp_value(value) -> dict:
    """One attribute value in OTLP's AnyValue JSON encoding."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(attributes: dict) -> list:
    return [
        {"key": key, "value": _otlp_value(value)}
        for key, value in sorted(attributes.items())
    ]


def to_otlp(recorder) -> dict:
    """Encode a recorder's finished spans as an OTLP-JSON document."""
    spans = []
    for span in recorder.finished_spans():
        encoded = {
            "traceId": f"{span.trace_id:032x}",
            "spanId": f"{span.span_id:016x}",
            "name": span.name,
            "kind": _OTLP_KIND[span.kind],
            "startTimeUnixNano": str(int(round(span.start_s * 1e9))),
            "endTimeUnixNano": str(int(round(span.end_s * 1e9))),
            "attributes": _otlp_attributes(
                {**span.attributes, "repro.kind": span.kind,
                 "repro.status": span.status}),
            "status": {"code": _OTLP_STATUS[span.status]},
        }
        if span.parent_id is not None:
            encoded["parentSpanId"] = f"{span.parent_id:016x}"
        spans.append(encoded)
    return {
        "resourceSpans": [{
            "resource": {"attributes": _otlp_attributes(
                {"service.name": "repro-mesh"})},
            "scopeSpans": [{
                "scope": {"name": "repro.tracing"},
                "spans": spans,
            }],
        }],
    }


def to_chrome(recorder) -> dict:
    """Encode a recorder's finished spans as Chrome trace events.

    Data-plane traces get one thread (track) per trace id under pid 1;
    controller decisions render as instant events under pid 2, so the
    Perfetto timeline shows requests and the decisions that routed them
    on the same clock.
    """
    events = []
    for span in recorder.finished_spans():
        start_us = int(round(span.start_s * 1e6))
        duration_us = int(round(span.duration_s * 1e6))
        args = {key: str(value)
                for key, value in sorted(span.attributes.items())}
        args["status"] = span.status
        if span.name == model.RECONCILE:
            events.append({
                "name": span.name, "cat": span.kind, "ph": "i",
                "ts": start_us, "pid": 2, "tid": 1, "s": "g",
                "args": args,
            })
            continue
        events.append({
            "name": span.name, "cat": span.kind, "ph": "X",
            "ts": start_us, "dur": duration_us,
            "pid": 1, "tid": span.trace_id,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_trace(recorder, path, fmt: str = "otlp") -> None:
    """Write a recorder's spans to ``path`` in the chosen format."""
    if fmt not in TRACE_FORMATS:
        raise ConfigError(
            f"trace format must be one of {TRACE_FORMATS}: {fmt!r}")
    document = to_otlp(recorder) if fmt == "otlp" else to_chrome(recorder)
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_otlp(path) -> dict:
    """Read an OTLP-JSON document written by :func:`export_trace`."""
    path = pathlib.Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigError(f"not a valid OTLP-JSON file: {path}") from error


# --------------------------------------------------------------------- #
# The round trip: OTLP JSON -> workloads.spans.Span trees
# --------------------------------------------------------------------- #

def _decode_attributes(encoded: list) -> dict:
    out = {}
    for entry in encoded or ():
        value = entry.get("value", {})
        if "stringValue" in value:
            out[entry["key"]] = value["stringValue"]
        elif "intValue" in value:
            out[entry["key"]] = int(value["intValue"])
        elif "doubleValue" in value:
            out[entry["key"]] = value["doubleValue"]
        elif "boolValue" in value:
            out[entry["key"]] = value["boolValue"]
    return out


def _iter_otlp_spans(data: dict):
    for resource in data.get("resourceSpans", ()):
        for scope in resource.get("scopeSpans", ()):
            yield from scope.get("spans", ())


def workload_spans(data: dict, rebase: bool = True) -> list[WorkloadSpan]:
    """Convert an OTLP-JSON export into §5.1-style workload spans.

    Each data-plane *attempt* span becomes one ``server`` workload span
    (service latency as the client proxy observed it, attributed to the
    backend's cluster) with its WAN legs attached as direct ``network``
    children — exactly the tree shape
    :func:`repro.workloads.spans.execution_latencies` expects, so the
    network exclusion subtracts the simulated WAN transit and what
    remains is (proxy overhead +) queue + execution time.

    Args:
        data: document produced by :func:`to_otlp` / :func:`load_otlp`.
        rebase: shift timestamps so the earliest attempt starts at 0
            (benchmark exports carry the warm-up offset otherwise).
    """
    from repro.mesh.cluster import split_backend_name
    from repro.workloads.spans import NETWORK as WL_NETWORK
    from repro.workloads.spans import SERVER as WL_SERVER
    from repro.workloads.spans import Span as WorkloadSpan

    decoded = []
    for span in _iter_otlp_spans(data):
        attributes = _decode_attributes(span.get("attributes"))
        decoded.append({
            "trace_id": span["traceId"],
            "span_id": span["spanId"],
            "parent_id": span.get("parentSpanId"),
            "name": span["name"],
            "kind": attributes.get("repro.kind", ""),
            "start_s": int(span["startTimeUnixNano"]) / 1e9,
            "end_s": int(span["endTimeUnixNano"]) / 1e9,
            "attributes": attributes,
        })

    attempts = [s for s in decoded if s["name"] == model.ATTEMPT]
    if not attempts:
        return []
    offset = min(s["start_s"] for s in attempts) if rebase else 0.0

    out = []
    for attempt in attempts:
        backend = attempt["attributes"].get("backend")
        if not backend:
            continue
        service, cluster = split_backend_name(backend)
        out.append(WorkloadSpan(
            trace_id=attempt["trace_id"], span_id=attempt["span_id"],
            parent_id=None, service=service, cluster=cluster,
            start_s=attempt["start_s"] - offset,
            end_s=attempt["end_s"] - offset, kind=WL_SERVER))
    attempt_ids = {(s["trace_id"], s["span_id"]) for s in attempts}
    for span in decoded:
        if span["kind"] != model.NETWORK:
            continue
        if (span["trace_id"], span["parent_id"]) not in attempt_ids:
            continue
        out.append(WorkloadSpan(
            trace_id=span["trace_id"], span_id=span["span_id"],
            parent_id=span["parent_id"],
            service=span["attributes"].get("link", span["name"]),
            cluster=span["attributes"].get("dst", ""),
            start_s=span["start_s"] - offset,
            end_s=span["end_s"] - offset, kind=WL_NETWORK))
    return out


def scenario_from_otlp(data_or_path, service: str, duration_s: float,
                       bucket_s: float = 15.0, name: str | None = None):
    """Rebuild a runnable scenario from an OTLP-JSON trace export.

    The full loop: ``run_scenario_benchmark(..., tracer=...)`` →
    :func:`export_trace` → this function →
    ``run_scenario_benchmark(rebuilt, ...)``.
    """
    from repro.workloads.spans import scenario_from_spans

    data = data_or_path
    if not isinstance(data, dict):
        data = load_otlp(data_or_path)
    return scenario_from_spans(
        workload_spans(data), service, duration_s,
        bucket_s=bucket_s, name=name)
