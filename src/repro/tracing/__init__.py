"""Per-request distributed tracing for the simulated mesh.

The subsystem closes the paper's observability loop: the simulated data
plane emits OpenTelemetry-style spans for every leg of the request path
(client proxy → WAN → server queue → execution → response, including
retries, timeouts and outlier-ejection skips), the controller emits one
decision-audit span per reconcile, and the exporters write OTLP-style
JSON (which feeds back into :mod:`repro.workloads.spans`' §5.1 scenario
builder) or Chrome trace events (Perfetto-loadable). Off by default —
an untraced mesh pays one ``None`` check per request.

Quickstart::

    from repro import MeshTracer, TracingConfig, run_scenario_benchmark
    from repro.tracing import export_trace

    tracer = MeshTracer(TracingConfig(sample_rate=0.1))
    result = run_scenario_benchmark("scenario-1", "l3", duration_s=60.0,
                                    tracer=tracer)
    export_trace(tracer.recorder, "trace.json", fmt="otlp")
"""

from repro._lazy import lazy_exports

__all__ = [
    "DecisionAuditLog",
    "MeshTracer",
    "ReconcileDecision",
    "SPAN_KINDS",
    "SpanRecorder",
    "TRACE_FORMATS",
    "TraceContext",
    "TraceSpan",
    "TracingConfig",
    "export_trace",
    "load_otlp",
    "sample_decision",
    "scenario_from_otlp",
    "to_chrome",
    "to_otlp",
    "workload_spans",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tracing.audit": ("DecisionAuditLog", "ReconcileDecision"),
    "repro.tracing.export": (
        "TRACE_FORMATS", "export_trace", "load_otlp", "scenario_from_otlp",
        "to_chrome", "to_otlp", "workload_spans"),
    "repro.tracing.model": ("SPAN_KINDS", "TraceSpan"),
    "repro.tracing.recorder": (
        "MeshTracer", "SpanRecorder", "TraceContext", "TracingConfig",
        "sample_decision"),
})
