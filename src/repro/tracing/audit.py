"""The controller decision audit log.

The paper's operator exposes "information about the internal state of the
controller and algorithm ... enabling human operators and other systems to
infer the internal state at any point in time" (§4). Scraped gauges (see
:mod:`repro.core.introspection`) answer *what is the state now*; the audit
log answers the harder forensic question — *which decision routed this
request, and what inputs produced it*.

Attach a :class:`DecisionAuditLog` to any
:class:`~repro.core.controller.ReconcileController` (``controller.audit =
log``) and every reconcile appends one :class:`ReconcileDecision` carrying
its inputs (the raw per-backend
:class:`~repro.core.controller.MetricSample` values) and its output (the
final integer weights); an L3 controller adds its post-filter EWMA states,
raw weights and rate-control signals. When the log is also given a
:class:`~repro.tracing.recorder.MeshTracer`, each decision additionally
becomes an ``l3.reconcile`` span in the same recorder the data-plane
spans land in — and data-plane *attempt* spans stamp
``decision_id`` so the two sides join exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tracing.model import ERROR, INTERNAL, RECONCILE


@dataclass(frozen=True)
class ReconcileDecision:
    """One reconcile's full input → output record.

    Attributes:
        decision_id: monotonically increasing within one controller run;
            attempt spans reference it via the ``decision_id`` attribute.
        time_s: simulation time of the reconcile.
        backends: backend name → flat dict of that backend's inputs:
            the raw sample (``sample_latency_s``, ``sample_success_rate``,
            ``sample_rps``, ``sample_inflight``; absent when the backend
            returned no data) and L3's filtered state (``ewma_latency_s``,
            ``ewma_success_rate``, ``ewma_rps``, ``ewma_inflight``).
        raw_weights: L3's Algorithm 1 output before rate control.
        weights: final integer weights pushed to the TrafficSplit.
        relative_change: L3's rate-controller input signal.
        total_rps: L3's summed backend RPS of the window.
        error: set (and everything above empty) on a degraded reconcile.
    """

    decision_id: int
    time_s: float
    backends: dict = field(default_factory=dict)
    raw_weights: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    relative_change: float = 0.0
    total_rps: float = 0.0
    error: str | None = None


class DecisionAuditLog:
    """Records every reconcile decision; optionally emits audit spans."""

    def __init__(self, tracer=None, prefix: str = "l3"):
        """Args:
            tracer: optional :class:`~repro.tracing.recorder.MeshTracer`;
                when given, each decision is also recorded as an
                ``l3.reconcile`` span.
            prefix: controller label carried on the spans (matches the
                introspection prefix so dashboards line up).
        """
        self.tracer = tracer
        self.prefix = prefix
        self.decisions: list[ReconcileDecision] = []

    @property
    def last_decision_id(self) -> int:
        """Id of the most recent decision (0 before the first one)."""
        return self.decisions[-1].decision_id if self.decisions else 0

    # ------------------------------------------------------------------ #
    # Controller-facing hooks (duck-typed; see ReconcileController.audit)
    # ------------------------------------------------------------------ #

    def record_decision(self, now: float, samples: dict, weights: dict,
                        states: dict | None = None,
                        raw_weights: dict | None = None,
                        relative_change: float = 0.0,
                        total_rps: float = 0.0) -> None:
        """Append one successful reconcile.

        Args:
            now: reconcile time.
            samples: backend → :class:`MetricSample` or ``None``, exactly
                as the metrics source returned them.
            weights: the final integer weights.
            states / raw_weights / relative_change / total_rps: L3's
                extras — backend → :class:`BackendMetricState` *after*
                this reconcile's observe step, Algorithm 1 output and
                the rate-controller signals.
        """
        states = states or {}
        backends = {}
        for name in states or weights:
            state = states.get(name)
            row = {} if state is None else {
                "ewma_latency_s": state.latency.value,
                "ewma_success_rate": state.success_rate.value,
                "ewma_rps": state.rps.value,
                "ewma_inflight": state.inflight.value,
            }
            sample = samples.get(name)
            if sample is not None:
                row.update(
                    sample_latency_s=sample.latency_s,
                    sample_success_rate=sample.success_rate,
                    sample_rps=sample.rps,
                    sample_inflight=sample.inflight,
                )
            backends[name] = row
        decision = ReconcileDecision(
            decision_id=len(self.decisions) + 1, time_s=now,
            backends=backends, raw_weights=dict(raw_weights or {}),
            weights=dict(weights), relative_change=relative_change,
            total_rps=total_rps)
        self.decisions.append(decision)
        self._emit_span(decision)

    def record_degraded(self, now: float, error: str) -> None:
        """Append one failed (degraded-mode) reconcile."""
        decision = ReconcileDecision(
            decision_id=len(self.decisions) + 1, time_s=now, error=error)
        self.decisions.append(decision)
        self._emit_span(decision)

    # ------------------------------------------------------------------ #
    # Span emission
    # ------------------------------------------------------------------ #

    def _emit_span(self, decision: ReconcileDecision) -> None:
        if self.tracer is None:
            return
        attributes = {
            "controller": self.prefix,
            "decision_id": decision.decision_id,
            "relative_change": decision.relative_change,
            "total_rps": decision.total_rps,
        }
        for backend, row in decision.backends.items():
            for key, value in row.items():
                attributes[f"{backend}.{key}"] = value
        for backend, weight in decision.raw_weights.items():
            attributes[f"{backend}.raw_weight"] = weight
        for backend, weight in decision.weights.items():
            attributes[f"{backend}.weight"] = weight
        if decision.error is not None:
            attributes["error"] = decision.error
        ctx = self.tracer.decision_trace()
        span = ctx.start(RECONCILE, INTERNAL, decision.time_s,
                         attributes=attributes)
        ctx.end(span, decision.time_s,
                status=ERROR if decision.error is not None else "ok")
