"""Operator observability (paper §4).

"Information about the internal state of the controller and algorithm is
exposed through Prometheus or OpenTelemetry metrics ... enabling human
operators and other systems to infer the internal state at any point in
time." This module wires an :class:`~repro.core.controller.L3Controller`'s
internals (per-backend EWMA values, raw and final weights, the relative
RPS change, reconcile count) into the same scrape pipeline the data-plane
metrics use — which is also how the paper's benchmark coordinator records
L3's internal state at one-second granularity to explain observed
behaviour.
"""

from __future__ import annotations

from repro.telemetry.names import (
    AUDIT_DECISIONS,
    DEGRADED_RECONCILES,
    INFLIGHT_EWMA,
    LATENCY_EWMA_S,
    RAW_WEIGHT,
    RECONCILE_COUNT,
    RELATIVE_CHANGE,
    RPS_EWMA,
    SUCCESS_RATE_EWMA,
    TOTAL_RPS_EWMA,
    WEIGHT,
)


class ControllerIntrospection:
    """Registers a controller's internals as custom scrape gauges.

    Per-backend series are stored under ``"{prefix}|{backend}"``; the
    controller-wide series under ``"{prefix}"`` itself.
    """

    def __init__(self, controller, prefix: str = "l3"):
        self.controller = controller
        self.prefix = prefix

    def register(self, scraper) -> None:
        """Attach every internal gauge to ``scraper``."""
        controller = self.controller
        for name in controller.backends:
            series = f"{self.prefix}|{name}"
            scraper.register_gauge(
                series, WEIGHT,
                lambda n=name: controller.last_weights.get(n, 0))
            scraper.register_gauge(
                series, RAW_WEIGHT,
                lambda n=name: controller.last_raw_weights.get(n, 0.0))
            scraper.register_gauge(
                series, LATENCY_EWMA_S,
                lambda n=name: controller.backends[n].latency.value)
            scraper.register_gauge(
                series, SUCCESS_RATE_EWMA,
                lambda n=name: controller.backends[n].success_rate.value)
            scraper.register_gauge(
                series, RPS_EWMA,
                lambda n=name: controller.backends[n].rps.value)
            scraper.register_gauge(
                series, INFLIGHT_EWMA,
                lambda n=name: controller.backends[n].inflight.value)
        scraper.register_gauge(
            self.prefix, RELATIVE_CHANGE,
            lambda: controller.last_relative_change)
        scraper.register_gauge(
            self.prefix, RECONCILE_COUNT,
            lambda: controller.reconcile_count)
        scraper.register_gauge(
            self.prefix, TOTAL_RPS_EWMA,
            lambda: controller.total_rps_ewma.value)
        scraper.register_gauge(
            self.prefix, DEGRADED_RECONCILES,
            lambda: controller.degraded_reconciles)
        # Audit depth (0 until a DecisionAuditLog is attached): lets a
        # dashboard confirm the decision log is actually recording.
        scraper.register_gauge(
            self.prefix, AUDIT_DECISIONS,
            lambda: len(controller.audit.decisions)
            if controller.audit is not None else 0)

    def weight_series(self, store, backend: str, start: float,
                      end: float) -> list:
        """Convenience: the scraped weight history of one backend."""
        return store.series(f"{self.prefix}|{backend}", WEIGHT).window(
            start, end)
