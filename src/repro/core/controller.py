"""The L3 reconcile loop (paper §4, Fig. 5).

Every ``reconcile_interval_s`` the controller:

1. asks its :class:`MetricsSource` for fresh aggregated metrics of every
   backend of the TrafficSplit (in the paper: a windowed Prometheus query);
2. feeds them into the per-backend EWMAs, or — when a backend returned no
   metrics for long enough — decays that backend's filters toward their
   defaults;
3. runs the weighting algorithm (Algorithm 1) over the filtered values;
4. runs the rate controller (Algorithm 2) using the EWMA vs. latest sample
   of the *total* RPS;
5. writes integer weights into its :class:`WeightSink` (an SMI
   TrafficSplit in the paper).

The controller is deliberately transport-agnostic: it never imports the
mesh or telemetry packages, only the two small protocols below, which is
what lets the same class drive the simulated mesh, unit tests, and the
pure-algorithm benchmarks.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from repro.core.config import L3Config
from repro.core.ewma import Ewma, half_life_to_beta
from repro.core.rate_control import apply_rate_control, relative_change
from repro.core.state import BackendMetricState


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One backend's aggregated data-plane metrics over the query window.

    ``None`` instead of a whole sample means "no data" (the backend
    received no traffic in the window), triggering the controller's
    decay-toward-default path. ``latency_s=None`` within a sample means
    traffic flowed but nothing *succeeded* in the window — the success
    latency EWMA then simply keeps its previous value (§3.1: failure
    latency must never pollute the success-latency signal).
    """

    latency_s: float | None
    success_rate: float
    rps: float
    inflight: float
    # Windowed mean of successful-request latency. L3 ignores it (tail
    # percentiles are its design point); the C3 adaptation filters it, as
    # the original C3 EWMAs raw response times.
    mean_latency_s: float | None = None


class MetricsSource(typing.Protocol):
    """Where the controller gets its aggregated data-plane metrics."""

    def collect(self, backend_names: typing.Sequence[str], now: float,
                window_s: float, percentile: float,
                ) -> dict[str, MetricSample | None]:
        """Return a sample (or None) for every requested backend."""
        ...  # pragma: no cover - protocol


class WeightSink(typing.Protocol):
    """Where the controller writes the final traffic distribution."""

    def set_weights(self, weights: dict[str, int], now: float) -> None:
        """Propagate non-negative integer weights to the data plane."""
        ...  # pragma: no cover - protocol


class L3Controller:
    """The L3 operator's control loop over one TrafficSplit.

    Exposes its internal state (filtered metrics, raw and rate-controlled
    weights, the relative RPS change) after every reconcile, mirroring the
    paper's Prometheus/OpenTelemetry introspection of the Go operator.
    """

    def __init__(self, backend_names: typing.Sequence[str],
                 metrics_source: MetricsSource, weight_sink: WeightSink,
                 config: L3Config | None = None, start_time: float = 0.0):
        if not backend_names:
            raise ValueError("L3Controller needs at least one backend")
        if len(set(backend_names)) != len(backend_names):
            raise ValueError(f"duplicate backend names: {backend_names}")
        self.config = config or L3Config()
        self.metrics_source = metrics_source
        self.weight_sink = weight_sink
        self.backends: dict[str, BackendMetricState] = {
            name: BackendMetricState(name, self.config, start_time)
            for name in backend_names
        }
        self.total_rps_ewma = Ewma(
            self.config.default_rps,
            half_life_to_beta(self.config.rps_half_life_s), start_time)
        # Introspection of the last reconcile.
        self.last_raw_weights: dict[str, float] = {}
        self.last_weights: dict[str, int] = {}
        self.last_relative_change: float = 0.0
        self.last_total_rps: float = 0.0
        self.reconcile_count: int = 0
        # Degraded mode: reconciles that failed on the metrics source or
        # the weight sink. The controller holds last-known-good weights and
        # keeps running (the paper's operator must survive a Prometheus or
        # API-server outage without zeroing the TrafficSplit).
        self.degraded_reconciles: int = 0
        self.last_error: str | None = None
        # Pause support (fault injection): while paused the run loop skips
        # reconciles entirely, modelling a stalled/partitioned operator.
        self.paused: bool = False
        # Optional decision audit (duck-typed so the core stays free of
        # tracing imports): anything with record_decision(now, samples,
        # states, raw_weights, weights, relative_change, total_rps) and
        # record_degraded(now, error) — see
        # repro.tracing.audit.DecisionAuditLog. Every reconcile is
        # reported, making each weight push joinable to the data-plane
        # requests it routed.
        self.audit = None

    def add_backend(self, name: str, now: float) -> None:
        """Track a backend added to the TrafficSplit at runtime."""
        if name in self.backends:
            raise ValueError(f"backend already tracked: {name}")
        self.backends[name] = BackendMetricState(name, self.config, now)

    def remove_backend(self, name: str) -> None:
        """Stop tracking a backend removed from the TrafficSplit.

        The introspection snapshots drop the backend eagerly — a dashboard
        reading ``last_weights`` between the removal and the next reconcile
        must never see the ghost of a backend that no longer exists.
        """
        if name not in self.backends:
            raise ValueError(f"unknown backend: {name}")
        if len(self.backends) == 1:
            raise ValueError("cannot remove the last backend")
        del self.backends[name]
        self.last_weights.pop(name, None)
        self.last_raw_weights.pop(name, None)

    def pause(self) -> None:
        """Suspend the reconcile loop (fault injection: stalled operator)."""
        self.paused = True

    def resume(self) -> None:
        """Resume a paused reconcile loop."""
        self.paused = False

    def reconcile(self, now: float) -> dict[str, int]:
        """Run one full metrics → weights cycle and push to the sink.

        A failing metrics source or weight sink puts the reconcile in
        degraded mode instead of propagating: the last-known-good weights
        stay active in the data plane (the sink keeps whatever was pushed
        last), ``degraded_reconciles`` increments, and the next reconcile
        tries again from scratch. Internal errors (bugs) still propagate.
        """
        config = self.config
        try:
            samples = self.metrics_source.collect(
                list(self.backends), now, config.metrics_window_s,
                config.percentile)
        except Exception as exc:  # noqa: BLE001 - degraded mode by design
            return self._degrade(exc, now)

        failure_latency = self._failure_latency_reader()
        total_rps = 0.0
        raw_weights = {}
        for name, state in self.backends.items():
            sample = samples.get(name)
            if sample is None:
                if state.is_stale(now):
                    state.decay_toward_defaults(now)
            else:
                state.observe(now, sample.latency_s, sample.success_rate,
                              sample.rps, sample.inflight)
                total_rps += sample.rps
            if failure_latency is not None:
                observed = failure_latency(
                    name, now, config.metrics_window_s,
                    config.dynamic_penalty_percentile)
                if observed is not None:
                    state.failure_latency.observe(observed, now)
            raw_weights[name] = state.weight(config.weighting)

        rps_ewma_before = self.total_rps_ewma.value
        self.total_rps_ewma.observe(total_rps, now)
        if config.rate_control_enabled:
            adjusted = apply_rate_control(
                raw_weights, rps_ewma_before, total_rps,
                min_weight=config.weighting.min_weight)
            self.last_relative_change = relative_change(
                rps_ewma_before, total_rps)
        else:
            adjusted = dict(raw_weights)
            self.last_relative_change = 0.0

        if config.cost is not None:
            from repro.core.cost import apply_cost_bias

            adjusted = apply_cost_bias(
                adjusted, config.cost,
                min_weight=config.weighting.min_weight)

        # TrafficSplit weights are non-negative integers (SMI spec); round
        # half-up and keep at least 1 so no backend goes dark. (floor(w +
        # 0.5), not round(): Python rounds half to even, which would turn
        # 2.5 into 2.)
        weights = {
            name: max(math.floor(weight + 0.5), 1)
            for name, weight in adjusted.items()
        }
        try:
            self.weight_sink.set_weights(weights, now)
        except Exception as exc:  # noqa: BLE001 - degraded mode by design
            return self._degrade(exc, now)

        self.last_raw_weights = raw_weights
        self.last_weights = weights
        self.last_total_rps = total_rps
        self.reconcile_count += 1
        self.last_error = None
        if self.audit is not None:
            self.audit.record_decision(
                now=now, samples=samples, states=self.backends,
                raw_weights=raw_weights, weights=weights,
                relative_change=self.last_relative_change,
                total_rps=total_rps)
        return weights

    def _degrade(self, exc: Exception, now: float) -> dict[str, int]:
        """Record a failed reconcile and hold last-known-good weights."""
        self.degraded_reconciles += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        if self.audit is not None:
            self.audit.record_degraded(now, self.last_error)
        return dict(self.last_weights)

    def _failure_latency_reader(self):
        """What feeds each backend's penalty filter, or None.

        Paper §7 future work: "The continuous feedback about the response
        time of unsuccessful requests could be used" to set P per
        workload. When the metrics source can report a windowed percentile
        of failed-request latency, each backend's penalty tracks it
        through an EWMA; without failure data — or without the extension —
        the filter holds (and started at the static penalty).
        """
        if not self.config.dynamic_penalty:
            return None
        return getattr(self.metrics_source, "failure_latency_quantile", None)
