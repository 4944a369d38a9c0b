"""The reconcile loop every controller shares, and L3's (paper §4, Fig. 5).

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
from operator import attrgetter

from repro.core.config import L3Config, ReconcileConfig
from repro.core.ewma import Ewma, half_life_to_beta
from repro.core.rate_control import apply_rate_control, relative_change
from repro.core.state import BackendMetricState
from repro.errors import ConfigError


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


def validate_backend_pool(backend_names, algorithm: str) -> list[str]:
    """Validate a backend pool the same way for every balancer.

    Every balancer accepts the degenerate one-backend pool (it must
    return that backend without attempting to sample two distinct ones)
    and rejects the two states no pick can recover from: an empty pool
    and duplicate names (duplicates silently skew every sampling scheme).
    """
    names = list(backend_names)
    if not names:
        raise ConfigError(f"{algorithm} needs at least one backend")
    if len(set(names)) != len(names):
        raise ConfigError(f"{algorithm}: duplicate backends: {names}")
    return names


_LATENCY_SIGNALS = {
    "mean": attrgetter("mean_latency_s"),
    "percentile": attrgetter("latency_s"),
}


def latency_signal_reader(signal: str):
    """The :class:`MetricSample` field a config's ``latency_signal`` names
    (``"mean"`` or ``"percentile"``); raises ``ConfigError`` otherwise."""
    reader = _LATENCY_SIGNALS.get(signal)
    if reader is None:
        raise ConfigError(
            f"latency_signal must be 'mean' or 'percentile': {signal!r}")
    return reader


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


class ReconcileController:
    """One periodic loop over one TrafficSplit: collect, solve, push.

    Subclasses supply the algorithm: :meth:`new_backend` (one backend's
    filter or model state, kept in ``backends``), :meth:`solve` (samples
    → integer weights) and optionally :meth:`committed`, run once the
    weights reached the sink. While ``paused`` (fault injection: a stalled
    operator) the run loop skips reconciles entirely.
    """

    #: The config a controller built with ``config=None`` runs.
    config_type: type[ReconcileConfig] = ReconcileConfig

    def __init__(self, backend_names: typing.Sequence[str],
                 metrics_source: MetricsSource, weight_sink: WeightSink,
                 config: ReconcileConfig | None = None,
                 start_time: float = 0.0):
        names = validate_backend_pool(backend_names, type(self).__name__)
        self.config = config or self.config_type()
        self.metrics_source = metrics_source
        self.weight_sink = weight_sink
        self.backends = {name: self.new_backend(name, start_time)
                         for name in names}
        self.paused: bool = False
        self.last_weights: dict[str, int] = {}
        self.reconcile_count: int = 0
        # Degraded mode: reconciles that failed on the metrics source or
        # the weight sink. The controller holds last-known-good weights and
        # keeps running (the paper's operator must survive a Prometheus or
        # API-server outage without zeroing the TrafficSplit).
        self.degraded_reconciles: int = 0
        self.last_error: str | None = None
        # Optional decision audit (duck-typed so the core stays free of
        # tracing imports): anything with record_decision(now, samples,
        # weights, **extras) and record_degraded(now, error) — see
        # repro.tracing.audit.DecisionAuditLog.
        self.audit = None

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
        weights = self.solve(samples, now)
        try:
            self.weight_sink.set_weights(weights, now)
        except Exception as exc:  # noqa: BLE001 - degraded mode by design
            return self._degrade(exc, now)
        self.last_weights = weights
        self.reconcile_count += 1
        self.last_error = None
        extras = self.committed(samples, weights, now)
        if self.audit is not None:
            self.audit.record_decision(now, samples, weights, **extras)
        return weights

    def new_backend(self, name: str, start_time: float):
        """The state the algorithm keeps for backend ``name``."""
        raise NotImplementedError

    def solve(self, samples: dict[str, MetricSample | None],
              now: float) -> dict[str, int]:
        """One round of samples → integer weights (the algorithm)."""
        raise NotImplementedError

    def committed(self, samples: dict[str, MetricSample | None],
                  weights: dict[str, int], now: float) -> dict:
        """Hook: ``weights`` reached the sink. Returns what the audit
        records with the decision besides its samples and weights."""
        return {}

    def _degrade(self, exc: Exception, now: float) -> dict[str, int]:
        """Record a failed reconcile and hold last-known-good weights."""
        self.degraded_reconciles += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        if self.audit is not None:
            self.audit.record_degraded(now, self.last_error)
        return dict(self.last_weights)


class L3Controller(ReconcileController):
    """The L3 operator's control loop over one TrafficSplit.

    Exposes its internal state (filtered metrics, raw and rate-controlled
    weights, the relative RPS change) after every reconcile, mirroring the
    paper's Prometheus/OpenTelemetry introspection of the Go operator.
    Its audit decisions carry the EWMA states, raw weights, relative
    change and total RPS besides the samples and weights.
    """

    config_type = L3Config

    def __init__(self, backend_names: typing.Sequence[str],
                 metrics_source: MetricsSource, weight_sink: WeightSink,
                 config: L3Config | None = None, start_time: float = 0.0):
        super().__init__(backend_names, metrics_source, weight_sink,
                         config, start_time)
        self.total_rps_ewma = Ewma(
            self.config.default_rps,
            half_life_to_beta(self.config.rps_half_life_s), start_time)
        # Introspection of the last reconcile.
        self.last_raw_weights: dict[str, float] = {}
        self.last_relative_change: float = 0.0
        self.last_total_rps: float = 0.0
        self._decision: tuple = ()

    def new_backend(self, name: str, start_time: float) -> BackendMetricState:
        return BackendMetricState(name, self.config, start_time)

    def solve(self, samples, now: float) -> dict[str, int]:
        """Filter the samples, weigh (Algorithm 1), rate-control
        (Algorithm 2), bias for cost and round."""
        config = self.config
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
            change = relative_change(rps_ewma_before, total_rps)
        else:
            adjusted = dict(raw_weights)
            change = 0.0

        if config.cost is not None:
            from repro.core.cost import apply_cost_bias

            adjusted = apply_cost_bias(
                adjusted, config.cost,
                min_weight=config.weighting.min_weight)

        self._decision = (raw_weights, total_rps, change)
        # TrafficSplit weights are non-negative integers (SMI spec); round
        # half-up and keep at least 1 so no backend goes dark. (floor(w +
        # 0.5), not round(): Python rounds half to even, which would turn
        # 2.5 into 2.)
        return {
            name: max(math.floor(weight + 0.5), 1)
            for name, weight in adjusted.items()
        }

    def committed(self, samples, weights: dict[str, int],
                  now: float) -> dict:
        raw_weights, total_rps, change = self._decision
        self.last_raw_weights = raw_weights
        self.last_total_rps = total_rps
        self.last_relative_change = change
        return {"states": self.backends, "raw_weights": raw_weights,
                "relative_change": change, "total_rps": total_rps}

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
