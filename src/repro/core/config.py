"""Configuration of the reconcile loops (paper §3 and §4 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.core.weighting import WeightingConfig


@dataclass(frozen=True)
class ReconcileConfig:
    """The cadence every reconcile-loop controller shares.

    Attributes:
        reconcile_interval_s: how often metrics are fetched and weights
            written (§4: every 5 s).
        metrics_window_s: trailing window for counter-rate queries (§4:
            10 s, so the window always holds at least two scrape samples).
        percentile: latency percentile the metrics query returns.
            §3.1 uses P99 and notes P98 / P99.9 are drop-in alternatives.
    """

    reconcile_interval_s: float = 5.0
    metrics_window_s: float = 10.0
    percentile: float = 0.99

    def __post_init__(self):
        for name in ("reconcile_interval_s", "metrics_window_s"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive: {value}")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError(f"percentile must be in (0, 1): {self.percentile}")


@dataclass(frozen=True)
class L3Config(ReconcileConfig):
    """All tunables of the L3 control loop, defaulting to the paper's values.

    Attributes:
        weighting: Algorithm 1 tunables (penalty factor et al.).
        use_peak_ewma: filter latency with PeakEWMA (Eq. 2) instead of
            EWMA (Eq. 1). §5.2.2 finds plain EWMA slightly better overall.
        latency_half_life_s / inflight_half_life_s: EWMA half-lives (§4: 5 s).
        success_half_life_s / rps_half_life_s: EWMA half-lives (§4: 10 s).
        default_latency_s: EWMA default λ for latency (§4: 5 s).
        default_success_rate: EWMA default for success rate (§4: 100 %).
        default_rps: EWMA default for RPS (§4: 0).
        staleness_s: with no metrics for this long, EWMAs start converging
            back toward their defaults (§4: at least 10 s without traffic).
        decay_fraction: per-reconcile fraction of the gap to the default
            closed while stale ("in small increments").
        rate_control_enabled: toggle for the Algorithm 2 stage (ablation).
    """

    weighting: WeightingConfig = field(default_factory=WeightingConfig)
    use_peak_ewma: bool = False
    latency_half_life_s: float = 5.0
    inflight_half_life_s: float = 5.0
    success_half_life_s: float = 10.0
    rps_half_life_s: float = 10.0
    default_latency_s: float = 5.0
    default_success_rate: float = 1.0
    default_rps: float = 0.0
    staleness_s: float = 10.0
    decay_fraction: float = 0.1
    rate_control_enabled: bool = True
    # --- extensions beyond the paper's evaluated system --------------- #
    # §7 future work: derive the penalty factor per backend from the
    # observed latency of failed requests instead of a static constant.
    dynamic_penalty: bool = False
    dynamic_penalty_percentile: float = 0.90
    dynamic_penalty_half_life_s: float = 10.0
    # §6/§7: bias weights against costly cross-cluster transfer.
    cost: object | None = None  # Optional[CostConfig]

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.dynamic_penalty_percentile < 1.0:
            raise ConfigError(
                "dynamic penalty percentile must be in (0, 1): "
                f"{self.dynamic_penalty_percentile}")
        if self.dynamic_penalty_half_life_s <= 0:
            raise ConfigError(
                "dynamic penalty half-life must be positive: "
                f"{self.dynamic_penalty_half_life_s}")
        for name in ("latency_half_life_s", "inflight_half_life_s",
                     "success_half_life_s", "rps_half_life_s",
                     "default_latency_s", "staleness_s"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive: {value}")
        if not 0.0 <= self.default_success_rate <= 1.0:
            raise ConfigError(
                f"default success rate outside [0, 1]: {self.default_success_rate}")
        if self.default_rps < 0:
            raise ConfigError(f"default RPS must be >= 0: {self.default_rps}")
        if not 0.0 < self.decay_fraction <= 1.0:
            raise ConfigError(
                f"decay fraction must be in (0, 1]: {self.decay_fraction}")
        if self.metrics_window_s < self.reconcile_interval_s:
            raise ConfigError(
                "metrics window must cover at least one reconcile interval "
                f"({self.metrics_window_s} < {self.reconcile_interval_s})")
