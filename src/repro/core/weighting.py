"""The L3 weighting algorithm (paper §3.1, Algorithm 1, Eq. 3 and Eq. 4).

For each backend ``b`` the algorithm combines four filtered data-plane
metrics — tail latency of successful requests ``L_s``, success rate ``R_s``,
requests per second ``R_rps`` and in-flight requests — into one weight:

1. normalise in-flight requests: ``R_i = inflight / R_rps`` (0 if no RPS);
2. estimate the client-perceived latency including retries (Eq. 3)::

       L_est = L_s + P * (1 / R_s - 1)

   where ``P`` is the penalty factor: the client-perceived round-trip cost
   of one failed attempt, multiplied by the expected number of extra tries
   of the geometric retry process;
3. map latency to a weight with the reciprocal of Eq. 4::

       w_b = 1 / ((R_i + 1)^2 * L_est)

   squaring ``R_i + 1`` amplifies the in-flight signal because queued
   requests dominate tail latency (paper §3.1, citing "The Tail at Scale");
4. floor the weight at a minimum so every backend keeps receiving enough
   traffic to stay observable.

TrafficSplit weights are dimensionless ratios, so the implementation scales
the raw reciprocal by ``weight_scale`` before flooring; all ratios — the
only thing the mesh consumes — are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

# Latency estimates at or below zero would make Eq. 4 blow up; anything
# under a microsecond is physically meaningless for an RPC.
_MIN_LATENCY_S = 1e-6

# A vanishing RPS with residual in-flight requests makes the normalised
# in-flight ratio astronomical; beyond this cap the weight is at the floor
# anyway, and squaring an unbounded ratio overflows floats.
_MAX_NORMALIZED_INFLIGHT = 1e6

# Below this RPS the backend effectively has no traffic; Algorithm 1's
# "R_rps != 0" guard means *meaningful* traffic — normalising a decaying
# in-flight EWMA by a decaying near-zero RPS EWMA yields pure noise.
_MIN_RPS_FOR_NORMALIZATION = 0.1


@dataclass(frozen=True)
class BackendSnapshot:
    """Filtered (EWMA) metrics of one backend at reconcile time.

    Attributes:
        name: backend identifier (e.g. ``"hotel-frontend/cluster-2"``).
        latency_s: filtered tail-percentile latency of successful requests,
            in seconds (the paper's ``L_s``, default percentile P99).
        success_rate: filtered success ratio in ``[0, 1]`` (``R_s``).
        rps: filtered requests per second (``R_rps``).
        inflight: filtered number of in-flight requests.
    """

    name: str
    latency_s: float
    success_rate: float
    rps: float
    inflight: float

    def __post_init__(self):
        if self.latency_s < 0:
            raise ValueError(f"negative latency for {self.name}: {self.latency_s}")
        if not 0.0 <= self.success_rate <= 1.0:
            raise ValueError(
                f"success rate for {self.name} outside [0, 1]: {self.success_rate}")
        if self.rps < 0:
            raise ValueError(f"negative RPS for {self.name}: {self.rps}")
        if self.inflight < 0:
            raise ValueError(f"negative in-flight for {self.name}: {self.inflight}")


@dataclass(frozen=True)
class WeightingConfig:
    """Tunables of Algorithm 1.

    Attributes:
        penalty_s: the penalty factor ``P`` in seconds (§5.2.1 settles on
            0.6 s as the latency/success-rate compromise).
        weight_scale: multiplier applied to the Eq. 4 reciprocal before
            flooring; only affects the absolute magnitude, never ratios.
        min_weight: weight floor guaranteeing continued metric collection.
        inflight_exponent: the exponent on ``(R_i + 1)`` — 2 in the paper;
            exposed for the ablation benches.
    """

    penalty_s: float = 0.6
    weight_scale: float = 1000.0
    min_weight: float = 1.0
    inflight_exponent: float = 2.0

    def __post_init__(self):
        if self.penalty_s < 0:
            raise ConfigError(f"penalty must be >= 0: {self.penalty_s}")
        if self.weight_scale <= 0:
            raise ConfigError(f"weight scale must be > 0: {self.weight_scale}")
        if self.min_weight < 0:
            raise ConfigError(f"min weight must be >= 0: {self.min_weight}")
        if self.inflight_exponent < 0:
            raise ConfigError(
                f"in-flight exponent must be >= 0: {self.inflight_exponent}")


def estimate_latency(latency_s: float, success_rate: float,
                     penalty_s: float) -> float:
    """Eq. 3: expected client-perceived latency including retries.

    ``1 / R_s`` is the expectation of the geometrically-distributed number
    of attempts until the first success; each extra attempt costs the
    penalty ``P``. A success rate of zero would make the estimate infinite,
    so Algorithm 1 (line 10-11) falls back to the raw latency — the weight
    floor keeps such a backend observable anyway.
    """
    if success_rate <= 0.0 or penalty_s == 0.0:
        return latency_s
    # Cap the expected number of tries: below ~1e-9 success the penalty
    # term is astronomically large either way, and an uncapped division
    # overflows to inf (0 * inf = nan would poison the weight).
    expected_tries = min(1.0 / success_rate, 1e12)
    return latency_s + penalty_s * (expected_tries - 1.0)


def weigh(latency_s: float, success_rate: float, rps: float,
          inflight: float, penalty_s: float, config: WeightingConfig) -> float:
    """Algorithm 1 body for a single backend; returns the floored weight.

    ``penalty_s`` overrides ``config.penalty_s``. The caps are spelled
    ``b if b > a else a``, exactly ``max(a, b)`` minus the call: this runs
    for every backend on every reconcile.
    """
    if penalty_s < 0:
        raise ValueError(f"negative penalty override: {penalty_s}")
    normalized_inflight = 0.0
    if rps >= _MIN_RPS_FOR_NORMALIZATION:
        normalized_inflight = inflight / rps
        if _MAX_NORMALIZED_INFLIGHT < normalized_inflight:
            normalized_inflight = _MAX_NORMALIZED_INFLIGHT
    latency_est = estimate_latency(latency_s, success_rate, penalty_s)
    if _MIN_LATENCY_S > latency_est:
        latency_est = _MIN_LATENCY_S
    raw = config.weight_scale / (
        (normalized_inflight + 1.0) ** config.inflight_exponent * latency_est)
    floor = config.min_weight
    return floor if floor > raw else raw


def backend_weight(snapshot: BackendSnapshot,
                   config: WeightingConfig) -> float:
    """Algorithm 1 for one snapshot under the static penalty."""
    return weigh(snapshot.latency_s, snapshot.success_rate, snapshot.rps,
                 snapshot.inflight, config.penalty_s, config)


def compute_weights(snapshots, config: WeightingConfig | None = None,
                    penalty_overrides: dict | None = None) -> dict:
    """Algorithm 1: map backend snapshots to weights.

    Args:
        snapshots: iterable of :class:`BackendSnapshot`.
        config: weighting tunables; defaults to the paper's values.
        penalty_overrides: optional per-backend penalty factor (seconds),
            used by the dynamic-penalty extension (paper §7 future work:
            "determine the penalty factor P individually and dynamically
            for each workload"); backends not listed use the static
            ``config.penalty_s``.

    Returns:
        dict mapping backend name to (float) weight, floored at
        ``config.min_weight``.
    """
    config = config or WeightingConfig()
    penalty_overrides = penalty_overrides or {}
    weights: dict[str, float] = {}
    for snapshot in snapshots:
        if snapshot.name in weights:
            raise ValueError(f"duplicate backend name: {snapshot.name}")
        penalty = penalty_overrides.get(snapshot.name)
        weights[snapshot.name] = weigh(
            snapshot.latency_s, snapshot.success_rate, snapshot.rps,
            snapshot.inflight,
            config.penalty_s if penalty is None else penalty, config)
    return weights
