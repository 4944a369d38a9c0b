"""The L3 rate-control algorithm (paper §3.2, Algorithm 2, Eq. 5).

The weighting algorithm alone concentrates traffic on the fastest backends.
On a sudden RPS *increase* that risks pushing those backends past their
capacity, so the rate controller pulls every weight toward the average —
spreading load while autoscalers catch up. On an RPS *decrease*, freed-up
capacity lets the controller opportunistically push weights apart, shifting
proportionally more traffic to the fast backends.

The control signal is the relative change ``c`` between the EWMA of the
total RPS across all backends and the latest total-RPS sample; the EWMA lags
a trend change, so ``c`` measures how sharply demand just moved.
"""

from __future__ import annotations

from repro.errors import ConfigError

# Relative change is unbounded when the RPS EWMA is ~0 and traffic starts;
# capping keeps the (1 + c^2)^(3/2) arithmetic finite without changing
# behaviour (the output is already fully converged to the mean long before
# the cap).
_MAX_RELATIVE_CHANGE = 1e6


def relative_change(rps_ewma: float, rps_last: float) -> float:
    """Relative change from the RPS EWMA to the latest sample.

    Positive means demand is rising, negative falling. With a zero EWMA
    (no traffic baseline) any incoming traffic is an "infinite" increase;
    the value is capped so downstream arithmetic stays finite.
    """
    if rps_ewma < 0 or rps_last < 0:
        raise ValueError(
            f"RPS values must be >= 0: ewma={rps_ewma} last={rps_last}")
    if rps_ewma == 0.0:
        return _MAX_RELATIVE_CHANGE if rps_last > 0 else 0.0
    change = (rps_last - rps_ewma) / rps_ewma
    return max(-_MAX_RELATIVE_CHANGE, min(change, _MAX_RELATIVE_CHANGE))


def adjust_weight(weight: float, mean_weight: float, change: float) -> float:
    """Algorithm 2 body for one weight (before the floor).

    For ``change > 0`` (Eq. 5) the weight converges asymptotically to the
    mean — the larger the surge, the more uniform the distribution::

        w(c) = w_mu - w_mu / (1 + c^2)^1.5 + w_b / (1 + c^2)^1.5

    For ``change < 0`` the weight moves *away* from the mean: below-average
    weights shrink (``w_b / (1 + 2 c^2)^1.5``) and above-average weights
    grow (``2 w_b - w_mu - (w_b - w_mu) / (1 + 3 c^2)^1.5``), shifting
    traffic opportunistically to the fast backends. ``change == 0`` leaves
    the weight untouched.
    """
    return _adjuster(mean_weight, change)(weight)


def _adjuster(mean_weight: float, change: float):
    """:func:`adjust_weight` for one (mean, change) pair, as a function of
    the weight: the ``(1 + k c^2)^1.5`` factors are computed once."""
    if change > 0.0:
        damping = (1.0 + change * change) ** 1.5
        return lambda weight: (
            mean_weight - mean_weight / damping + weight / damping)
    if change < 0.0:
        shrink = (1.0 + 2.0 * change * change) ** 1.5
        spread = (1.0 + 3.0 * change * change) ** 1.5
        return lambda weight: (
            weight / shrink if weight <= mean_weight
            else 2.0 * weight - mean_weight - (weight - mean_weight) / spread)
    return lambda weight: weight


def apply_rate_control(weights: dict, rps_ewma: float, rps_last: float,
                       min_weight: float = 1.0) -> dict:
    """Algorithm 2: adjust all weights for the current RPS trend.

    Args:
        weights: backend name → weight from Algorithm 1.
        rps_ewma: EWMA of the total RPS across all backends.
        rps_last: the latest total-RPS sample.
        min_weight: floor guaranteeing continued metric collection.

    Returns:
        New dict of adjusted weights (input is not mutated).
    """
    if min_weight < 0:
        raise ConfigError(f"min weight must be >= 0: {min_weight}")
    if not weights:
        return {}
    adjust = _adjuster(sum(weights.values()) / len(weights),
                       relative_change(rps_ewma, rps_last))
    return {name: max(adjust(weight), min_weight)
            for name, weight in weights.items()}
