"""Time-varying workload profiles.

The paper's TIER Mobility scenarios are published only as time series of
per-cluster median/P99 latency, RPS and success rate (Figs. 1, 2, 6, 7a).
We model each series as a piecewise-linear function of time and sample
request latencies from a log-normal distribution pinned to the current
median and P99 (§3.1 observes network latency is well characterised by a
log-normal).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.normal import NV_MAGICCONST, Z_P99


class PiecewiseSeries:
    """A piecewise-linear, optionally periodic, function of time.

    Control points are ``(time_s, value)`` pairs. Between points the value
    is linearly interpolated; outside the range it clamps to the edge
    values, unless ``period_s`` is given, in which case time wraps (so a
    10-minute trace can drive an arbitrarily long run).
    """

    __slots__ = ("_times", "_values", "period_s", "_constant", "_seg")

    def __init__(self, points, period_s: float | None = None):
        pts = sorted((float(t), float(v)) for t, v in points)
        if not pts:
            raise ConfigError("a series needs at least one control point")
        times = [t for t, _v in pts]
        if len(set(times)) != len(times):
            raise ConfigError("duplicate control-point times")
        if period_s is not None and period_s <= times[-1]:
            raise ConfigError(
                f"period {period_s} must exceed the last point {times[-1]}")
        self._times = times
        self._values = [v for _t, v in pts]
        self.period_s = period_s
        # A one-point series is the same value everywhere (with or
        # without a period) — the common case for constant RPS and
        # failure-probability profiles, queried once or more per request.
        self._constant = len(times) == 1
        # Cached interior segment index for value_at: queries arrive in
        # (nearly) monotone time order, so the segment found last time
        # almost always still contains the next query — one compare
        # instead of a bisect.
        self._seg = 1 if len(times) > 1 else 0

    def value_at(self, now: float) -> float:
        """The interpolated series value at time ``now``."""
        if self._constant:
            return self._values[0]
        period = self.period_s
        t = now if period is None else now % period
        times, values = self._times, self._values
        if t <= times[0]:
            # With a period, the gap from the last point back to the first
            # wraps around; interpolate across the seam.
            if period is not None:
                return self._wrap_interpolate(t)
            return values[0]
        if t >= times[-1]:
            if period is not None:
                return self._wrap_interpolate(t)
            return values[-1]
        # The invariant mirrors bisect_right exactly (left edge closed,
        # right edge open), so a cache hit lands in the very segment a
        # bisect would — including queries exactly on a control point.
        index = self._seg
        if not times[index - 1] <= t < times[index]:
            index = bisect.bisect_right(times, t)
            self._seg = index
        t0, t1 = times[index - 1], times[index]
        v0, v1 = values[index - 1], values[index]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def _wrap_interpolate(self, t: float) -> float:
        """Interpolate across the period seam (last point → first point)."""
        t_last, v_last = self._times[-1], self._values[-1]
        t_first, v_first = self._times[0], self._values[0]
        gap = (self.period_s - t_last) + t_first
        if gap <= 0:
            return v_first
        offset = t - t_last if t >= t_last else (self.period_s - t_last) + t
        return v_last + (v_first - v_last) * offset / gap

    def points(self) -> list[tuple[float, float]]:
        """The control points as ``(time_s, value)`` pairs, time-sorted.

        The public accessor for serialisers and exporters (trace I/O,
        span exporters) — callers must not reach into the internal
        parallel arrays.
        """
        return list(zip(self._times, self._values))

    def max_value(self) -> float:
        """Upper bound of the series (max of control values)."""
        return max(self._values)

    def min_value(self) -> float:
        """Lower bound of the series (min of control values)."""
        return min(self._values)


def constant_series(value: float) -> PiecewiseSeries:
    """A series that is ``value`` forever."""
    return PiecewiseSeries([(0.0, value)])


@dataclass
class BackendProfile:
    """Time-varying behaviour of one backend (service deployment).

    Attributes:
        median_latency_s: series of the service-time median.
        p99_latency_s: series of the service-time 99th percentile.
        failure_prob: series of per-request failure probability in [0, 1].
        failure_latency_s: fixed latency of a failed request (clients of a
            failing service typically see fast errors or timeouts; constant
            keeps the model simple and is configurable per scenario).
    """

    median_latency_s: PiecewiseSeries
    p99_latency_s: PiecewiseSeries
    failure_prob: PiecewiseSeries
    failure_latency_s: float = 0.05

    def sample_service_time(self, rng, now: float) -> float:
        """Draw one service time from the current log-normal distribution."""
        series = self.median_latency_s
        median = series._values[0] if series._constant else series.value_at(now)
        if median < 1e-6:
            median = 1e-6
        series = self.p99_latency_s
        p99 = series._values[0] if series._constant else series.value_at(now)
        # sample_lognormal() and the stdlib's lognormvariate /
        # normalvariate (Kinderman–Monahan) are inlined — one draw per
        # request executed, three Python frames otherwise. Identical
        # float operation order keeps the draws bit-identical.
        if p99 <= median:
            return median
        mu = math.log(median)
        sigma = (math.log(p99) - mu) / Z_P99
        rand = rng.random
        while True:
            u1 = rand()
            u2 = 1.0 - rand()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
        return math.exp(mu + z * sigma)

    def sample_failure(self, rng, now: float) -> bool:
        """Whether this request fails, per the current failure probability."""
        series = self.failure_prob
        prob = series._values[0] if series._constant else series.value_at(now)
        if prob <= 0.0:
            return False
        return rng.random() < prob


def scaled_series(multiplier: PiecewiseSeries, base: float) -> PiecewiseSeries:
    """``base * multiplier(t)`` as a new series (same points and period)."""
    points = [(t, v * base) for t, v in multiplier.points()]
    return PiecewiseSeries(points, period_s=multiplier.period_s)


def pulse_series(rng, duration_s: float, *, spacing_s: float = 10.0,
                 pulse_prob: float = 0.08, pulse_lo: float = 2.0,
                 pulse_hi: float = 5.0, base: float = 1.0,
                 period_s: float | None = None) -> PiecewiseSeries:
    """A multiplier series that is ``base`` with occasional raised pulses.

    Models transient degradation episodes (noisy neighbours, throttling):
    each control point independently enters a pulse with ``pulse_prob``,
    holding a multiplier drawn from ``[pulse_lo, pulse_hi]``.
    """
    if duration_s <= 0:
        raise ConfigError(f"duration must be positive: {duration_s}")
    n = max(int(duration_s / spacing_s), 2)
    values = []
    for _ in range(n):
        if rng.random() < pulse_prob:
            values.append(base * rng.uniform(pulse_lo, pulse_hi))
        else:
            values.append(base)
    points = [(i * spacing_s, v) for i, v in enumerate(values)]
    return PiecewiseSeries(points, period_s=period_s or duration_s)


def constant_backend_profile(median_s: float, p99_s: float,
                             failure_prob: float = 0.0) -> BackendProfile:
    """A backend whose behaviour never changes — handy for tests."""
    return BackendProfile(
        median_latency_s=constant_series(median_s),
        p99_latency_s=constant_series(p99_s),
        failure_prob=constant_series(failure_prob),
    )
