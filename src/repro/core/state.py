"""Per-backend filtered metric state maintained by the controller (§4)."""

from __future__ import annotations

from repro.core.config import L3Config
from repro.core.ewma import Ewma, PeakEwma, half_life_to_beta
from repro.core.weighting import BackendSnapshot, WeightingConfig, weigh


class BackendMetricState:
    """The four EWMAs L3 keeps for one backend, with §4 defaults.

    Latency uses EWMA or PeakEWMA depending on configuration; success rate,
    RPS and in-flight always use the plain EWMA. When a backend goes quiet
    (no retrievable metrics for ``config.staleness_s``), each filter decays
    toward its default in small increments.
    """

    def __init__(self, name: str, config: L3Config, now: float = 0.0):
        self.name = name
        self.config = config
        latency_cls = PeakEwma if config.use_peak_ewma else Ewma
        self.latency = latency_cls(
            config.default_latency_s,
            half_life_to_beta(config.latency_half_life_s), now)
        self.success_rate = Ewma(
            config.default_success_rate,
            half_life_to_beta(config.success_half_life_s), now)
        self.rps = Ewma(
            config.default_rps,
            half_life_to_beta(config.rps_half_life_s), now)
        self.inflight = Ewma(
            0.0, half_life_to_beta(config.inflight_half_life_s), now)
        # Dynamic-penalty extension: filtered failed-request latency,
        # defaulting to the static penalty so behaviour is unchanged until
        # real failure samples arrive.
        self.failure_latency = Ewma(
            config.weighting.penalty_s,
            half_life_to_beta(config.dynamic_penalty_half_life_s), now)
        self._last_sample_time = now

    @property
    def last_sample_time(self) -> float:
        """Time of the last successfully retrieved metric sample."""
        return self._last_sample_time

    def observe(self, now: float, latency_s: float | None,
                success_rate: float, rps: float, inflight: float) -> None:
        """Feed one scraped sample into the filters.

        ``latency_s=None`` (traffic flowed but nothing succeeded in the
        window) leaves the success-latency EWMA at its previous value.
        """
        if latency_s is not None:
            self.latency.observe(latency_s, now)
        self.success_rate.observe(success_rate, now)
        self.rps.observe(rps, now)
        self.inflight.observe(inflight, now)
        self._last_sample_time = now

    def is_stale(self, now: float) -> bool:
        """Whether the backend has been without samples long enough to decay."""
        return now - self._last_sample_time >= self.config.staleness_s

    def decay_toward_defaults(self, now: float) -> None:
        """§4 no-traffic behaviour: converge filters back to their defaults
        (``Ewma.decay_toward_default``; ``L3Config`` validated the fraction)."""
        fraction = self.config.decay_fraction
        for ewma in (self.latency, self.success_rate, self.rps,
                     self.inflight):
            ewma._value += (ewma.default - ewma._value) * fraction
            ewma._last_update = now

    def _clamped(self) -> tuple[float, float, float, float]:
        """The filters clamped into Algorithm 1's domain. ``0.0 if 0.0 > v
        else v`` is exactly ``max(v, 0.0)`` (NaN and -0.0 included), and
        ``1.0 if 1.0 < v else v`` is ``min(v, 1.0)``, minus the calls."""
        latency, success, rps, inflight = (
            self.latency._value, self.success_rate._value, self.rps._value,
            self.inflight._value)
        success = 0.0 if 0.0 > success else success
        return (0.0 if 0.0 > latency else latency,
                1.0 if 1.0 < success else success,
                0.0 if 0.0 > rps else rps,
                0.0 if 0.0 > inflight else inflight)

    def weight(self, config: WeightingConfig) -> float:
        """Algorithm 1 straight from the filters. The penalty filter holds
        the static penalty unless the dynamic-penalty extension feeds it."""
        return weigh(*self._clamped(), self.failure_latency._value, config)

    def snapshot(self) -> BackendSnapshot:
        """Current filtered values as input to the weighting algorithm."""
        return BackendSnapshot(self.name, *self._clamped())
