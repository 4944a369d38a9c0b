"""WAN latency model between clusters.

The paper's clusters (Frankfurt/Paris/Milan) see ~10 ms inter-cluster
delay; §2.1 stresses that WAN latency varies over time (shifting routing
paths, transient congestion). A :class:`WanLink` therefore combines a base
one-way delay, multiplicative log-normal jitter, a slow sinusoidal drift
and rare spike episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.normal import NV_MAGICCONST, Z_P99


@dataclass(frozen=True)
class WanLink:
    """One-way delay model for a directed cluster pair.

    Attributes:
        base_delay_s: median one-way delay.
        jitter_p99_ratio: P99/median ratio of the per-packet log-normal
            jitter (1.0 disables jitter).
        drift_amplitude: fraction of the base delay added/removed by a slow
            sinusoidal drift (models route changes; 0 disables).
        drift_period_s: period of the drift sinusoid.
        spike_prob: per-request probability of hitting a transient spike.
        spike_multiplier: delay multiplier during a spike.
    """

    base_delay_s: float
    jitter_p99_ratio: float = 1.5
    drift_amplitude: float = 0.1
    drift_period_s: float = 120.0
    spike_prob: float = 0.001
    spike_multiplier: float = 5.0

    def __post_init__(self):
        if self.base_delay_s < 0:
            raise ConfigError(f"negative base delay: {self.base_delay_s}")
        if self.jitter_p99_ratio < 1.0:
            raise ConfigError(
                f"jitter P99 ratio must be >= 1: {self.jitter_p99_ratio}")
        if not 0.0 <= self.drift_amplitude < 1.0:
            raise ConfigError(
                f"drift amplitude must be in [0, 1): {self.drift_amplitude}")
        if self.drift_period_s <= 0:
            raise ConfigError(f"drift period must be > 0: {self.drift_period_s}")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ConfigError(f"spike prob must be in [0, 1]: {self.spike_prob}")
        if self.spike_multiplier < 1.0:
            raise ConfigError(
                f"spike multiplier must be >= 1: {self.spike_multiplier}")

    def delay(self, rng, now: float) -> float:
        """Sample the one-way delay for a request sent at ``now``."""
        if self.base_delay_s == 0.0:
            return 0.0
        drift = 1.0 + self.drift_amplitude * math.sin(
            2.0 * math.pi * now / self.drift_period_s)
        median = self.base_delay_s * drift
        if self.jitter_p99_ratio > 1.0:
            # sample_lognormal() inlined (two WAN legs per request make
            # this a hot path); the float operations are kept in the
            # exact same order so the draws stay bit-identical.
            mu = math.log(median)
            sigma = (math.log(median * self.jitter_p99_ratio) - mu) / Z_P99
            delay = rng.lognormvariate(mu, sigma)
        else:
            delay = median
        if self.spike_prob > 0.0 and rng.random() < self.spike_prob:
            delay *= self.spike_multiplier
        return delay


# In-cluster hop: pod-to-pod within one Kubernetes cluster.
LOCAL_LINK = WanLink(base_delay_s=0.0002, jitter_p99_ratio=2.0,
                     drift_amplitude=0.0, spike_prob=0.0)


class NetworkModel:
    """All pairwise delays of the multi-cluster topology.

    Besides the static link models, the network carries a *fault overlay*
    (driven by :mod:`repro.faults`): a directed pair can be partitioned —
    :meth:`delay` returns ``inf``, which the proxy treats as a blackhole —
    or degraded, multiplying and/or padding the sampled delay for the
    duration of the episode.
    """

    def __init__(self, clusters, default_wan: WanLink | None = None,
                 local_link: WanLink = LOCAL_LINK):
        """Create a full mesh over ``clusters``.

        Args:
            clusters: iterable of cluster names.
            default_wan: link used for every inter-cluster pair unless
                overridden; defaults to the paper's ~10 ms one-way delay.
            local_link: link used within a cluster.
        """
        names = list(clusters)
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate cluster names: {names}")
        if default_wan is None:
            default_wan = WanLink(base_delay_s=0.010)
        self.clusters = names
        self._links: dict[tuple[str, str], WanLink] = {}
        self._partitions: set[tuple[str, str]] = set()
        # (src, dst) -> (delay multiplier, extra delay seconds)
        self._degradations: dict[tuple[str, str], tuple[float, float]] = {}
        for src in names:
            for dst in names:
                self._links[(src, dst)] = (
                    local_link if src == dst else default_wan)

    def set_link(self, src: str, dst: str, link: WanLink,
                 symmetric: bool = True) -> None:
        """Override the link for a cluster pair."""
        self._require(src), self._require(dst)
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def link(self, src: str, dst: str) -> WanLink:
        """The link used from ``src`` to ``dst``."""
        self._require(src), self._require(dst)
        return self._links[(src, dst)]

    def delay(self, src: str, dst: str, rng, now: float) -> float:
        """Sample the one-way delay from ``src`` to ``dst`` at ``now``.

        Returns ``inf`` while the directed pair is partitioned (packets
        never arrive — callers must treat an infinite delay as a blackhole,
        not something to sleep through).
        """
        if self._partitions and (src, dst) in self._partitions:
            return math.inf
        # Direct link lookup — this runs twice per request, and the
        # membership validation of link() is a linear scan. Unknown
        # clusters still fail the same way: they can never be keys.
        link = self._links.get((src, dst))
        if link is None:
            self._require(src), self._require(dst)
        # WanLink.delay() inlined (two WAN legs per request), including
        # the stdlib lognormvariate / normalvariate rejection loop —
        # three Python frames per sampled leg otherwise. Every float
        # operation is kept in the exact order of the out-of-line
        # versions so the draws stay bit-identical (the equivalence and
        # golden-digest tests pin this down).
        base = link.base_delay_s
        if base == 0.0:
            delay = 0.0
        else:
            drift = 1.0 + link.drift_amplitude * math.sin(
                2.0 * math.pi * now / link.drift_period_s)
            median = base * drift
            if link.jitter_p99_ratio > 1.0:
                mu = math.log(median)
                sigma = (math.log(median * link.jitter_p99_ratio) - mu) / Z_P99
                rand = rng.random
                while True:
                    u1 = rand()
                    u2 = 1.0 - rand()
                    z = NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -math.log(u2):
                        break
                delay = math.exp(mu + z * sigma)
            else:
                delay = median
            if link.spike_prob > 0.0 and rng.random() < link.spike_prob:
                delay *= link.spike_multiplier
        if self._degradations:
            degradation = self._degradations.get((src, dst))
            if degradation is not None:
                multiplier, extra_s = degradation
                delay = delay * multiplier + extra_s
        return delay

    # ------------------------------------------------------------------ #
    # Fault overlay (driven by repro.faults)
    # ------------------------------------------------------------------ #

    def partition(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Drop all traffic from ``src`` to ``dst`` until healed."""
        self._require(src), self._require(dst)
        self._partitions.add((src, dst))
        if symmetric:
            self._partitions.add((dst, src))

    def heal_partition(self, src: str, dst: str,
                       symmetric: bool = True) -> None:
        """Remove a partition (missing partitions are forgiven)."""
        self._require(src), self._require(dst)
        self._partitions.discard((src, dst))
        if symmetric:
            self._partitions.discard((dst, src))

    def is_partitioned(self, src: str, dst: str) -> bool:
        """Whether traffic from ``src`` to ``dst`` is currently dropped."""
        return (src, dst) in self._partitions

    def degrade(self, src: str, dst: str, multiplier: float = 1.0,
                extra_delay_s: float = 0.0, symmetric: bool = True) -> None:
        """Inflate the pair's delay: ``delay * multiplier + extra_delay_s``."""
        if multiplier < 1.0:
            raise ConfigError(
                f"degradation multiplier must be >= 1: {multiplier}")
        if extra_delay_s < 0:
            raise ConfigError(
                f"degradation extra delay must be >= 0: {extra_delay_s}")
        self._require(src), self._require(dst)
        self._degradations[(src, dst)] = (multiplier, extra_delay_s)
        if symmetric:
            self._degradations[(dst, src)] = (multiplier, extra_delay_s)

    def heal_degradation(self, src: str, dst: str,
                         symmetric: bool = True) -> None:
        """Remove a degradation (missing degradations are forgiven)."""
        self._require(src), self._require(dst)
        self._degradations.pop((src, dst), None)
        if symmetric:
            self._degradations.pop((dst, src), None)

    def _require(self, name: str) -> None:
        if name not in self.clusters:
            raise ConfigError(f"unknown cluster: {name!r}")
