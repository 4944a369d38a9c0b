"""Deterministic random-number streams and distribution helpers.

Every stochastic component of the simulation draws from its own named
stream so that (a) runs are reproducible for a fixed master seed and
(b) adding a new component never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib
import math
import random

# The normal constants live in a leaf module; re-exported here for the
# samplers that already draw through this one.
from repro.normal import NV_MAGICCONST, Z_P90, Z_P99, Z_P999  # noqa: F401


class RngRegistry:
    """A factory of independent, deterministically-seeded RNG streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream


def lognormal_params_from_percentiles(
        median: float, tail_value: float, tail_z: float = Z_P99,
) -> tuple[float, float]:
    """Derive log-normal ``(mu, sigma)`` from a median and a tail percentile.

    The paper observes that network/service latency is well characterised by
    a log-normal distribution (§3.1); scenario profiles are published as
    median and P99 series, which pin the distribution down exactly:
    ``mu = ln(median)`` and ``sigma = (ln(tail) - ln(median)) / z``.

    Args:
        median: the distribution's median (same unit as ``tail_value``).
        tail_value: the value at the tail percentile (must be >= median).
        tail_z: standard-normal quantile of the tail percentile
            (default: P99).
    """
    if median <= 0:
        raise ValueError(f"median must be positive: {median}")
    if tail_value < median:
        raise ValueError(
            f"tail value {tail_value} must be >= median {median}")
    mu = math.log(median)
    sigma = (math.log(tail_value) - mu) / tail_z if tail_value > median else 0.0
    return mu, sigma


def sample_lognormal(rng: random.Random, median: float, tail_value: float,
                     tail_z: float = Z_P99) -> float:
    """Draw one log-normal sample parameterised by median/tail percentile."""
    mu, sigma = lognormal_params_from_percentiles(median, tail_value, tail_z)
    if sigma == 0.0:
        return median
    return rng.lognormvariate(mu, sigma)
