"""The environment both substrates run: :class:`MeshEnv` (DESIGN §5e).

A leaf module (it imports only :mod:`repro.errors`): a process that only
configures a run loads no kernel and no sockets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

# Client arrival processes: "uniform" (wrk2-style constant spacing, the
# paper's setup) or "poisson" (exponential inter-arrival gaps).
ARRIVALS = ("uniform", "poisson")


@dataclass(frozen=True, kw_only=True)
class MeshEnv:
    """The knobs the simulated and live meshes share, with the paper's
    simulated defaults (§5.1); each substrate's config subclasses it."""

    client_cluster: str = "cluster-1"
    replica_capacity: int = 64
    scrape_interval_s: float = 5.0
    # Client retries on failure (0 = the paper's no-retry benchmarks).
    max_retries: int = 0
    retry_backoff_s: float = 0.0
    # Resilience knobs (both off = the paper's evaluated configuration).
    # A per-attempt deadline is required to survive blackhole faults: a
    # dead-silent backend otherwise hangs each request forever.
    request_timeout_s: float | None = None
    # Optional circuit breaker (repro.mesh.ejection.OutlierEjectionConfig).
    outlier_ejection: object | None = None
    # How long in-flight requests may finish after the load stops.
    drain_s: float = 30.0
    arrival: str = "uniform"

    # What __post_init__ checks; a subclass extends the tables with its
    # own fields. Positive fields may be None (= unset).
    _FLOORS = (("replica_capacity", 1), ("max_retries", 0),
               ("retry_backoff_s", 0), ("drain_s", 0))
    _POSITIVE = ("scrape_interval_s", "request_timeout_s")

    def __post_init__(self):
        """Reject every unrunnable value before anything is built."""
        if not self.client_cluster:
            raise ConfigError("client_cluster must be a cluster name")
        for name, floor in self._FLOORS:
            if getattr(self, name) < floor:
                raise ConfigError(
                    f"{name} must be >= {floor}: {getattr(self, name)}")
        for name in self._POSITIVE:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive: {value}")
        if self.arrival not in ARRIVALS:
            raise ConfigError(
                f"arrival must be one of {ARRIVALS}: {self.arrival!r}")
