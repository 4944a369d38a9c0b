"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """An inconsistency was detected inside the discrete-event simulator."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class FaultSpecError(ConfigError):
    """A fault specification is malformed or internally inconsistent.

    Raised at parse/validation time — before anything is wired up — so a
    bad ``--faults`` string fails the run immediately instead of
    erroring (or silently no-op'ing) minutes into a live experiment.
    """


class AutoscaleSpecError(ConfigError):
    """An autoscale policy specification is malformed or inconsistent.

    Raised at parse/validation time — before anything is wired up — so a
    bad ``--autoscale`` string fails the run immediately, mirroring
    :class:`FaultSpecError` for ``--faults``.
    """


class MeshError(ReproError):
    """The service-mesh model was used incorrectly (unknown service, etc.)."""


class TelemetryError(ReproError):
    """A telemetry query could not be answered."""
