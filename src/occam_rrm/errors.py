"""Exception types shared across the package."""


class OccamRrmError(Exception):
    """Base class for all package errors."""


class ConfigError(OccamRrmError):
    """Invalid configuration (bad field value, unknown discriminator, ...)."""


class InvalidActionError(OccamRrmError):
    """An action outside the environment's action space was applied."""


class NotTractableError(OccamRrmError):
    """A tabular solver was given an env that does not enumerate its states."""


class MissingDiagnosticError(OccamRrmError):
    """A metrics profile needs a diagnostic key that logs do not carry."""


class NumericalError(OccamRrmError):
    """A numerical step failed: a singular system, an overflowing reward or value."""


class GpNumericalError(NumericalError):
    """Gram matrix numerically singular even after jitter."""


class PlotDataError(OccamRrmError):
    """A plot kind needs a series the summary does not contain."""
