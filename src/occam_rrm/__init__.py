"""Desk-scale radio-resource-management testbed: MDP environments, a solver
catalog from closed-form optimization to tabular RL, parameter tuning, and a
technique-selection advisor."""

from .core import (
    DEFAULT_DISCOUNT,
    EpisodeLog,
    MetricsRecord,
    StepOutcome,
    TabularMdp,
    discounted_return,
    metrics_summary,
    run_episode,
)
from .errors import (
    ConfigError,
    GpNumericalError,
    InvalidActionError,
    MissingDiagnosticError,
    NotTractableError,
    OccamRrmError,
    PlotDataError,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DISCOUNT",
    "ConfigError",
    "EpisodeLog",
    "GpNumericalError",
    "InvalidActionError",
    "MetricsRecord",
    "MissingDiagnosticError",
    "NotTractableError",
    "OccamRrmError",
    "PlotDataError",
    "StepOutcome",
    "TabularMdp",
    "discounted_return",
    "metrics_summary",
    "run_episode",
    "__version__",
]
