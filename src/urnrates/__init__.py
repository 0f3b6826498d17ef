"""Urn growth schemes: simulation, scaling limits, and deviation rates."""

__version__ = "0.1.0"

from .model import (
    AdmissibilityReport,
    InitialProfile,
    Path,
    Schedule,
    TruncatedState,
    increments,
    realize_initial,
    resolve_initial,
    sigma,
    validate_path,
)

__all__ = [
    "AdmissibilityReport",
    "InitialProfile",
    "Path",
    "Schedule",
    "TruncatedState",
    "increments",
    "realize_initial",
    "resolve_initial",
    "sigma",
    "validate_path",
    "__version__",
]
