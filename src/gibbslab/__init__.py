"""Desk-scale numerical laboratory for lattice diffusions with bounded
local drifts: Girsanov densities over bridges, space-time cluster
expansions of the evolved interaction, and Gibbsianness diagnostics
(Dobrushin, DLR, convergence criteria, quasilocality)."""

from .errors import (
    BoundViolationError,
    BudgetError,
    CoverageError,
    DomainConflictError,
    GibbslabError,
    NumericalError,
    PrecisionError,
    SetupError,
    ValidationError,
)
from .estimates import Estimate, MCParams
from .lattice import Configuration, Neighborhood, Volume, concat, interior

__version__ = "0.1.0"

__all__ = [
    "BoundViolationError",
    "BudgetError",
    "Configuration",
    "CoverageError",
    "DomainConflictError",
    "Estimate",
    "GibbslabError",
    "MCParams",
    "Neighborhood",
    "NumericalError",
    "PrecisionError",
    "SetupError",
    "ValidationError",
    "Volume",
    "concat",
    "interior",
    "__version__",
]
