"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: validation errors -> 2,
numerical errors -> 3, precision / effective-sample-size errors -> 4.
"""


class GibbslabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(GibbslabError):
    """Bad inputs: config, preconditions, domain conflicts."""

    exit_code = 2


class DomainConflictError(ValidationError):
    """Two partial configurations overlap where they must not."""


class CoverageError(ValidationError):
    """A path or configuration does not cover the required sites/window."""


class SetupError(ValidationError):
    """A spec object cannot be built (non-normalizable potential, bad bounds)."""


class BudgetError(ValidationError):
    """A combinatorial enumeration exceeded its cap, ``clusters.ENUMERATION_CAP``."""


class NumericalError(GibbslabError):
    """NaN/overflow, non-convergence, non-positive kernel values."""

    exit_code = 3


class BoundViolationError(NumericalError):
    """A drift evaluator exceeded its declared bound."""


class PrecisionError(GibbslabError):
    """Monte Carlo result too noisy (effective sample size below threshold)."""

    exit_code = 4
