"""Exception types shared across the package."""


class GwThetaError(Exception):
    """Base class for all package errors."""


class RejectedParameter(GwThetaError):
    """Model parameters violate the admissible-parameter table.

    Carries the offending index (or None for global parameters) and the
    name of the violated constraint.
    """

    def __init__(self, message, index=None, constraint=None):
        super().__init__(message)
        self.index = index
        self.constraint = constraint


class DomainError(GwThetaError):
    """Argument outside the domain of a generating function."""


class ConditioningOnNull(GwThetaError):
    """Conditional law requested but the conditioning event has zero mass."""


class UndeterminedLimit(GwThetaError):
    """A required limit constant could not be determined numerically."""


class NoLimitLaw(GwThetaError):
    """No limit law applies (e.g. oscillating regime without a subsequence)."""


class CutoffExceeded(GwThetaError):
    """Series cutoff budget exhausted before reaching the tail tolerance.

    The partial pmf built so far is attached for diagnostics.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ScenarioInfeasible(GwThetaError):
    """Scenario regime conflicts with the requested theorem check."""
