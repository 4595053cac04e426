"""Exception hierarchy shared across the package."""


class OrdinalSRError(Exception):
    """Base class for all package-specific errors."""


class DataError(OrdinalSRError):
    """Malformed input data: bad CSV rows, labels outside 1..K, shape mismatches."""


class DegenerateStepError(OrdinalSRError):
    """A binary subproblem cannot be fit (too few subjects or single-class labels).

    Callers in the SR cascade catch this and substitute a constant rule.
    """


class ConvergenceError(OrdinalSRError):
    """An iterative solver hit its iteration cap with too large a residual, or
    an LP solve ended with a primal/dual objective gap above its tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InfeasibleLPError(OrdinalSRError):
    """No feasible point: phase 1 ended positive, or a dual pivot found no column to enter."""


class UnboundedLPError(OrdinalSRError):
    """The LP objective is unbounded below on the feasible region."""


class UndefinedMetricError(OrdinalSRError):
    """An evaluation metric has an empty numerator set (no matched subjects)."""
