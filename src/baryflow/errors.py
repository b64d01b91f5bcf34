"""Exception types shared across the package, and the checks of a positive real and of a point set."""

import numbers

import numpy as np


def positive_number(value):
    """True for a finite positive real number; strings, None and booleans are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and bool(np.isfinite(value)) and value > 0)


def as_points(x):
    """Coerce to a finite float N x d array, N, d >= 1, or raise InvalidInputError: solve's one check of x."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError("points must be numbers") from None
    if x.ndim != 2 or x.size == 0:
        raise InvalidInputError("points must form a non-empty N x d array")
    if not np.isfinite(x).all():
        raise InvalidInputError("points must be finite")
    return x


class BaryflowError(Exception):
    """Base class for all baryflow errors."""


class InvalidInputError(BaryflowError, ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(BaryflowError, RuntimeError):
    """An iterative routine failed to reach its tolerance.

    Carries the best residual achieved (``residual``) and the number of
    iterations performed (``iterations``).
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NumericError(BaryflowError, ArithmeticError):
    """A computation produced non-finite intermediates.

    A solve raises it only from its evaluation at the starting points; inside
    the loop a non-finite evaluation at a candidate step only rejects that
    step.
    """
