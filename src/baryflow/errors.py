"""Exception types, and the one check of each kind of input value: real, count or seed, matrix."""

import numbers

import numpy as np


def positive_number(value):
    """True for a finite positive real number; strings, None and booleans are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and bool(np.isfinite(value)) and value > 0)


def integer_at_least(name, value, low):
    """Raise InvalidInputError unless ``value`` is an integer >= ``low``; booleans are not integers.

    The one check of every count and seed, in SolverConfig and the generators.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}")


def as_points(x, what="points"):
    """Coerce to a finite float N x d array, N, d >= 1, or raise InvalidInputError naming ``what``.

    The one check of every numeric matrix: solve's x, covariate values, a series' x.
    """
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} must be numbers") from None
    if x.ndim != 2 or x.size == 0:
        raise InvalidInputError(f"{what} must form a non-empty N x d array")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{what} must be finite")
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
