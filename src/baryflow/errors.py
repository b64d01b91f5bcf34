"""Exception types, and the one check of each kind of input value: real, count or seed, matrix.

Each input is checked once, where it enters, and nothing behind re-checks it.
:func:`as_points` checks every numeric matrix (solve's x, continuous covariate
values, a series' x), :func:`positive_number` every real setting of
``SolverConfig`` and ``CostModel``, and :func:`integer_at_least` every count
and seed, in ``SolverConfig`` and the generators.  ``solve`` checks that
its covariates, cost model and config are a ``Covariates``, a ``CostModel``
and a ``SolverConfig`` or None, the covariates' N against x, and that each
candidate step is finite, and ``build_couplings`` a continuous bandwidth's
float range.  No cost or constraint call checks its points, except the
great-circle cost: x's 2 columns and latitudes once, and y's latitudes on
every call, as a step can pass a pole.  ``CostModel``, ``parse_cost_spec``,
``Covariates``, ``lagged_dataset`` and the two CLI loaders check the rest of
their own input.
The CLI parses its flags without checking them: a bad value exits 1 with the
library's message.
"""

import numbers

import numpy as np


def positive_number(value):
    """True for a finite positive real number; strings, None and booleans are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and bool(np.isfinite(value)) and value > 0)


def integer_at_least(name, value, low):
    """Raise InvalidInputError unless ``value`` is an integer >= ``low``; booleans are not integers."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}")


def as_points(x, what="points"):
    """Coerce to a finite float N x d array, N, d >= 1, or raise InvalidInputError naming ``what``."""
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
