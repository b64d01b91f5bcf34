"""Exception types shared across the package."""


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
