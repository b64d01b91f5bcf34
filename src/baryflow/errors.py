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

    ``iteration`` is set when the solver's evaluation at its starting points
    fails (0); it is None when the error is raised outside a solve.  Inside
    the loop a non-finite evaluation at a candidate step only rejects that
    step.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
