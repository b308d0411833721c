"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "SolverError", "SingularParameterError"]


class ConvergenceError(ValueError):
    """A series did not converge.

    Raised when the geometric-series ratio leaves the convergence region
    |q| < 1, and when the Mittag-Leffler series runs out of terms.  The
    offending ratio, or the series argument, is kept on the ``ratio``
    attribute.
    """

    def __init__(self, message: str, ratio: float):
        super().__init__(message)
        self.ratio = ratio


class SolverError(RuntimeError):
    """A time stepper failed to produce a usable value.

    ``step`` holds the index of the grid node whose implicit equation has
    no real root, or whose selected root is non-finite or not positive.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class SingularParameterError(ValueError):
    """A parameter combination makes a closed-form expression undefined."""
