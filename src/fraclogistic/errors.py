"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "SolverError", "SingularParameterError"]


class ConvergenceError(ValueError):
    """A series did not converge.

    Raised when the geometric-series ratio leaves the convergence region
    |q| < 1, when the Mittag-Leffler series runs out of terms, when the
    ``hsv`` or ``surface`` command finds the HSV series' last term too
    large against its sum, and when a stability probe's deviation sits at
    its rounding floor.  The offending ratio, the series argument, the last
    term over |z|, or the deviation over the floor is kept on the ``ratio``
    attribute.
    """

    def __init__(self, message: str, ratio: float):
        super().__init__(message)
        self.ratio = ratio


class SolverError(RuntimeError):
    """A time stepper failed to produce a usable value.

    ``step`` holds the index of the grid node whose implicit equation has
    no real root, or whose selected root is non-finite, not positive, or
    at or below the rounding floor 4 eps z_max, with z_max the largest of
    z0 and the earlier nodes.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class SingularParameterError(ValueError):
    """A parameter combination makes a closed-form expression undefined."""
