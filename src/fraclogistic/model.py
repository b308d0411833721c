"""Model parameters and the logistic right-hand side with delayed feedback."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = ["ModelParams", "OperatorKind", "logistic_rhs"]


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the delayed logistic model under a fractional derivative.

    Attributes
    ----------
    r : float
        Intrinsic growth rate (1/time); any finite real.
    k : float
        Carrying capacity, > 0.
    z0 : float
        Initial value, > 0.
    mu : float
        Fractional order in (0, 1]; mu = 1 recovers the classical model.
    lam : float
        Proportional delay factor in [0, 1]; the feedback term samples the
        state at time ``lam * t``.
    b_norm : float
        Normalization of the fractional operator (also reused as the
        exponential-kernel normalization), > 0; default 1 so that the
        mu = 1 limits of all operators coincide.
    """

    r: float
    k: float
    z0: float
    mu: float
    lam: float = 1.0
    b_norm: float = 1.0

    def __post_init__(self):
        for name in ("r", "k", "z0", "mu", "lam", "b_norm"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.k <= 0.0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.z0 <= 0.0:
            raise ValueError(f"z0 must be > 0, got {self.z0}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.b_norm <= 0.0:
            raise ValueError(f"b_norm must be > 0, got {self.b_norm}")


class OperatorKind(enum.Enum):
    """Fractional operator selector; :func:`_operator_row` gives its constants."""

    ABC = "abc"
    CFC = "cfc"
    CAPUTO = "caputo"


def _operator_row(operator: OperatorKind, p: ModelParams) -> tuple:
    """The operator's row ``(e, point, quad, norm, datum)``, one table for every route.

    Each operator's integral form is one kernel form,

        z(t) = z0 + c_point f(t) + c_quad I^e[f](t),
        I^e[f](t) = int_0^t (t - s)^(e-1) f(s) ds,

    with c_point = point/norm and c_quad = quad/(norm Gamma(e)).  For
    normalisation B = ``p.b_norm`` (default 1, so that all mu = 1 limits
    coincide with the classical ODE), the rows are

        operator  kernel          e    point   quad  norm  datum
        ABC       Mittag-Leffler  mu   1 - mu  mu    B     False
        CFC       exponential     1    1 - mu  mu    B     True
        Caputo    power law       mu   0       1     1     True

    ``datum`` says whether z(0) is the datum z0.  A datum operator's
    pointwise term is c_point (f(t) - f(0)), which CFC needs to start at
    z0; ABC keeps c_point f(0) at t = 0 and jumps there.  The row holds
    the raw numerators and B rather than c_point and c_quad, because each
    route divides in its own order: the solver forms c_point and c_quad,
    the lam = 0 closed form B + r (1 - z0/k)(mu - 1), and the series the
    multiplier (1 - mu + mu u^mu) times r/B.
    """
    return {OperatorKind.ABC: (p.mu, 1.0 - p.mu, p.mu, p.b_norm, False),
            OperatorKind.CFC: (1.0, 1.0 - p.mu, p.mu, p.b_norm, True),
            OperatorKind.CAPUTO: (p.mu, 0.0, 1.0, 1.0, True)}[operator]


def logistic_rhs(p: ModelParams, state: float, delayed: float, forcing: float = 0.0) -> float:
    """Growth law ``r * z(t) * (1 - z(lam*t)/k)`` plus an optional forcing."""
    return p.r * state * (1.0 - delayed / p.k) + forcing
