"""Exact solutions: classical logistic growth and the lam = 0 fractional case."""

from __future__ import annotations

import math

import numpy as np

from . import special
from .errors import SingularParameterError
from .model import ModelParams

# perfbench/tracing.py wraps this name; calls go through ``special`` so that
# array arguments bypass its scalar-only wrapper.
from .special import mittag_leffler  # noqa: F401

__all__ = [
    "classical_exact",
    "abc_exact_lambda0",
]


def classical_exact(p: ModelParams, t):
    """Classical logistic solution ``z0*k / (z0 + (k - z0) E_1(-r t))``, E_1 = exp.

    ``t`` is a time or a 1-d array of times, giving a float or an array;
    every t must be finite and >= 0.  z(0) = z0 exactly, and z0 = k yields
    the constant equilibrium.  The denominator stays positive except for
    z0 > k with r < 0, where it reaches 0 at ``t* = ln(z0/(z0 - k))/(-r)``
    and the solution blows up; a requested t >= t* raises
    :class:`SingularParameterError`.  Overflow of ``e^{-r t}`` gives z = 0.
    For z0 > k the denominator is summed as ``z0 (1 - e^{-r t}) + k e^{-r t}``,
    whose terms cannot cancel for r >= 0, so a z0 far above k still decays to k.
    """
    ts, _ = special.time_powers(t, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, as Python floats give
        # -r t beyond the double range gives E_1 = 0 or inf, as at -+1e300
        decay = special.mittag_leffler(1.0, np.clip(-p.r * ts, -1e300, 1e300))
        if p.z0 > p.k:
            den = p.z0 * (1.0 - decay) + p.k * decay
        else:  # both terms >= 0; at z0 = k the decay term is absent: 0 * inf would give nan
            den = p.z0 + (p.k - p.z0) * decay if p.k != p.z0 else np.full(len(ts), p.z0)
        if not (den > 0.0).all():  # r < 0 < z0 - k; nan where e^{-r t} overflowed
            t_star = math.log1p(-p.k / p.z0) / p.r
            raise SingularParameterError(f"the classical solution blows up at t* = "
                                         f"{t_star:.12g}, before t = {ts.max():.12g}")
        z = p.z0 * p.k / den
    return z if np.ndim(t) else float(z[0])


def abc_exact_lambda0(p: ModelParams, t):
    """Exact solution of the constant-feedback (lam = 0) fractional model.

        z(t) = A * E_mu(q * t^mu),
        A    = B z0 / (B + r (1 - z0/k)(mu - 1)),
        q    = r (1 - z0/k) mu / (B + r (1 - z0/k)(mu - 1)),

    a Mittag-Leffler-enhanced Malthusian growth law.  At mu = 1 it
    collapses to ``z0 * exp(r (1 - z0/k) t)``.  Note ``z(0) = A``, not z0,
    for mu < 1: the integral form of the nonlocal operator jumps at t = 0
    whenever the right-hand side is nonzero there; A -> z0 continuously as
    mu -> 1.  The shared denominator must be positive by more than 1e-12 of
    its terms' size, or cancellation could make up A; otherwise
    :class:`SingularParameterError` is raised.

    ``t`` is a time or a 1-d array of times, giving a float or an array;
    every t must be finite and >= 0.
    """
    _, power = special.time_powers(t, p.mu)
    growth = p.r * (1.0 - p.z0 / p.k)
    feedback = growth * (p.mu - 1.0)
    den = p.b_norm + feedback
    if den < 1e-12 * (p.b_norm + abs(feedback)):
        raise SingularParameterError(f"b_norm + r(1 - z0/k)(mu - 1) = {den} is not "
                                     "(numerically) positive")
    with np.errstate(over="ignore"):  # inf, as Python floats give
        z = p.b_norm * p.z0 / den * special.mittag_leffler(p.mu, growth * p.mu / den * power)
    return z if np.ndim(t) else float(z[0])
