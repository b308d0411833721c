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
    "classical_fixed_points",
    "abc_exact_lambda0",
    "lambda0_amplitude",
]


def classical_exact(p: ModelParams, t):
    """Classical logistic solution ``z0*k / (z0 + (k - z0) E_1(-r t))``, E_1 = exp.

    ``t`` is a time or a 1-d array of times, giving a float or an array;
    every t must be finite and >= 0.  z(0) = z0 exactly, and z0 = k yields
    the constant equilibrium.  The denominator stays positive except for
    z0 > k with r < 0, where it reaches 0 at ``t* = ln(z0/(z0 - k))/(-r)``
    and the solution blows up; a requested t >= t* raises
    :class:`SingularParameterError`.  Overflow of ``e^{-r t}`` gives z = 0.
    """
    ts, _ = special.time_powers(t, 1.0)
    with np.errstate(over="ignore"):  # inf, as Python floats give
        # -r t beyond the double range gives E_1 = 0 or inf, as at -+1e300
        decay = special.mittag_leffler(1.0, np.clip(-p.r * ts, -1e300, 1e300))
        # at z0 = k the decay term is absent: 0 * inf would give nan
        den = p.z0 + (p.k - p.z0) * decay if p.k != p.z0 else np.full(len(ts), p.z0)
        if (den <= 0.0).any():
            # r < 0 < z0 - k, or z0 so far above k that z0 + (k - z0) rounds to 0
            t_star = math.log(p.z0 / (p.z0 - p.k)) / -p.r if p.r < 0.0 else 0.0
            raise SingularParameterError(f"the classical solution blows up at t* = "
                                         f"{t_star:.12g}, before t = {ts.max():.12g}")
        z = p.z0 * p.k / den
    return z if np.ndim(t) else float(z[0])


def classical_fixed_points(p: ModelParams):
    """Critical points of the classical model with stability tags.

    Returns ``[(0.0, "unstable"), (k, "stable")]``; only the growth case
    r > 0 is classified.
    """
    if p.r <= 0.0:
        raise NotImplementedError("fixed-point classification requires r > 0")
    return [(0.0, "unstable"), (p.k, "stable")]


def _lambda0_denominator(p: ModelParams) -> float:
    return p.b_norm + p.r * (1.0 - p.z0 / p.k) * (p.mu - 1.0)


def lambda0_amplitude(p: ModelParams) -> float:
    """Amplitude ``A = B z0 / (B + r (1 - z0/k)(mu - 1))`` of the lam = 0 solution.

    For mu < 1 this differs from z0: the integral form of the nonlocal
    operator jumps at t = 0 whenever the right-hand side is nonzero there.
    A -> z0 continuously as mu -> 1.
    """
    den = _lambda0_denominator(p)
    if den < 1e-12:
        raise SingularParameterError(
            f"b_norm + r(1 - z0/k)(mu - 1) = {den} is not (numerically) positive"
        )
    return p.b_norm * p.z0 / den


def abc_exact_lambda0(p: ModelParams, t):
    """Exact solution of the constant-feedback (lam = 0) fractional model.

        z(t) = A * E_mu(q * t^mu),
        q    = r (1 - z0/k) mu / (B + r (1 - z0/k)(mu - 1)),

    a Mittag-Leffler-enhanced Malthusian growth law.  At mu = 1 it
    collapses to ``z0 * exp(r (1 - z0/k) t)``.  Note ``z(0) = A``, not z0,
    for mu < 1 (see :func:`lambda0_amplitude`).

    ``t`` is a time or a 1-d array of times, giving a float or an array;
    every t must be finite and >= 0.
    """
    _, power = special.time_powers(t, p.mu)
    den = _lambda0_denominator(p)
    amp = lambda0_amplitude(p)
    rate = p.r * (1.0 - p.z0 / p.k) * p.mu / den
    with np.errstate(over="ignore"):  # inf, as Python floats give
        z = amp * special.mittag_leffler(p.mu, rate * power)
    return z if np.ndim(t) else float(z[0])
