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


def classical_exact(p: ModelParams, t: float) -> float:
    """Classical logistic solution ``z0*k / (z0 + (k - z0) e^{-r t})``.

    Satisfies z(0) = z0 exactly; for z0 > 0 the denominator never vanishes
    on t >= 0.  z0 = k yields the constant equilibrium solution.
    """
    t = float(t)
    try:
        decay = math.exp(-p.r * t)
    except OverflowError:
        decay = math.inf
    return p.z0 * p.k / (p.z0 + (p.k - p.z0) * decay)


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
    if abs(den) < 1e-12:
        raise SingularParameterError(
            f"b_norm + r(1 - z0/k)(mu - 1) = {den} is (numerically) zero"
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
