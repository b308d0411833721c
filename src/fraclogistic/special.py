"""Gamma helpers and the one-parameter Mittag-Leffler function

    E_mu(x) = sum_{n >= 0} x^n / Gamma(n*mu + 1),    0 < mu <= 1,

which generalises the exponential (E_1 = exp) and is the relaxation kernel of
nonlocal derivatives with Mittag-Leffler memory.  For x > 0 every series
term is positive, so the series is summed directly.  For x < 0 it cancels
catastrophically, so ``E_mu(x)`` is taken as the inverse Laplace transform
of ``s^(mu-1) / (s^mu - x)`` at t = 1, by the trapezoidal rule on the
parabola ``s(u) = mu_c (1 + iu)^2`` (R. Garrappa, "Numerical evaluation of
two and three parameter Mittag-Leffler functions", SIAM J. Numer. Anal. 53
(2015) 1350-1369).  For mu < 1 and x < 0 the transform has no pole on the
principal sheet, so one fixed set of nodes serves every order and argument.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError

__all__ = ["gamma_fn", "mittag_leffler"]

_MAX_TERMS = 100_000
# Relative truncation threshold of the series: stop once, past the largest
# term, ``term < _CUTOFF * partial sum``.
_CUTOFF = 1e-16


# Garrappa's optimal contour for a pole-free region at t = 1 and tolerance
# 1e-15: mu_c is the largest scale whose rounding error eps * e^{mu_c} stays
# at the tolerance, and h, N balance the discretisation error against the
# decay of e^{s} at the truncation.  This gives mu_c = 1.5049, h = 0.18126
# and N = 27.  The weights fold in e^{s}, ds/du * h / (2 pi i) and 1/s.
_LOG_TOL = math.log(1e-15)
_LOG_EPS = math.log(sys.float_info.epsilon)
_MU_C = _LOG_TOL - _LOG_EPS
_U_MAX = math.sqrt(_LOG_EPS / (_LOG_EPS - _LOG_TOL))
_N = math.ceil(-_U_MAX * _LOG_TOL / (2.0 * math.pi))
_H = _U_MAX / _N
_U = _H * np.arange(-_N, _N + 1)
_S = _MU_C * (1.0 + 1j * _U) ** 2
_LOG_S = np.log(_S)
_WEIGHTS = _H * _MU_C / math.pi * np.exp(_S) * (1.0 + 1j * _U) / _S


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Computed as ``exp(lgamma(x))`` so that callers needing ratios of huge
    gamma values can work on the log scale without overflow surprises.

    Parameters
    ----------
    x : float
        Strictly positive argument.

    Returns
    -------
    float
        ``Gamma(x)``, accurate to at least 12 significant digits on (0, 50].
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    return math.exp(math.lgamma(x))


def mittag_leffler(mu: float, arg: float) -> float:
    """Evaluate ``E_mu(arg)`` for order 0 < mu <= 1 and a finite real ``arg``.

    ``exp(arg)`` for mu == 1; otherwise the compensated series for arg > 0
    and the contour inversion for arg < 0, which is within about 2e-15
    absolute on [-200, 0) and capped at 1.  Results exceeding the double
    range are reported as ``inf``; a series that has not converged after
    100000 terms raises :class:`ConvergenceError` carrying ``arg``.
    """
    mu = float(mu)
    arg = float(arg)
    if not math.isfinite(mu) or not 0.0 < mu <= 1.0:
        raise ValueError(f"mittag_leffler requires mu in (0, 1], got {mu!r}")
    if not math.isfinite(arg):
        raise ValueError(f"mittag_leffler requires a finite argument, got {arg!r}")

    if mu == 1.0:
        try:
            return math.exp(arg)
        except OverflowError:
            return math.inf
    if arg == 0.0:
        return 1.0
    if arg > 0.0:
        return _series_float(mu, arg)
    s_mu = np.exp(mu * _LOG_S)
    # E_mu(x) lies in (0, 1] for x < 0; the rounding error of about 2e-15
    # would otherwise push tiny arguments just above 1.
    return min(float(np.dot(_WEIGHTS, s_mu / (s_mu - arg)).real), 1.0)


def _series_float(mu: float, x: float) -> float:
    """Kahan-compensated summation of the defining series, x > 0."""
    total = 1.0
    comp = 0.0
    prev_term = math.inf
    lx = math.log(x)
    for n in range(1, _MAX_TERMS + 1):
        try:
            term = math.exp(n * lx - math.lgamma(n * mu + 1.0))
        except OverflowError:
            return math.inf
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            return total
        if term < prev_term and term <= _CUTOFF * total:
            return total
        prev_term = term
    raise ConvergenceError(
        f"Mittag-Leffler series of order {mu} did not converge in "
        f"{_MAX_TERMS} terms at argument {x}",
        ratio=x,
    )
