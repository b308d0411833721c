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

:func:`mittag_leffler` takes a float or a whole 1-d array of arguments and
evaluates every point of one route together.  The series goes one term at
a time across all points while more than ``_CELLS // _BLOCK`` (1024) are
left, then a block of terms at a time for the rest; the contour goes a
chunk of points at a time for all 55 nodes.  Each point's arithmetic does
not depend on the other points, so an array gives exactly the values of one
scalar call per point.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .errors import ConvergenceError

__all__ = ["gamma_fn", "mittag_leffler"]

_MAX_TERMS = 100_000
# Relative truncation threshold of the series: stop once
# ``term <= _CUTOFF * partial sum``.
_CUTOFF = 1e-16
# Series terms per point in the first block, and the most terms (or contour
# node-point pairs) formed at once over all points, 256 kB per matrix.
_BLOCK = 32
_CELLS = 1 << 15


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

    Computed as ``exp(lgamma(x))``.  It returns Gamma itself, not its
    logarithm, so past x of about 171.6, where Gamma(x) leaves the float
    range, it raises ``OverflowError``.  Gamma(1) and Gamma(2) are exactly 1.

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


def time_powers(t, mu: float) -> tuple:
    """Flat times and ``t**mu`` of a time or 1-d time grid ``t``.

    The package's one rule for time arguments (not exported): every t must
    be finite and >= 0.  The powers come from libm one point at a time, as
    Python floats give them: numpy's vectorised power rounds the last bit
    differently at some points.  They go straight into the array, with no
    list of results in between.
    """
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    if flat.ndim > 1 or not np.isfinite(flat).all() or (flat < 0.0).any():
        raise ValueError(f"expected a time or a 1-d grid of finite t >= 0, got {t!r}")
    return flat, np.fromiter(map(pow, flat.tolist(), itertools.repeat(mu)), float, len(flat))


def mittag_leffler(mu: float, arg):
    """Evaluate ``E_mu(arg)`` for order 0 < mu <= 1 and finite real arguments.

    ``arg`` is a float or a 1-d array; a float gives a float and an array an
    array of its length, each point computed exactly as a scalar call would.
    ``exp(arg)`` (libm, per point) for mu == 1; otherwise the compensated
    series for arg > 0 and the contour inversion for arg < 0, which is
    within about 2e-15 absolute on [-200, 0) and capped at 1.  Results
    exceeding the double range are reported as ``inf``; a series that has
    not converged after 100000 terms raises :class:`ConvergenceError`
    carrying the first such argument.  Any non-finite ``arg`` or ``mu``
    outside (0, 1] raises ``ValueError``.
    """
    mu = float(mu)
    if not math.isfinite(mu) or not 0.0 < mu <= 1.0:
        raise ValueError(f"mittag_leffler requires mu in (0, 1], got {mu!r}")
    x = np.asarray(arg, dtype=float)
    if x.ndim > 1:
        raise ValueError(f"mittag_leffler takes a float or a 1-d array, got shape {x.shape}")
    flat = np.atleast_1d(x)
    if not np.isfinite(flat).all():
        raise ValueError(f"mittag_leffler requires finite arguments, got {arg!r}")

    if mu == 1.0:
        out = np.fromiter(map(_exp, flat.tolist()), float, len(flat))
    else:
        out = np.ones(len(flat))
        pos = flat > 0.0
        if pos.any():
            out[pos] = _series(mu, flat[pos])
        neg = flat < 0.0
        if neg.any():
            out[neg] = _contour(mu, flat[neg])
    return out if x.ndim else float(out[0])


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _contour(mu: float, x: np.ndarray) -> np.ndarray:
    """Trapezoidal rule on the parabola for x < 0.

    Points go in chunks of at most ``_CELLS`` node-point pairs, and each
    point's 55 contributions are accumulated in node order.
    """
    s_mu = np.exp(mu * _LOG_S)[:, None]
    out = np.empty(len(x))
    chunk = _CELLS // len(_WEIGHTS)
    for lo in range(0, len(x), chunk):
        part = _WEIGHTS[:, None] * (s_mu / (s_mu - x[lo:lo + chunk]))
        # in node order: part.sum(axis=0) sums pairwise, which would give a
        # one-point chunk, so a scalar call, other values than an array
        out[lo:lo + chunk] = np.cumsum(part, axis=0)[-1].real
    # E_mu(x) lies in (0, 1] for x < 0; the rounding error of about 2e-15
    # would otherwise push tiny arguments just above 1.
    return np.minimum(out, 1.0)


def _series(mu: float, x: np.ndarray) -> np.ndarray:
    """Compensated summation of the defining series, x > 0.

    Two phases, switched by ``_CELLS`` and ``_BLOCK``.  While a block would
    be thinner than ``_BLOCK`` terms, that is while more than
    ``_CELLS // _BLOCK`` points have not stopped, each term is formed
    across all points left, and the stopped ones are dropped in batches: a
    wide array then needs no strided reductions down a block's columns,
    and each point sums only the terms it needs.  After that, terms are formed a block at a
    time, row n - first of a (block, points) matrix, with one ``np.exp`` per
    block; a block starts at ``_BLOCK`` terms (a quarter of that after the
    one-term phase) and doubles, capped at ``_CELLS`` terms over the points
    left.  The running sums are a plain sum in term order; their rounding
    errors are recovered exactly (Fast2Sum on the ordered pair) and summed
    separately (Neumaier), so each point gets the same result whatever the
    phases, the blocks and the other points.  A point stops at the first
    term below ``_CUTOFF`` of the running sum, or at the first infinite sum.
    The terms are log-concave in n (lgamma is convex), so up to the peak
    each term is at least the average of the sum so far, and a term that
    small is past the peak.
    """
    lx = np.log(x)
    out = np.empty(len(x))
    active = np.arange(len(x))
    total = np.ones(len(x))
    comp = np.zeros(len(x))
    first, size = 1, _BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        # one term at a time while more than _CELLS // _BLOCK points are live,
        # where a block would be thinner than _BLOCK
        live = len(x)
        while live * _BLOCK > _CELLS and first <= _MAX_TERMS:
            term = np.exp(first * lx - math.lgamma(first * mu + 1.0))
            after = total + term
            comp += np.minimum(total, term) - (after - np.maximum(total, term))
            # an infinite sum stops here too
            stop = term <= _CUTOFF * after
            total = after
            first += 1
            # a stopped point's terms are exp(-inf) = 0 from here on, which
            # leave its total and so its value as they are: the stopped points
            # are dropped once they are half of those left, or when the rows end
            lx[stop] = -math.inf
            live = len(lx) - np.count_nonzero(stop)
            if 2 * live <= len(lx) or live * _BLOCK <= _CELLS or first > _MAX_TERMS:
                out[active[stop]] = np.where(total < math.inf, total + comp, total)[stop]
                if not live:
                    return out
                keep = ~stop
                active, lx, total, comp = active[keep], lx[keep], total[keep], comp[keep]
        if first > 1:
            # the points left have summed their first terms, and many need
            # only a few more; the blocks double from there for the rest
            size = _BLOCK // 4
        while first <= _MAX_TERMS:
            block = min(size, _CELLS // len(active), _MAX_TERMS + 1 - first)
            lg = np.array([math.lgamma(n * mu + 1.0) for n in range(first, first + block)])
            terms = np.exp(np.arange(first, first + block, dtype=float)[:, None] * lx
                           - lg[:, None])
            sums = np.cumsum(np.concatenate((total[None], terms)), axis=0)
            before, after = sums[:-1], sums[1:]
            larger = np.maximum(before, terms)
            errors = np.minimum(before, terms) - (after - larger)
            errors[0] += comp
            comps = np.cumsum(errors, axis=0)
            stop = terms <= _CUTOFF * after  # an infinite sum stops too
            # columns without a stop get a value here that a later block replaces
            at, cols = stop.argmax(axis=0), np.arange(len(active))
            final = after[at, cols]
            out[active] = np.where(final < math.inf, final + comps[at, cols], final)
            done = stop.any(axis=0)
            if done.all():
                return out
            keep = ~done
            active, lx = active[keep], lx[keep]
            total, comp = after[-1, keep], comps[-1, keep]
            first += block
            size *= 2
    bad = float(x[active[0]])
    raise ConvergenceError(
        f"Mittag-Leffler series of order {mu} did not converge in "
        f"{_MAX_TERMS} terms at argument {bad}",
        ratio=bad,
    )
