"""Hybrid Sumudu-variational iteration for the delayed fractional logistic model.

The scheme generates correction terms x_0, x_1, x_2, ... for

    D^mu z(t) = r z(t) (1 - z(lam*t)/k),    z(0) = z0,

where D^mu is the order-mu derivative with Mittag-Leffler memory and
normalization B = b_norm.  Starting from the constant x_0 = z0, each step
transports the previous term and its Adomian polynomial to the Sumudu
domain, applies the Lagrange-multiplier kernel (1 - mu + mu u^mu), scales
by r/B and transforms back:

    x_{n+1} = (1/B) S^-1[ r (1 - mu + mu u^mu) (S[x_n] - S[P_n]/k) ].

The undelayed series, with the textbook Adomian table for z^2, is the
lam = 1 series; the CLI's ``--mode square`` is shorthand for it.  At
lam = 0 the delayed state is the datum z0 = x_0, as in the solver and the
closed form, so the series sums to the lam = 0 closed form.

Every term lives on the lattice t^(k*mu), and x_i has i + 1 coefficients,
so the iteration runs on one square coefficient matrix whose row i holds
x_i.  A step forms only the polynomial P_n it needs, as a sum of n + 1
vectorised Cauchy products, and applies the transform pair and kernel
elementwise.  A sweep's parameter sets go through as one stack of such
matrices, in O(n^2) numpy calls a stack, not a set.  The step that
builds x_m forms its polynomial from m products of m x (m - i) cells,
about m^3/2 multiply-adds, so a run of n steps costs about n^4/8 a set.
One set took 0.4, 2.7, 8.8, 79 and 700 ms at n = 10, 30, 50, 100 and 200
(2-vCPU Xeon): about x9 per doubling of n from n = 50 on, as the calls'
overhead still shares the time with the n^4 flops.  The operations are
those of the series functions in :mod:`fraclogistic.series` and
:mod:`fraclogistic.adomian`, in the same order, so the coefficients
agree with them bit for bit, in a stack or alone.

The solution keeps the matrices and evaluates a whole time grid at once by
Horner's rule in t^mu over their columns; the truncated solution adds the
terms in ascending order, so values match term-by-term evaluation with
:func:`fraclogistic.series.eval_series` bit for bit.  A separate
geometric closed form sums the crude surrogate in which every term is
replaced by z0 * q(t)^i with ratio

    q(t) = (r/B) (1 - z0/k) psi(t),    psi(t) = 1 - mu + mu t^mu / Gamma(mu+1);

the surrogate is first-order accurate only (the exact terms carry
1/Gamma(i*mu + 1)-type denominators the pure power q^i lacks), so the
two evaluations drift apart at order q^2: the difference of the two
values measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# perfbench/tracing.py wraps these series-layer names where hsv looks them up.
from .adomian import adomian_delayed_product  # noqa: F401
from .errors import ConvergenceError
from .model import ModelParams
from .series import (  # noqa: F401
    eval_series,
    kernel_multiply,
    series_add,
    series_scale,
    sumudu_forward,
    sumudu_inverse,
)
from .special import gamma_fn, time_powers

__all__ = [
    "HsvSolution",
    "HsvEvaluation",
    "GeometricForm",
    "hsv_iterate",
    "hsv_evaluate",
    "geometric_closed_form",
    "HSV_SOLVER_AGREEMENT_RTOL",
]

# Pinned agreement tolerance between the 10-term series and the numerical
# reference solver on a short horizon.  The series is Adomian's
# decomposition of the ABC integral equation and converges inside its
# radius; the measured agreement is far tighter, so this is a loose
# qualitative bound, not a convergence rate claim.
HSV_SOLVER_AGREEMENT_RTOL = 0.05

# Largest truncation order: the time grows about x9 per doubling of n (the
# flops as n^4) and 200 steps take about 0.7 s a set (2-vCPU Xeon); far
# beyond that the coefficients underflow to zero.
_MAX_TERMS = 200
# Most work one stack may ask for, sets * (n+1)^3, a cap fitted to measured
# times rather than a flop count: the 90 sets of `surface --vary both` at the
# largest order, about 1 min at n = 200 (2-vCPU Xeon).
# The 1001 sets of `surface --vary lambda --step 0.001 --n-terms 60` fit
# (about 7 s), as do 21 sets at n = 200 (14 s); 9901 sets at n = 200 would
# take about 2 h.
_MAX_WORK = 90 * (_MAX_TERMS + 1) ** 3

# Most cells one chunk of a stack works on: a set takes (n+1)^2 while it is
# built and (n+1) a time while it is evaluated.  Unchunked, the 1001 sets of
# `surface --vary lambda --step 0.001 --n-terms 60` peaked at 171 MB instead
# of 61 MB and took 14 s instead of 6, and 10 sets at n = 200 built 10-15 %
# slower; under this budget n = 200 builds one set at a time.
_CELLS = 1 << 16


class HsvEvaluation(NamedTuple):
    """Partial-sum value plus the magnitude of the last retained term."""

    value: float
    last_term: float


class GeometricForm(NamedTuple):
    """Geometric closed-form value and the ratio it was summed from."""

    value: float
    ratio: float


@dataclass(frozen=True, eq=False)
class HsvSolution:
    """Terms x_0 .. x_n of :func:`hsv_iterate`, for one parameter set or a stack.

    For one set, ``params`` is its :class:`ModelParams` and row i of the
    read-only ``(n+1) x (n+1)`` ``coeffs`` holds x_i's coefficients on the
    lattice t^(k*mu); entries past column i are zero.  For a stack of P
    sets, ``params`` is the tuple of sets, ``coeffs`` holds one such matrix
    per set along a leading axis, ``(P, n+1, n+1)``, and every result gains
    that leading set axis.
    """

    params: ModelParams | tuple
    coeffs: np.ndarray

    def _stack(self) -> tuple:
        """The sets and their ``(P, n+1, n+1)`` coefficients, for one set too."""
        single = self.coeffs.ndim == 2
        return ((self.params,), self.coeffs[None]) if single else (self.params, self.coeffs)

    def _unstack(self, stacked: np.ndarray) -> np.ndarray:
        """A result with a set axis, without it for a single-set solution."""
        return stacked[0] if self.coeffs.ndim == 2 else stacked

    @property
    def truncation(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def terms(self) -> np.ndarray:
        """Every set's terms x_0 .. x_n, one a row, in set order.

        A read-only ``(P*(n+1), n+1)`` view of ``coeffs``: row p*(n+1) + i
        holds x_i of set p, zero past column i.
        """
        return self.coeffs.reshape(-1, self.truncation + 1)

    def term_values(self, t) -> np.ndarray:
        """Evaluate every term at ``t``: index i holds x_i(t).

        ``t`` is a time or a 1-d array of times, giving shape ``(n+1,)`` or
        ``(n+1, len(t))``, after the set axis of a stack.  Each set takes
        its own ``t**mu``.  Every t must be finite and >= 0.  Values that
        overflow come back as inf or nan, without a warning.
        """
        sets, coeffs = self._stack()
        flat, x = zip(*(time_powers(t, p.mu) for p in sets))  # libm pow, as eval_series
        x = np.stack(x)[:, None]
        acc = np.zeros((*coeffs.shape[:2], x.shape[-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            for column in coeffs.transpose(2, 0, 1)[::-1]:
                acc = acc * x + column[..., None]
        acc[..., flat[0] == 0.0] = coeffs[..., :1]  # as eval_series, zero signs too
        return self._unstack(acc if np.ndim(t) else acc[..., 0])


def _chunks(count: int, cells: int) -> list:
    """Slices of ``count`` sets holding at most ``_CELLS`` cells at ``cells`` a set.

    Every slice holds one set at least.
    """
    step = max(1, _CELLS // max(1, cells))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def hsv_iterate(params, n_terms: int) -> HsvSolution:
    """Generate the terms x_0 .. x_{n_terms} of one parameter set or a stack.

    ``params`` is a :class:`ModelParams`, or a sequence of them for a
    stacked solution.  Row i of an (n+1) x (n+1) matrix ``c`` holds the
    coefficients of x_i; a stack steps one ``(P, n+1, n+1)`` tensor, with
    delay factors per set and a Gamma table per distinct mu, in chunks of
    at most ``_CELLS // (n+1)**2`` sets (one at least).  Every operation
    acts on each set alone, in the order a single set takes, so a set's
    coefficients do not depend on the stack around it, bit for bit.

    Step n builds only ``P_n``: row p of ``prod`` collects the Cauchy
    product of x_p with the delayed x_{n-p}, and the rows are summed in
    ascending p.  ``n_terms`` may be at most 200, and ``Gamma(n_terms*mu +
    1)`` must be finite (n_terms * mu below about 170); otherwise, or when
    a coefficient overflows, ``ValueError`` is raised for the first set, in
    stack order, that fails.  A stack's work, P (n_terms + 1)^3 for P sets
    (a cap fitted to measured times, not a flop count), may be at most
    ``_MAX_WORK`` = 90 * 201^3, about 7.3e8: the 90 sets of ``surface
    --vary both`` at n = 200, or 1001 sets at n = 89.  A larger
    stack raises ``ValueError`` before any Gamma table is built.
    """
    if not isinstance(n_terms, int) or n_terms < 1:
        raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
    if n_terms > _MAX_TERMS:
        raise ValueError(f"n_terms must be at most {_MAX_TERMS}, got {n_terms}")
    single = isinstance(params, ModelParams)
    sets = (params,) if single else tuple(params)
    if not sets:
        raise ValueError("params must hold at least one parameter set")
    size = n_terms + 1
    work = len(sets) * size ** 3
    if work > _MAX_WORK:
        raise ValueError(f"a stack of {len(sets)} sets at n_terms = {n_terms} is too large: "
                         f"sets * (n_terms + 1)^3 = {work:.3g} exceeds {_MAX_WORK:.3g}")
    tables, g, delay, overflow = {}, [], [], None
    for p in sets:  # arrays, not lists of floats: 1001 sets at n = 60 would hold 4 MB
        if p.mu not in tables:  # one Gamma table per mu
            try:
                tables[p.mu] = np.fromiter((gamma_fn(k * p.mu + 1.0) for k in range(size)),
                                           float, size)
            except OverflowError:  # raised once the sets before it are built
                overflow = (f"Gamma(n_terms*mu + 1) overflows for n_terms = {n_terms}, "
                            f"mu = {p.mu}; n_terms*mu must stay below about 170")
                break
        g.append(tables[p.mu])
        delay.append(np.fromiter((p.lam ** (k * p.mu) for k in range(size)), float, size))
    g, delay = np.reshape(g, (-1, size)), np.reshape(delay, (-1, size))
    c = np.zeros((len(g), size, size))
    for part in _chunks(len(g), size * size):
        cs, gs, ds = c[part], g[part], delay[part]
        z0, mu, factor, neg_k, lam = np.array([(p.z0, p.mu, p.r / p.b_norm, -1.0 / p.k, p.lam)
                                               for p in sets[:len(g)][part]]).T[..., None]
        cs[:, 0, :1] = z0
        s = np.zeros_like(cs)  # row i holds the delayed x_i
        s[:, 0] = cs[:, 0] * ds
        ds *= lam != 0.0  # at lam = 0 only the datum x_0 is fed back
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, size):  # step n = m - 1 builds x_m
                prod = np.zeros((len(cs), m, m))
                for i in range(m):  # a leading ... indexes faster than a leading :
                    prod[..., i:] += cs[..., :m, i:i + 1] * s[..., m - 1::-1, :m - i]
                poly = prod.sum(axis=1)
                d = cs[:, m - 1, :m] * gs[:, :m] + neg_k * (poly * gs[:, :m])
                # accumulated from zeros in kernel_multiply's order, signed zeros too
                e = np.zeros((len(cs), m + 1))
                e[:, 1:] += mu * d
                e[:, :-1] += (1.0 - mu) * d
                cs[:, m, :m + 1] = factor * e / gs[:, :m + 1]
                if not np.isfinite(cs[0, m]).all():
                    break  # the chunk's first set fails, and no set before it
                s[:, m] = cs[:, m] * ds
        failed = ~np.isfinite(cs).all(axis=2)  # per set and term
        if failed.any():
            first = failed[failed.any(axis=1)][0].argmax()
            raise ValueError(f"term x_{first} has non-finite coefficients")
    if overflow:
        raise ValueError(overflow)
    c.flags.writeable = False
    return HsvSolution(params=params if single else sets, coeffs=c[0] if single else c)


def hsv_evaluate(sol: HsvSolution, t) -> HsvEvaluation:
    """Partial sum of the terms at ``t``, with a truncation-error proxy.

    ``t`` is a time or a 1-d array of times, as for
    :meth:`HsvSolution.term_values`; both fields then have its shape, after
    the set axis of a stack.  A stack is evaluated in chunks of at most
    ``_CELLS`` term values, so memory does not grow with the set count.
    The reported value is the full partial sum.  For mu < 1 the correction
    terms contribute constant parts (1 - mu) * (...), so the value at
    t = 0 deliberately differs from z0: this mirrors the initial jump of
    the nonlocal operator's integral form rather than hiding it.
    """
    sets, coeffs = sol._stack()
    chunks = (HsvSolution(sets[part], coeffs[part]).term_values(t)  # one at a time
              for part in _chunks(len(sets), coeffs.shape[1] * np.size(t)))
    with np.errstate(over="ignore", invalid="ignore"):  # terms in ascending order, from 0
        value, last = zip(*[(sum(v.swapaxes(0, 1)), abs(v[:, -1])) for v in chunks])
    return HsvEvaluation(*(sol._unstack(np.concatenate(x)) for x in (value, last)))


def geometric_closed_form(params: ModelParams, t) -> GeometricForm:
    """Sum the geometric surrogate ``z0 * sum_i q(t)^i = z0 / (1 - q)``.

    The ratio is ``q = (r/B) (1 - z0/k) psi`` with the time-domain kernel
    ``psi = 1 - mu + mu t^mu / Gamma(mu + 1)``.  ``t`` is a time or a 1-d
    array of times, as for :meth:`HsvSolution.term_values`; both fields
    then have its shape.  Raises :class:`ConvergenceError` (carrying the
    ratio) at the first t where |q| >= 1 or q is nan (an overflow times 0).
    """
    p, mu = params, params.mu
    ts, power = time_powers(t, mu)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which diverge below
        q = (p.r / p.b_norm) * (1.0 - p.z0 / p.k) * (1.0 - mu + mu * power / gamma_fn(mu + 1.0))
    diverged = np.flatnonzero(~(np.abs(q) < 1.0))
    if diverged.size:
        q_at, t_at = float(q[diverged[0]]), float(ts[diverged[0]])
        raise ConvergenceError(f"geometric ratio |q| = {abs(q_at)} >= 1 at t = {t_at}; "
                               "closed form diverges", ratio=q_at)
    value = p.z0 / (1.0 - q)
    return GeometricForm(value, q) if np.ndim(t) else GeometricForm(float(value[0]), float(q[0]))
