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
elementwise; a run of n steps costs O(n^3) flops in O(n^2) numpy calls.
The operations are those of the series functions in
:mod:`fraclogistic.series` and :mod:`fraclogistic.adomian`, in the same
order, so the coefficients agree with them bit for bit.

The solution keeps that matrix and evaluates a whole time grid at once by
Horner's rule in t^mu over its columns; the truncated solution adds the
terms in ascending order, so values match term-by-term evaluation with
:func:`fraclogistic.series.eval_series` bit for bit.  A separate
geometric closed form sums the crude surrogate in which every term is
replaced by z0 * q(t)^i with ratio

    q(t) = (r/B) (1 - z0/k) (1 - mu + mu t^mu / Gamma(mu+1));

the surrogate is first-order accurate only (the exact terms carry
1/Gamma(i*mu + 1)-type denominators the pure power q^i lacks), so the
two evaluations drift apart at order q^2; ``geometric_gap`` reports the
discrepancy at runtime.
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
    FracSeries,
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
    "geometric_gap",
    "psi_kernel",
    "HSV_SOLVER_AGREEMENT_RTOL",
]

# Pinned agreement tolerance between the 10-term series and the numerical
# reference solver on a short horizon.  The series is Adomian's
# decomposition of the ABC integral equation and converges inside its
# radius; the measured agreement is far tighter, so this is a loose
# qualitative bound, not a convergence rate claim.
HSV_SOLVER_AGREEMENT_RTOL = 0.05

# Largest truncation order: the cost grows as n^3 and 200 steps take about
# a second; far beyond that the coefficients underflow to zero.
_MAX_TERMS = 200


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
    """Terms x_0 .. x_n of :func:`hsv_iterate` as one coefficient matrix.

    Row i of the read-only ``(n+1) x (n+1)`` ``coeffs`` holds x_i's
    coefficients on the lattice t^(k*mu); entries past column i are zero.
    """

    params: ModelParams
    coeffs: np.ndarray

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @property
    def terms(self) -> tuple:
        """The terms x_0 .. x_n as :class:`FracSeries`, built on each access."""
        mu = self.params.mu
        return tuple(FracSeries(mu, row[:i + 1]) for i, row in enumerate(self.coeffs))

    def term_values(self, t) -> np.ndarray:
        """Evaluate every term at ``t``: index i holds x_i(t).

        ``t`` is a time or a 1-d array of times, giving shape ``(n+1,)`` or
        ``(n+1, len(t))``.  Every t must be finite and >= 0.  Values that
        overflow come back as inf or nan, without a warning.
        """
        flat, x = time_powers(t, self.params.mu)  # libm pow, as eval_series
        acc = np.zeros((len(self.coeffs), len(x)))
        with np.errstate(over="ignore", invalid="ignore"):
            for column in self.coeffs.T[::-1]:
                acc = acc * x + column[:, None]
        acc[:, flat == 0.0] = self.coeffs[:, :1]  # as eval_series, zero signs too
        return acc if np.ndim(t) else acc[:, 0]


def hsv_iterate(params: ModelParams, n_terms: int) -> HsvSolution:
    """Generate the terms x_0 .. x_{n_terms}.

    Row i of an (n+1) x (n+1) matrix ``c`` holds the coefficients of x_i.
    Step n builds only ``P_n``: row p of ``prod`` collects the Cauchy
    product of x_p with the delayed x_{n-p}, and the rows are summed in
    ascending p.  ``n_terms`` may be at most 200, and ``Gamma(n_terms*mu +
    1)`` must be finite (n_terms * mu below about 170); otherwise, or when
    a coefficient overflows, ``ValueError`` is raised.
    """
    if not isinstance(n_terms, int) or n_terms < 1:
        raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
    if n_terms > _MAX_TERMS:
        raise ValueError(f"n_terms must be at most {_MAX_TERMS}, got {n_terms}")
    p = params
    mu = p.mu
    try:
        g = np.array([gamma_fn(k * mu + 1.0) for k in range(n_terms + 1)])
    except OverflowError:
        raise ValueError(
            f"Gamma(n_terms*mu + 1) overflows for n_terms = {n_terms}, mu = {mu}; "
            "n_terms*mu must stay below about 170"
        ) from None
    c = np.zeros((n_terms + 1, n_terms + 1))
    c[0, 0] = p.z0
    delay = np.array([p.lam ** (k * mu) for k in range(n_terms + 1)])
    s = np.zeros_like(c)  # row i holds the delayed x_i
    s[0] = c[0] * delay
    factor = p.r / p.b_norm
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_terms):
            m = n + 1
            prod = np.zeros((m, m))
            for i in range(m):
                prod[:, i:] += c[:m, i:i + 1] * s[n::-1, :m - i]
            poly = prod.sum(axis=0)
            d = c[n, :m] * g[:m] + (-1.0 / p.k) * (poly * g[:m])
            # accumulated from zeros in kernel_multiply's order, signed zeros too
            e = np.zeros(m + 1)
            e[1:] += mu * d
            e[:-1] += (1.0 - mu) * d
            c[n + 1, :m + 1] = factor * e / g[:m + 1]
            if not np.isfinite(c[n + 1]).all():
                raise ValueError(f"term x_{n + 1} has non-finite coefficients")
            if p.lam:  # at lam = 0 only the datum x_0 is fed back
                s[n + 1] = c[n + 1] * delay
    c.flags.writeable = False
    return HsvSolution(params=p, coeffs=c)


def hsv_evaluate(sol: HsvSolution, t) -> HsvEvaluation:
    """Partial sum of the terms at ``t``, with a truncation-error proxy.

    ``t`` is a time or a 1-d array of times, as for
    :meth:`HsvSolution.term_values`; both fields then have its shape.
    The reported value is the full partial sum.  For mu < 1 the correction
    terms contribute constant parts (1 - mu) * (...), so the value at
    t = 0 deliberately differs from z0: this mirrors the initial jump of
    the nonlocal operator's integral form rather than hiding it.
    """
    values = sol.term_values(t)
    with np.errstate(over="ignore", invalid="ignore"):
        return HsvEvaluation(value=sum(values), last_term=abs(values[-1]))


def psi_kernel(params: ModelParams, t):
    """Time-domain kernel ``1 - mu + mu t^mu / Gamma(mu + 1)``.

    ``t`` is a time or a 1-d array of times, as for
    :meth:`HsvSolution.term_values`, giving a float or an array.
    """
    mu = params.mu
    _, power = time_powers(t, mu)
    psi = 1.0 - mu + mu * power / gamma_fn(mu + 1.0)
    return psi if np.ndim(t) else float(psi[0])


def geometric_closed_form(params: ModelParams, t) -> GeometricForm:
    """Sum the geometric surrogate ``z0 * sum_i q(t)^i = z0 / (1 - q)``.

    ``t`` is a time or a 1-d array of times, as for :func:`psi_kernel`;
    both fields then have its shape.  Raises :class:`ConvergenceError`
    (carrying the ratio) at the first t where |q| >= 1.
    """
    p = params
    q = (p.r / p.b_norm) * (1.0 - p.z0 / p.k) * psi_kernel(p, t)
    diverged = np.flatnonzero(np.abs(q) >= 1.0)
    if diverged.size:
        first = diverged[0]
        q_at, t_at = float(np.atleast_1d(q)[first]), float(np.atleast_1d(t)[first])
        raise ConvergenceError(
            f"geometric ratio |q| = {abs(q_at)} >= 1 at t = {t_at}; closed form diverges",
            ratio=q_at,
        )
    return GeometricForm(value=p.z0 / (1.0 - q), ratio=q)


def geometric_gap(sol: HsvSolution, t):
    """Absolute difference between the partial sum and the geometric form.

    ``t`` is a time or a 1-d array of times, giving a float or an array.

    Quantifies, at runtime, how far the exact kernel powers drift from
    the pure ``q^i`` surrogate (zero only at q = 0).
    """
    series_value = hsv_evaluate(sol, t).value
    return abs(series_value - geometric_closed_form(sol.params, t).value)
