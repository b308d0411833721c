"""Shared assertions and generators for the test suite."""

import functools
import math

import mpmath
import numpy as np

from fraclogistic import OperatorKind
from fraclogistic.adomian import adomian_delayed_product
from fraclogistic.series import (
    FracSeries,
    kernel_multiply,
    series_add,
    series_scale,
    sumudu_forward,
    sumudu_inverse,
)


def assert_series_close(a, b, rtol=1e-12, atol=1e-30):
    """Coefficientwise comparison of two series (padded with zeros)."""
    assert type(a) is type(b)
    assert a.mu == b.mu
    n = max(len(a.coeffs), len(b.coeffs))
    pa = np.array(a.coeffs + (0.0,) * (n - len(a.coeffs)))
    pb = np.array(b.coeffs + (0.0,) * (n - len(b.coeffs)))
    np.testing.assert_allclose(pa, pb, rtol=rtol, atol=atol)


def random_frac_series(rng, mu, length, scale=2.0):
    coeffs = tuple(rng.uniform(-scale, scale) for _ in range(length))
    return FracSeries(mu, coeffs)


def exact_lag_weights(mu, lags):
    """``(w, end)`` of the product trapezoid at the given lags >= 1, from 40-digit powers.

    With p = mu + 1, ``w[m] = (m+1)^p + (m-1)^p - 2 m^p`` and ``end[m] =
    p m^mu + m^p - (m+1)^p``: the arrays of
    :func:`fraclogistic.solvers._lag_weights`, where node n's j = 0 weight
    is ``w[n] + end[n]``.
    """
    lags = list(lags)
    with mpmath.workdps(40):
        p = mpmath.mpf(mu) + 1
        power = {k: mpmath.mpf(k) ** p for k in {m + d for m in lags for d in (-1, 0, 1)}}
        w = [power[m + 1] + power[m - 1] - 2 * power[m] for m in lags]
        end = [p * power[m] / m + power[m] - power[m + 1] for m in lags]
        return np.array([float(v) for v in w]), np.array([float(v) for v in end])


@functools.lru_cache(maxsize=None)
def _reference_weights(mu, steps):
    w, end = exact_lag_weights(mu, range(1, steps + 1))
    return np.concatenate(([0.0], w)), np.concatenate(([0.0], end))


def reference_solve(params, cfg, *, forcing=0.0, pantograph=True, tol=1e-14,
                    max_sweeps=100_000):
    """Values of the product-integration scheme, computed the slow direct way.

    Same discretisation as :func:`fraclogistic.solve`, but every history sum
    is a direct O(n) dot product (O(M^2) per run) and every implicit step is
    a plain fixed-point iteration run until successive iterates agree to
    ``tol`` relative.  A step that does not get there in ``max_sweeps``
    sweeps fails the calling test instead of returning a guess.  The
    product-trapezoid weights come from :func:`exact_lag_weights`.
    """
    p = params
    h, mu = cfg.h, p.mu
    steps = max(1, int(math.ceil(cfg.t_end / h - 1e-9)))
    z = np.zeros(steps + 1)
    f = np.zeros(steps + 1)
    op = cfg.operator
    singular = op is not OperatorKind.CFC
    c_point = 0.0 if op is OperatorKind.CAPUTO else (1.0 - mu) / p.b_norm
    if op is OperatorKind.ABC:
        c_quad = mu / (p.b_norm * math.gamma(mu))
    elif op is OperatorKind.CAPUTO:
        c_quad = 1.0 / math.gamma(mu)
    else:
        c_quad = mu / p.b_norm

    def delayed(n, current):
        if not pantograph:
            return current
        if p.lam == 0.0:
            return p.z0
        pos = p.lam * n
        j = int(pos)
        if j >= n:
            return current
        theta = pos - j
        upper = current if j + 1 == n else z[j + 1]
        return (1.0 - theta) * z[j] + theta * upper

    def rhs(n, state):
        return p.r * state * (1.0 - delayed(n, state) / p.k) + forcing

    def fixed_point(n, base, diag):
        guess = z[n - 1] if n > 0 else p.z0
        for _ in range(max_sweeps):
            new = base + diag * rhs(n, guess)
            if abs(new - guess) <= tol * abs(new):
                return new
            guess = new
        raise AssertionError(f"reference fixed point did not converge at step {n}")

    z[0] = fixed_point(0, p.z0, c_point) if op is OperatorKind.ABC else p.z0
    f[0] = rhs(0, z[0])
    for n in range(1, steps + 1):
        if singular:
            lag_w, lag_end = _reference_weights(mu, steps)
            w = lag_w[n - np.arange(n)]  # distance n - j for j = 0..n-1
            w[0] += lag_end[n]
            scale = h ** mu / (mu * (mu + 1.0))
            diag = c_point + c_quad * scale
            base = p.z0 + c_quad * scale * float(np.dot(w, f[:n]))
        else:
            integral = h * (0.5 * f[0] + float(np.sum(f[1:n])))
            diag = c_point + 0.5 * h * c_quad
            base = p.z0 - c_point * f[0] + c_quad * integral
        z[n] = fixed_point(n, base, diag)
        f[n] = rhs(n, z[n])
    return z


def stability_lambda0(operator, params, t):
    """The Hyers-Ulam constant c = delta(t)/eps of the lam = 0 model, in closed form.

    At lam = 0 the feedback is the datum, so f = a z + eps with a = r (1 -
    z0/k) != 0, and the deviation delta of the eps-forced run solves the
    operator's linear integral form with forcing eps.  For every operator

        c = (alpha E_e(q t^e) - 1) / a,

    with, for normalisation B,
        ABC:    e = mu, den = B + a (mu - 1), q = a mu / den, alpha = B / den;
        Caputo: e = mu, q = a, alpha = 1;
        CFC:    e = 1,  q = a (mu/B) / (1 - a (1 - mu)/B), alpha = 1.
    E_e(x) = sum_j x^j / Gamma(e j + 1) is summed with mpmath at 40 digits,
    apart from the package's ``mittag_leffler``.  This is c at t; the probe
    reports the largest c up to its horizon, the same where delta grows.
    """
    p = params
    with mpmath.workdps(40):
        mu, b, a = mpmath.mpf(p.mu), mpmath.mpf(p.b_norm), p.r * (1 - mpmath.mpf(p.z0) / p.k)
        if operator is OperatorKind.ABC:
            e, den = mu, b + a * (mu - 1)
            q, alpha = a * mu / den, b / den
        elif operator is OperatorKind.CAPUTO:
            e, q, alpha = mu, a, 1
        else:
            e, q, alpha = 1, a * (mu / b) / (1 - a * (1 - mu) / b), 1
        x = q * mpmath.mpf(t) ** e
        total, term, j = mpmath.mpf(0), mpmath.mpf(1), 0
        while abs(term) > mpmath.mpf(10) ** -45 * abs(total) or j == 0:
            term = x ** j / mpmath.gamma(e * j + 1)
            total += term
            j += 1
        return float((alpha * total - 1) / a)


def convolution_check(f, g, rtol=1e-12):
    """Verify ``S[(f*g)(t)] = u * S[f](u) * S[g](u)`` on integer powers.

    Only the classical case ``mu == 1`` is supported, where the time-domain
    convolution of monomials is elementary:
    ``t^i * t^j = B(i+1, j+1) t^(i+j+1)`` with the Beta function ``B``.

    Returns True when the transform of the convolution agrees
    coefficientwise (to ``rtol``) with the shifted Cauchy product of the
    individual transforms.
    """
    if f.mu != 1.0 or g.mu != 1.0:
        raise NotImplementedError("convolution_check supports only mu == 1")
    conv = [0.0] * (len(f) + len(g))
    for i, fi in enumerate(f.coeffs):
        for j, gj in enumerate(g.coeffs):
            beta = math.exp(
                math.lgamma(i + 1.0) + math.lgamma(j + 1.0) - math.lgamma(i + j + 2.0)
            )
            conv[i + j + 1] += fi * gj * beta
    lhs = sumudu_forward(FracSeries(1.0, tuple(conv))).coeffs
    prod = np.convolve(sumudu_forward(f).coeffs, sumudu_forward(g).coeffs)
    rhs = (0.0, *prod)
    n = max(len(lhs), len(rhs))
    lhs = lhs + (0.0,) * (n - len(lhs))
    rhs = rhs + (0.0,) * (n - len(rhs))
    for x, y in zip(lhs, rhs):
        if abs(x - y) > rtol * max(abs(x), abs(y), 1e-30):
            return False
    return True


def reference_hsv_iterate(params, n_terms):
    """Terms x_0 .. x_n of the HSV iteration, built from series objects.

    Each step rebuilds every Adomian polynomial ``P_0 .. P_n`` with
    :func:`fraclogistic.adomian.adomian_delayed_product`, keeps the last one and
    goes through the Sumudu transform pair term by term, as the definition
    reads.  The cost grows as about n^4, so it serves small n only.
    """
    p = params
    terms = [FracSeries(p.mu, (p.z0,))]
    for _ in range(n_terms):
        poly = adomian_delayed_product(terms, p.lam)[-1]
        combined = series_add(
            sumudu_forward(terms[-1]),
            series_scale(sumudu_forward(poly), -1.0 / p.k),
        )
        terms.append(
            sumudu_inverse(series_scale(kernel_multiply(combined), p.r / p.b_norm))
        )
    return tuple(terms)
