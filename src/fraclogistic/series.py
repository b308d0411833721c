"""Generalized power series in t^(k*mu) and their Sumudu-domain images.

A :class:`FracSeries` stores the coefficients of a finite series

    w(t) = sum_k c_k * t^(k*mu),        0 < mu <= 1,

the lattice in which every iterate of the hybrid Sumudu-variational
scheme lives.  Its image under the Sumudu transform
``W(u) = int_0^inf w(t*u) e^{-t} dt`` is again a series on the same
lattice, since termwise ``S[t^(k*mu)] = Gamma(k*mu + 1) * u^(k*mu)``;
:class:`SumuduSeries` holds those coefficients.  The operations below
implement the transform pair, the Lagrange-multiplier kernel product,
Cauchy products, delay rescaling and evaluation.  All values are
immutable and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import gamma_fn

__all__ = [
    "FracSeries",
    "SumuduSeries",
    "sumudu_forward",
    "sumudu_inverse",
    "kernel_multiply",
    "series_product",
    "series_add",
    "series_scale",
    "delay_rescale",
    "eval_series",
]


@dataclass(frozen=True)
class _LatticeSeries:
    mu: float
    coeffs: tuple

    def __post_init__(self):
        mu = float(self.mu)
        if not math.isfinite(mu) or not 0.0 < mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu!r}")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("coeffs must contain at least one entry")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coeffs must all be finite")
        # trailing zeros are trimmed; a tiny coefficient still matters at
        # large t, where t^(k*mu) is huge
        n = len(coeffs)
        while n > 1 and coeffs[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "coeffs", coeffs[:n])

    def __len__(self) -> int:
        return len(self.coeffs)


class FracSeries(_LatticeSeries):
    """Time-domain series ``sum_k c_k t^(k*mu)`` with trimmed coefficients."""


class SumuduSeries(_LatticeSeries):
    """Sumudu-domain series ``sum_k d_k u^(k*mu)`` with trimmed coefficients."""


def _require_compatible(a: _LatticeSeries, b: _LatticeSeries) -> None:
    if type(a) is not type(b):
        raise ValueError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}"
        )
    if a.mu != b.mu:
        raise ValueError(f"series order mismatch: {a.mu} != {b.mu}")


def sumudu_forward(s: FracSeries) -> SumuduSeries:
    """Termwise Sumudu transform: ``d_k = c_k * Gamma(k*mu + 1)``."""
    d = tuple(c * gamma_fn(k * s.mu + 1.0) for k, c in enumerate(s.coeffs))
    return SumuduSeries(s.mu, d)


def sumudu_inverse(S: SumuduSeries) -> FracSeries:
    """Termwise inverse transform: ``c_k = d_k / Gamma(k*mu + 1)``."""
    c = tuple(d / gamma_fn(k * S.mu + 1.0) for k, d in enumerate(S.coeffs))
    return FracSeries(S.mu, c)


def kernel_multiply(S: SumuduSeries) -> SumuduSeries:
    """Multiply by the kernel ``(1 - mu) + mu * u^mu`` in the u-domain.

    This is the (negated) Lagrange-multiplier factor of the variational
    iteration; the product shifts coefficients by one lattice slot:
    ``e_k = (1 - mu) d_k + mu d_{k-1}``.
    """
    mu = S.mu
    d = S.coeffs
    e = [0.0] * (len(d) + 1)
    for k, dk in enumerate(d):
        e[k] += (1.0 - mu) * dk
        e[k + 1] += mu * dk
    return SumuduSeries(mu, tuple(e))


def series_product(a: FracSeries, b: FracSeries) -> FracSeries:
    """Cauchy product; valid because ``t^(i*mu) * t^(j*mu) = t^((i+j)*mu)``."""
    _require_compatible(a, b)
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    return FracSeries(a.mu, tuple(out))


def series_add(a, b):
    """Coefficientwise sum of two series of the same kind and order."""
    _require_compatible(a, b)
    n = max(len(a), len(b))
    pa = a.coeffs + (0.0,) * (n - len(a))
    pb = b.coeffs + (0.0,) * (n - len(b))
    return type(a)(a.mu, tuple(x + y for x, y in zip(pa, pb)))


def series_scale(a, factor: float):
    """Multiply every coefficient by a scalar."""
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError(f"scale factor must be finite, got {factor!r}")
    return type(a)(a.mu, tuple(factor * c for c in a.coeffs))


def delay_rescale(s: FracSeries, lam: float) -> FracSeries:
    """Series of ``w(lam * t)``: coefficients pick up ``lam^(k*mu)`` factors.

    ``lam = 1`` is the identity; ``lam = 0`` keeps only the constant term.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    c = tuple(ck * lam ** (k * s.mu) for k, ck in enumerate(s.coeffs))
    return FracSeries(s.mu, c)


def eval_series(s: FracSeries, t: float) -> float:
    """Evaluate ``sum_k c_k t^(k*mu)`` at ``t >= 0`` (Horner in ``t^mu``)."""
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"eval_series requires finite t >= 0, got {t!r}")
    if t == 0.0:
        return s.coeffs[0]
    x = t ** s.mu
    acc = 0.0
    for c in reversed(s.coeffs):
        acc = acc * x + c
    return acc
