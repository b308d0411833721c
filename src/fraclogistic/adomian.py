"""Adomian polynomials for the delayed product nonlinearity z(t) * z(lam*t).

For a decomposition ``z = sum_i x_i`` of series terms, the quadratic
nonlinearity splits into polynomials ``P_n`` such that ``P_n`` depends
only on ``x_0 .. x_n``.  Two expansions are provided:

``general``
    parameter-embedding expansion of the delayed product,
    ``P_n = sum_{i+j=n} x_i(t) * x_j(lam*t)``, so the delay factor
    enters each polynomial through ``lam^(k*mu)`` coefficient scalings;

``square``
    the textbook table for the plain square ``f(z) = z^2``
    (P0 = x0^2, P1 = 2 x0 x1, P2 = 2 x0 x2 + x1^2, ...), i.e. the delay
    is dropped inside the nonlinearity: the unit-delay case, computed as
    ``general`` with delay factor 1.

Both coincide for ``lam = 1``.  Polynomials are built by direct double
convolution of the series terms, which is exact for this quadratic
nonlinearity.  This module is the reference and the public API, not the
hot path: :func:`fraclogistic.hsv.hsv_iterate` forms only the last
polynomial on a coefficient matrix, with the same operations in the same
order.
"""

from __future__ import annotations

from .series import FracSeries, delay_rescale, series_add, series_product

__all__ = ["ADOMIAN_MODES", "adomian_delayed_product"]

ADOMIAN_MODES = ("general", "square")


def adomian_delayed_product(terms, lam: float, mode: str = "general"):
    """Adomian polynomials ``P_0 .. P_n`` for the delayed product.

    Parameters
    ----------
    terms : sequence of FracSeries
        Decomposition terms ``x_0 .. x_n``, all sharing one order.
    lam : float
        Delay factor in [0, 1].
    mode : {"general", "square"}
        Whether the second factor of each product is delay-rescaled by
        ``lam`` (``general``) or by the unit delay 1 (``square``); ``lam``
        is validated in both modes.

    Returns
    -------
    list of FracSeries
        One polynomial per input term, in order.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("terms must be nonempty")
    if mode not in ADOMIAN_MODES:
        raise ValueError(f"mode must be one of {ADOMIAN_MODES}, got {mode!r}")
    mu = terms[0].mu
    for x in terms:
        if not isinstance(x, FracSeries):
            raise ValueError("terms must be FracSeries instances")
        if x.mu != mu:
            raise ValueError(f"series order mismatch: {x.mu} != {mu}")
    if not 0.0 <= float(lam) <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    delay = lam if mode == "general" else 1.0
    second = [delay_rescale(x, delay) for x in terms]

    polys = []
    for n in range(len(terms)):
        poly = series_product(terms[0], second[n])
        for i in range(1, n + 1):
            poly = series_add(poly, series_product(terms[i], second[n - i]))
        polys.append(poly)
    return polys
