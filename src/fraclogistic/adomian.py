"""Adomian polynomials for the delayed product nonlinearity z(t) * z(lam*t).

For a decomposition ``z = sum_i x_i`` of series terms, the quadratic
nonlinearity splits into polynomials ``P_n`` such that ``P_n`` depends
only on ``x_0 .. x_n``: the parameter-embedding expansion
``P_n = sum_{i+j=n} x_i(t) * x_j(lam*t)``, where the delay enters each
polynomial through ``lam^(k*mu)`` coefficient scalings.  The textbook
table for the plain square ``z^2`` (P0 = x0^2, P1 = 2 x0 x1,
P2 = 2 x0 x2 + x1^2, ...) is the ``lam = 1`` expansion; the CLI's
``--mode square`` is shorthand for it.

Polynomials are built by direct double convolution of the series terms,
which is exact for this quadratic nonlinearity.  This module is the
reference, not the hot path, and the package does not export it:
:func:`fraclogistic.hsv.hsv_iterate` forms only the last polynomial on a
coefficient matrix, with the same operations in the same order.
"""

from __future__ import annotations

from .series import FracSeries, delay_rescale, series_add, series_product

__all__ = ["adomian_delayed_product"]


def adomian_delayed_product(terms, lam: float):
    """Adomian polynomials ``P_0 .. P_n`` for the delayed product.

    Parameters
    ----------
    terms : sequence of FracSeries
        Decomposition terms ``x_0 .. x_n``, all sharing one order.
    lam : float
        Delay factor in [0, 1]; ``lam = 1`` gives the undelayed square and
        ``lam = 0`` the product with the datum ``x_0`` alone.

    Returns
    -------
    list of FracSeries
        One polynomial per input term, in order.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("terms must be nonempty")
    mu = terms[0].mu
    for x in terms:
        if not isinstance(x, FracSeries):
            raise ValueError("terms must be FracSeries instances")
        if x.mu != mu:
            raise ValueError(f"series order mismatch: {x.mu} != {mu}")
    # at lam = 0 the delayed state z(0) is the datum x_0, as in the solver
    # and the closed form, so later terms feed nothing back
    second = [delay_rescale(x, lam) if lam or i == 0 else FracSeries(mu, (0.0,))
              for i, x in enumerate(terms)]

    polys = []
    for n in range(len(terms)):
        poly = series_product(terms[0], second[n])
        for i in range(1, n + 1):
            poly = series_add(poly, series_product(terms[i], second[n - i]))
        polys.append(poly)
    return polys
