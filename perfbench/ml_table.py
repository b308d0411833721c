"""Generate the high-precision Mittag-Leffler reference table ``ml_table.csv``.

The table holds ``E_mu(x)`` for ``mu`` in {0.8, 0.9} on the quarter grid
``x = -200, -199.75, ..., 0`` and is the oracle the benchmark checks
``ml-eval`` output against for those orders.  (Orders 0.5 and 1 are
checked against ``erfcx`` and ``exp`` instead.)

Each value sums the defining series ``sum x^n / Gamma(n mu + 1)`` in mpmath
at a working precision sized to the cancellation: the digits lost are
``log10(largest term) - log10(|E|)``, and 30 guard digits are added on top.
A fixed precision is not enough: at ``x = -200`` the largest term for
``mu = 0.8`` is about 1e325, so even a 200-digit sum returns noise.

The order is taken as the exact rational ``a/b`` so that the gamma values
follow from ``Gamma(z + a) = z (z+1) ... (z+a-1) Gamma(z)`` on ``b``
interleaved chains instead of one full gamma evaluation per term.  The
double ``mu`` that the program receives differs from ``a/b`` by under
1e-16 relative, which moves ``E`` by far less than the 1e-16 resolution of
the error metric.

The script checks itself before writing: the same summation must
reproduce ``exp(x)`` (``mu = 1``) and ``exp(x^2) erfc(-x)`` (``mu = 1/2``),
agree with the cancellation-free spectral integral at a few points, and
every twentieth table entry must be unchanged when recomputed with 20
more digits.

Run from the repository root (takes about two minutes)::

    python3 perfbench/ml_table.py
"""

from __future__ import annotations

import math
import os
import sys

import mpmath

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ml_table.csv")
ORDERS = ((4, 5), (9, 10))  # mu = 0.8 and 0.9 as exact fractions a/b
GRID = [-200.0 + 0.25 * i for i in range(801)]
GUARD_DIGITS = 30


def _lost_digits(mu: float, x: float) -> float:
    """Decimal digits the series loses to cancellation at ``x < 0``."""
    lx = math.log(abs(x))
    peak, n = 0.0, 1
    while True:  # log term magnitudes rise to one peak, then fall
        cur = n * lx - math.lgamma(n * mu + 1.0)
        if cur < peak and n > 4:
            break
        peak, n = max(peak, cur), n + 1
    if mu == 1.0:
        floor = x / math.log(10.0)
    else:
        floor = -math.log10(1.0 + abs(x) * math.gamma(1.0 - mu))
    return max(0.0, peak / math.log(10.0) - floor)


def mittag_leffler_mp(a: int, b: int, x: float, extra_digits: int = 0) -> mpmath.mpf:
    """``E_{a/b}(x)`` summed at a precision sized to the cancellation."""
    if x == 0.0:
        return mpmath.mpf(1)
    dps = int(math.ceil(_lost_digits(a / b, x))) + GUARD_DIGITS + extra_digits
    with mpmath.workdps(dps):
        mu = mpmath.mpf(a) / b
        xm = mpmath.mpf(x)
        gam = [mpmath.gamma(n * mu + 1) for n in range(b)]  # Gamma(n mu + 1)
        power = mpmath.mpf(1)
        total = mpmath.mpf(0)
        prev = mpmath.inf
        tol = mpmath.mpf(10) ** (-dps)
        n = 0
        while True:
            g = gam[n % b]
            term = power / g
            total += term
            mag = abs(term)
            if mag < prev and mag < tol * abs(total):
                return +total
            prev = mag
            base = n * mu + 1
            for i in range(a):
                g *= base + i
            gam[n % b] = g
            power *= xm
            n += 1


def _self_test() -> None:
    for x in (-0.5, -3.0, -20.0, -75.25, -200.0):
        got = mittag_leffler_mp(1, 1, x)
        assert abs(got / mpmath.exp(x) - 1) < 1e-25, ("exp", x)
    for x in (-0.5, -3.0, -12.5, -20.0):
        with mpmath.workdps(60):
            ref = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(-mpmath.mpf(x))
        got = mittag_leffler_mp(1, 2, x)
        assert abs(got / ref - 1) < 1e-25, ("erfcx", x)
    for a, b in ORDERS:  # cancellation-free spectral integral as a second route
        for x in (-7.5, -50.25, -200.0):
            with mpmath.workdps(40):
                mu, y = mpmath.mpf(a) / b, mpmath.mpf(-x)
                c = mpmath.cos(mpmath.pi * mu)
                integral = mpmath.quad(
                    lambda s: s ** (mu - 1) * mpmath.exp(-s)
                    / (1 + 2 * c * s ** mu / y + (s ** mu / y) ** 2),
                    [0, 1, 10, mpmath.inf])
                ref = mpmath.sin(mpmath.pi * mu) / (mpmath.pi * y) * integral
            got = mittag_leffler_mp(a, b, x)
            assert abs(got / ref - 1) < 1e-25, ("spectral", a / b, x)


def main() -> int:
    _self_test()
    rows = ["mu,x,value"]
    for a, b in ORDERS:
        for i, x in enumerate(GRID):
            value = mittag_leffler_mp(a, b, x)
            if i % 20 == 0:
                check = mittag_leffler_mp(a, b, x, extra_digits=20)
                assert abs(value / check - 1) < 1e-25, ("precision", a / b, x)
            rows.append(f"{a / b!r},{x!r},{mpmath.nstr(value, 25)}")
        print(f"mu = {a}/{b}: {len(GRID)} values", file=sys.stderr)
    with open(TABLE, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
