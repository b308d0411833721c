"""Output checks against the package's cross-route oracles.

They run in the parent process after the timed passes, so they cost no
measured time.  Each check parses one command's CSV and returns a
:class:`Verdict`:

``ok``
    the output has the expected shape, is finite, and agrees with its
    oracle within the stated tolerance.  The tolerances catch broken
    output; they are not accuracy targets.
``worst``
    the largest relative error against an *exact* oracle (closed form,
    identity, or the high-precision table), or ``None`` when the only
    reference is another approximate route.  ``err_digits`` is built from
    these, so accuracy defects of the program show there even when the
    output passes its tolerance.

Relative errors use ``max(|reference|, 1e-16)`` as the denominator:
Mittag-Leffler values below 1e-16 of ``E(0) = 1`` count absolutely.
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import erfcx

from fraclogistic import (
    HSV_SOLVER_AGREEMENT_RTOL,
    ModelParams,
    SolveConfig,
    compare_operators,
    hsv_evaluate,
    hsv_iterate,
    solve,
)

ERR_FLOOR = 1e-16
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ml_table.csv")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    worst: float | None = None


def rel_err(got, ref) -> np.ndarray:
    ref = np.asarray(ref, dtype=float)
    return np.abs(np.asarray(got, dtype=float) - ref) / np.maximum(np.abs(ref), ERR_FLOOR)


def _rows(text: str, columns: int) -> np.ndarray:
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != columns or not np.all(np.isfinite(data)):
        raise ValueError("malformed or non-finite CSV")
    return data


# -- exact oracles ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _table() -> dict:
    """``(mu, 4x) -> E_mu(x)`` from the committed mpmath table."""
    out = {}
    with open(TABLE, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            mu, x, value = line.split(",")
            out[(float(mu), round(4.0 * float(x)))] = float(value)
    return out


def _positive_coeffs(mu: float, xmax: float) -> list:
    """``1/Gamma(n mu + 1)`` from mpmath, until ``xmax^n`` times it is below 1e-20."""
    coeffs = []
    with mpmath.workdps(30):
        m = mpmath.mpf(mu)
        while True:
            n = len(coeffs)
            c = mpmath.rgamma(n * m + 1)
            coeffs.append(float(c))
            if n > 2 and c * mpmath.mpf(xmax) ** n < 1e-20:
                return coeffs


def ml_reference(mu: float, x) -> np.ndarray:
    """Reference ``E_mu(x)``: identities for mu = 1 and 1/2, else table or series.

    Positive arguments sum the series in double precision from coefficients
    computed in mpmath; every term is positive, so nothing cancels.
    """
    x = np.asarray(x, dtype=float)
    if mu == 1.0:
        return np.exp(x)
    if mu == 0.5:
        return erfcx(-x)
    out = np.empty_like(x)
    neg = x < 0.0
    table = _table()
    out[neg] = [table[(mu, round(4.0 * v))] for v in x[neg]]
    if np.any(~neg):
        pos = x[~neg]
        out[~neg] = np.polynomial.polynomial.polyval(
            pos, _positive_coeffs(mu, float(pos.max())))
    return out


def lambda0_exact(m: dict, mu: float, t, operator: str = "abc") -> np.ndarray:
    """lam = 0 solution: ``A E_mu(q t^mu)`` (ABC) or ``z0 E_mu(a t^mu)`` (Caputo)."""
    t = np.asarray(t, dtype=float)
    a = m["r"] * (1.0 - m["z0"] / m["k"])
    if operator == "caputo":
        return m["z0"] * ml_reference(mu, a * t ** mu)
    den = 1.0 + a * (mu - 1.0)  # b_norm = 1
    return m["z0"] / den * ml_reference(mu, a * mu / den * t ** mu)


def classical(m: dict, t) -> np.ndarray:
    z0, k = m["z0"], m["k"]
    return z0 * k / (z0 + (k - z0) * np.exp(-m["r"] * np.asarray(t, dtype=float)))


def _params(f: dict, **override) -> ModelParams:
    base = {key: f[key] for key in ("r", "k", "z0", "mu", "lam") if key in f}
    base.update(override)
    return ModelParams(**base)


# -- one check per operation kind -----------------------------------------

def check_compare(f: dict, text: str) -> Verdict:
    """ABC column against the 20-term HSV series at the package's pinned
    agreement tolerance; every column against the same solvers at twice the
    step (self-convergence, 1e-6)."""
    d = _rows(text, 4)
    t = d[:, 0]
    ok = np.allclose(t, np.linspace(0.0, f["t_end"], f["points"]), rtol=0, atol=1e-12)
    p = _params(f)
    sol = hsv_iterate(p, 20)
    series = [hsv_evaluate(sol, ti).value for ti in t]
    ok &= rel_err(d[:, 1], series).max() < HSV_SOLVER_AGREEMENT_RTOL
    coarse = compare_operators(p, SolveConfig(operator="abc", t_end=f["t_end"], h=2 * f["h"]))
    for col, traj in zip((1, 2, 3), coarse):
        ok &= rel_err(d[:, col], np.interp(t, traj.grid, traj.values)).max() < 1e-6
    return Verdict(bool(ok))


def check_ladder(f: dict, text: str) -> Verdict:
    """ABC at lam = 0 against the closed form (1e-6)."""
    d = _rows(text, 2)
    worst = float(rel_err(d[:, 1], lambda0_exact(f, f["mu"], d[:, 0])).max())
    return Verdict(worst < 1e-6 and len(d) == f["points"], worst)


def check_stability(f: dict, text: str) -> Verdict:
    """Probe consistency; exact constant for mu = 1, lam = 0 (1e-4)."""
    d = _rows(text, 3)
    eps, dev, c = d[:, 0], d[:, 1], d[:, 2]
    ok = len(d) == len(f["epsilons"]) and np.allclose(eps, f["epsilons"], rtol=1e-12)
    ok &= bool(np.all(dev > 0.0)) and rel_err(c, dev / eps).max() < 1e-10
    ok &= c.max() / c.min() < 3.0
    worst = None
    if f["lam"] == 0.0:
        # the model is linear at lam = 0, so the deviation is linear in eps
        ok &= (c.max() - c.min()) / c.max() < 1e-6
        if f["mu"] == 1.0:
            # all operators reduce to z' = a z + eps: C = (e^{aT} - 1) / a
            a = f["r"] * (1.0 - f["z0"] / f["k"])
            worst = float(rel_err(c, math.expm1(a * f["t_end"]) / a).max())
            ok &= worst < 1e-4
    return Verdict(bool(ok), worst)


def check_fast_growth(f: dict, text: str) -> Verdict:
    """r = 5, lam = 0 against the closed form (10 %)."""
    d = _rows(text, 2)
    worst = float(rel_err(d[:, 1], lambda0_exact(f, f["mu"], d[:, 0], f["operator"])).max())
    return Verdict(worst < 0.1 and len(d) == f["points"], worst)


def check_surface_both(f: dict, text: str) -> Verdict:
    """Each (mu, lam) value against the ABC solver at the pinned tolerance;
    ``square`` mode drops the delay, so its reference does too."""
    d = _rows(text, 3)
    ok = len(d) == 90
    at_t, delayed = f["at_t"], f["mode"] == "general"
    cfg = SolveConfig(operator="abc", t_end=at_t, h=at_t / 200)
    for mu, lam, z in d:
        ref = solve(_params(f, mu=mu, lam=lam), cfg, pantograph=delayed).values[-1]
        ok &= rel_err(z, ref) < HSV_SOLVER_AGREEMENT_RTOL
    return Verdict(bool(ok))


def check_surface_lambda(f: dict, text: str) -> Verdict:
    """Each lambda's curve against the ABC solver at the pinned tolerance,
    and z monotone in lambda at every t."""
    d = _rows(text, 3)
    lams = np.unique(d[:, 1])
    ok = len(d) == f["points"] * len(lams) == f["points"] * 10
    cfg = SolveConfig(operator="abc", t_end=f["t_end"], h=0.01)
    curves = []
    for lam in lams:
        rows = d[d[:, 1] == lam]
        traj = solve(_params(f, lam=lam), cfg)
        ok &= rel_err(rows[:, 2], np.interp(rows[:, 0], traj.grid, traj.values)).max() \
            < HSV_SOLVER_AGREEMENT_RTOL
        curves.append(rows[:, 2])
    steps = np.diff(np.array(curves), axis=0)
    ok &= bool(np.all(steps <= 1e-12) or np.all(steps >= -1e-12))
    return Verdict(bool(ok))


def check_convergence(f: dict, text: str) -> Verdict:
    """At mu = 1 the n_max partial sums against the classical solution (1e-9)."""
    d = _rows(text, 4)
    last = d[d[:, 0] == f["n_max"]]
    worst = float(rel_err(last[:, 2], classical(f, last[:, 1])).max())
    ok = len(d) == f["n_max"] * f["points"] and len(last) == f["points"]
    return Verdict(bool(ok and worst < 1e-9), worst)


def check_ml_eval(f: dict, text: str) -> Verdict:
    """Against exp / erfcx / the table: 1e-9 down to -50; below it, the
    documented accuracy of the asymptotic tail, 2/|x|."""
    d = _rows(text, 2)
    x = d[:, 0]
    ok = np.array_equal(x, np.linspace(f["lo"], f["hi"], f["points"]))
    err = rel_err(d[:, 1], ml_reference(f["mu"], x))
    tol = np.where(x >= -50.0, 1e-9, 2.0 / np.abs(x))
    return Verdict(bool(ok and np.all(err <= tol)), float(err.max()))


def check_exact_mu(f: dict, text: str) -> Verdict:
    """Every mu's growth curve against ``A E_mu(q t^mu)`` (1e-9)."""
    d = _rows(text, 3)
    ok = len(d) == f["points"] * len(f["mus"])
    worst = 0.0
    for mu in f["mus"]:
        rows = d[np.isclose(d[:, 1], mu, rtol=0, atol=1e-9)]
        ok &= len(rows) == f["points"]
        worst = max(worst, float(rel_err(rows[:, 2], lambda0_exact(f, mu, rows[:, 0])).max()))
    return Verdict(bool(ok and worst < 1e-9), worst)


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}


def verdict(op, code, text: str) -> Verdict:
    """Check one operation's warm-up output; a crash or non-zero exit fails."""
    if code != 0:
        return Verdict(False)
    try:
        return CHECKS[op.check](op.facts, text)
    except (ValueError, IndexError):  # unparsable or wrongly shaped output
        return Verdict(False)


def err_digits(verdicts) -> float:
    """Worst ``-log10`` relative error over the exact-oracle checks, capped at 16."""
    worst = max((v.worst for v in verdicts if v.worst is not None), default=1.0)
    return -math.log10(max(worst, ERR_FLOOR))


def observed_order(ops, verdicts) -> float:
    """Median convergence order over consecutive halvings of the step ladder."""
    errs = [v.worst for op, v in zip(ops, verdicts) if op.check == "ladder"]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:]) if a > 0 and b > 0]
    return float(np.median(orders)) if orders else 0.0
