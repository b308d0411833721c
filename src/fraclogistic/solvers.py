"""Product-integration time steppers for the delayed logistic model.

Three fractional operators are supported through their equivalent integral
forms (normalizations B and M both taken from ``ModelParams.b_norm``,
default 1, so that all mu = 1 limits coincide with the classical ODE):

ABC (Mittag-Leffler kernel)
    z(t) = z0 + (1-mu)/B * f(t) + mu/(B*Gamma(mu)) * I^mu[f](t)

CFC (exponential kernel)
    z(t) = z0 + (1-mu)/M * (f(t) - f(0)) + mu/M * int_0^t f

Caputo (power-law kernel)
    z(t) = z0 + 1/Gamma(mu) * I^mu[f](t)

with f(t) = r z(t) (1 - z(lam t)/k) + forcing and the weakly singular
integral I^mu[f](t) = int_0^t (t - s)^(mu-1) f(s) ds.

The singular integral uses product integration on a uniform grid:
the smooth factor f is replaced by its piecewise-linear interpolant
(product trapezoid), and the kernel is integrated exactly against it.
The history weights depend only on the lag n - j, so the history sum is
a discrete convolution: pairs within one aligned block of 64 nodes are
summed directly, longer-range pairs in doubling blocks by FFT (Hairer,
Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).
A run of M steps costs O(M log^2 M) and gives the direct sum's values up
to rounding.

Implicit step: the pointwise f(t_n) term and the quadrature diagonal make
each step an equation in the unknown z_n.  The delayed value is affine in
it, z(lam t_n) = a + b z_n with b in {0, theta, 1}, so the step is the
scalar quadratic A z^2 + B z - C = 0 and is solved exactly (the root
nearest z_{n-1} when A != 0).  No real root, a non-finite root or a root
<= 0 raises :class:`SolverError` with the step index.

Initial node: t = 0 is solved by the same step, with pointwise weight
(1-mu)/B for ABC and 0 for CFC and Caputo.  Weight 0 returns the datum z0
exactly, so CFC and Caputo start at z0, while ABC starts at the root of its
implicit relation at t = 0 (the jump amplitude on linear problems).

Delay handling: z(lam*t_n) is linearly interpolated on the already
computed grid; no history function is needed since lam in [0, 1] maps
[0, t] into itself.  Two conventions at the edges of the delay range:

* lam = 1 participates directly (z(lam t_n) is the current unknown);
  ``solve(..., pantograph=False)`` is this case whatever ``params.lam`` is;
* lam = 0 uses the *nominal* initial value z0, the problem datum, not the
  stored t = 0 node.  For the ABC operator the stored node is the root of
  the implicit relation at t = 0 (the jump amplitude A on linear
  problems), while the feedback the lam = 0 model prescribes is the datum
  itself; using the datum makes the solver agree with the closed-form
  lam = 0 solution exactly, jump included.

Not supported: adaptive stepping, stiff-regime guarantees (a step with no
admissible root raises :class:`SolverError` instead).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .model import ModelParams, logistic_rhs
from .special import gamma_fn

__all__ = [
    "OperatorKind",
    "SolveConfig",
    "Trajectory",
    "OperatorComparison",
    "solve",
    "compare_operators",
]

# Longer runs are refused up front: 2e6 ABC steps take about 11 s and
# 230 MB on a 2-vCPU Xeon, and time and memory grow slightly faster than M.
_MAX_STEPS = 2_000_000
# History pairs closer than one aligned block are summed directly.
_BLOCK = 64
# Lag weights: 12 Gauss-Legendre nodes, mapped to [0, 1] with the factor
# (1 - s) folded into the weights, resolve (1 + s)^(mu-1) to rounding; from
# lag 64 on, 9 series terms in 1/m leave a remainder below 1e-18 relative.
# The positive half of numpy.polynomial.legendre.leggauss(12), which is not
# imported at run time.
_GL_HALF = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                     0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_HALF_WEIGHTS = np.array([0.2491470458134027, 0.2334925365383546,
                             0.20316742672306573, 0.16007832854334642,
                             0.10693932599531907, 0.04717533638651141])
_GL_NODES = 0.5 * (np.concatenate((-_GL_HALF[::-1], _GL_HALF)) + 1.0)
_GL_WEIGHTS = (0.5 * np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
               * (1.0 - _GL_NODES))
_SERIES_LAG = 64
_SERIES_TERMS = 9


class OperatorKind(enum.Enum):
    """Fractional operator selector for the numerical solvers."""

    ABC = "abc"
    CFC = "cfc"
    CAPUTO = "caputo"


@dataclass(frozen=True)
class SolveConfig:
    """Operator and grid for :func:`solve`."""

    operator: OperatorKind
    t_end: float
    h: float

    def __post_init__(self):
        op = self.operator
        if not isinstance(op, OperatorKind):
            try:
                op = OperatorKind(str(op).lower())
            except ValueError:
                raise ValueError(
                    f"operator must be one of {[k.value for k in OperatorKind]}, "
                    f"got {self.operator!r}"
                ) from None
            object.__setattr__(self, "operator", op)
        t_end = float(self.t_end)
        h = float(self.h)
        if not math.isfinite(h) or h <= 0.0:
            raise ValueError(f"h must be > 0, got {self.h!r}")
        if not math.isfinite(t_end) or t_end < h:
            raise ValueError(f"t_end must satisfy t_end >= h, got {self.t_end!r}")
        if t_end / h > _MAX_STEPS:
            raise ValueError(f"t_end/h must not exceed {_MAX_STEPS:g}")
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "h", h)


@dataclass
class Trajectory:
    """Uniform-grid solution values from one solver run."""

    grid: np.ndarray
    values: np.ndarray
    operator: OperatorKind
    params: ModelParams


class OperatorComparison(NamedTuple):
    abc: Trajectory
    cfc: Trajectory
    caputo: Trajectory


def _lag_weights(mu: float, size: int) -> tuple:
    """Unscaled product-trapezoid weights of the power-law kernel, lags 0..size.

    Returns ``(w, end)``: ``w[m]`` weights f(t_{n-m}) in the history sum
    of node n (``w[0] = 0``), and ``end[n]`` is what the j = 0 term adds on
    top of ``w[n]`` to make the end weight.

    With p = mu + 1, ``w[m] = (m+1)^p + (m-1)^p - 2 m^p`` and ``end[n] =
    p n^mu + n^p - (n+1)^p`` are differences of terms about m^2 times
    larger, so they are formed from Taylor's remainder instead,

        w[m]   = p mu (I(m, 1) + I(m, -1)),    m >= 2,
        w[1]   = p mu I(1, 1) + mu,
        end[n] = -p mu I(n, 1),
        I(m, e) = int_0^1 (1 - s) (m + e s)^(mu - 1) ds,

    whose integrands are positive.  Below ``_SERIES_LAG`` I is summed by
    Gauss-Legendre quadrature; from there on by its series in x = 1/m,
    ``m^(mu-1) sum_j C(mu-1, j) (e x)^j / ((j+1)(j+2))``, split into even
    and odd powers.
    """
    c = mu * (mu + 1.0)
    w = np.zeros(size + 1)
    end = np.zeros(size + 1)
    near = np.arange(1.0, min(_SERIES_LAG, size + 1))
    plus = (near[:, None] + _GL_NODES) ** (mu - 1.0) @ _GL_WEIGHTS
    minus = (near[1:, None] - _GL_NODES) ** (mu - 1.0) @ _GL_WEIGHTS
    w[1] = c * plus[0] + mu
    w[2:len(near) + 1] = c * (plus[1:] + minus)
    end[1:len(near) + 1] = -c * plus
    if size >= _SERIES_LAG:
        far = np.arange(float(_SERIES_LAG), size + 1)
        x = 1.0 / far
        x2 = x * x
        coef = [1.0]  # C(mu-1, j)
        for j in range(1, _SERIES_TERMS):
            coef.append(coef[-1] * (mu - j) / j)
        a = [cj / ((j + 1) * (j + 2)) for j, cj in enumerate(coef)]
        even = odd = 0.0
        for aj in reversed(a[0::2]):
            even = even * x2 + aj
        for aj in reversed(a[1::2]):
            odd = odd * x2 + aj
        scale = c * far ** (mu - 1.0)
        w[_SERIES_LAG:] = 2.0 * scale * even
        end[_SERIES_LAG:] = -scale * (even + x * odd)
    return w, end


def solve(
    params: ModelParams,
    cfg: SolveConfig,
    *,
    forcing: float = 0.0,
    pantograph: bool = True,
) -> Trajectory:
    """Integrate the delayed logistic model under the configured operator.

    Parameters
    ----------
    params, cfg
        Model parameters and solver configuration.
    forcing : float, optional
        Constant additive perturbation of the right-hand side (used by the
        stability probe).
    pantograph : bool, optional
        When False the feedback is undelayed: the solve runs with lam = 1
        whatever ``params.lam`` is, and the trajectory keeps ``params``.

    Raises
    ------
    SolverError
        If an implicit step has no real root, or its root is non-finite or
        not positive.
    """
    p = params
    h = cfg.h
    mu = p.mu
    r, k, z0, lam = p.r, p.k, p.z0, (p.lam if pantograph else 1.0)
    n_steps = max(1, int(math.ceil(cfg.t_end / h - 1e-9)))
    grid = h * np.arange(n_steps + 1)
    z = np.zeros(n_steps + 1)
    f_hist = np.zeros(n_steps + 1)

    def step(n: int, base: float, diag: float) -> None:
        """Solve z_n = base + diag * f(t_n, z_n, z(lam t_n)); store z_n and f_n."""
        # delayed value a + b * z_n
        if lam == 0.0:
            a, b = z0, 0.0
        else:
            pos = lam * n  # grid units of lam * t_n
            j = int(pos)
            if j >= n:
                a, b = 0.0, 1.0
            else:
                theta = pos - j
                a = (1.0 - theta) * z.item(j)
                if j + 1 == n:
                    b = theta
                else:
                    a, b = a + theta * z.item(j + 1), 0.0
        # A z^2 + B z - C = 0
        rd = diag * r
        qa = rd * b / k
        qb = 1.0 - rd * (1.0 - a / k)
        qc = base + diag * forcing
        if qa == 0.0:
            if qb == 0.0:
                raise SolverError(f"no real root at step {n}", step=n)
            zn = qc / qb
        else:
            disc = qb * qb + 4.0 * qa * qc
            if disc < 0.0:
                raise SolverError(f"no real root at step {n}", step=n)
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            if q == 0.0:  # double root at 0
                zn = 0.0
            else:
                # the two roots, each without cancellation
                r1, r2 = q / qa, -qc / q
                prev = z.item(n - 1) if n > 0 else z0
                zn = r1 if abs(r1 - prev) < abs(r2 - prev) else r2
        if not math.isfinite(zn):
            raise SolverError(f"non-finite state at step {n}", step=n)
        if zn <= 0.0:
            raise SolverError(f"non-positive state {zn:.6g} at step {n}", step=n)
        z[n] = zn
        f_hist[n] = logistic_rhs(p, zn, a + b * zn, forcing)

    op = cfg.operator

    c_point = 0.0 if op is OperatorKind.CAPUTO else (1.0 - mu) / p.b_norm
    if op is OperatorKind.ABC:
        c_quad = mu / (p.b_norm * gamma_fn(mu))
    elif op is OperatorKind.CAPUTO:
        c_quad = 1.0 / gamma_fn(mu)
    else:  # CFC
        c_quad = mu / p.b_norm

    # Initial node: ABC keeps its pointwise f term at t = 0 (the jump
    # amplitude on linear problems); CFC's f(t) - f(0) term vanishes there.
    step(0, z0, c_point if op is OperatorKind.ABC else 0.0)
    f0 = float(f_hist[0])

    if op is OperatorKind.CFC:
        diag = c_point + c_quad * 0.5 * h
        base0 = z0 - c_point * f0
        integral = 0.0  # quadrature over completed cells
        for n in range(1, n_steps + 1):
            f_prev = f_hist.item(n - 1)
            step(n, base0 + c_quad * (integral + 0.5 * h * f_prev), diag)
            integral += 0.5 * h * (f_prev + f_hist.item(n))
    else:
        w, end = _lag_weights(mu, max(n_steps, _BLOCK))
        # far[n]: history of node n from nodes in earlier blocks, plus the
        # j = 0 end correction
        far = end[:n_steps + 1] * f0
        w_scale = h ** mu / (mu * (mu + 1.0))
        diag = c_point + c_quad * w_scale
        near = w[_BLOCK:0:-1]  # near[i] = w[_BLOCK - i]
        spectra = {}  # rfft of w[1:2P], by piece length P

        def add_far(n: int) -> None:
            """Add the lags from f[n-L:n] to far[n:n+L], L = lowest set bit of n."""
            size = n & -n
            count = min(size, n_steps + 1 - n)
            # Sources go in pieces of P >= count nodes (at most 8 pieces), so
            # a block that runs past the last node needs no full-size FFT.
            # A piece ending off nodes before n reaches its targets through
            # lags off+1 .. off+2P-1; length 2P keeps the wrap-around in
            # discarded entries.
            piece = max(size >> 3, min(size, 1 << (count - 1).bit_length()))
            for start in range(n - size, n, piece):
                off = n - start - piece
                if off:
                    spec = np.fft.rfft(w[off + 1:off + 2 * piece], 2 * piece)
                else:
                    spec = spectra.get(piece)
                    if spec is None:
                        spec = spectra[piece] = np.fft.rfft(w[1:2 * piece], 2 * piece)
                conv = np.fft.irfft(np.fft.rfft(f_hist[start:start + piece], 2 * piece)
                                    * spec, 2 * piece)
                far[n:n + count] += conv[piece - 1:piece - 1 + count]

        c_lag = c_quad * w_scale
        for n in range(1, n_steps + 1):
            near_len = n % _BLOCK
            if near_len:
                lag = far.item(n) + float(np.dot(near[_BLOCK - near_len:],
                                                 f_hist[n - near_len:n]))
            else:
                add_far(n)
                lag = far.item(n)
            step(n, z0 + c_lag * lag, diag)

    return Trajectory(grid=grid, values=z, operator=op, params=p)


def compare_operators(params: ModelParams, cfg_base: SolveConfig) -> OperatorComparison:
    """Run all three operators on identical grids for side-by-side output."""
    return OperatorComparison(**{kind.value: solve(params, replace(cfg_base, operator=kind))
                                 for kind in OperatorKind})
