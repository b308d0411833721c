"""Product-integration time steppers for the delayed logistic model.

Three fractional operators are supported through their equivalent integral
forms, all one kernel form

    z(t) = z0 + c_point * f(t) + c_quad * I^e[f](t),
    I^e[f](t) = int_0^t (t - s)^(e-1) f(s) ds,

with f(t) = r z(t) (1 - z(lam t)/k) + forcing.  The operator's row in
``model._operator_row`` gives the kernel exponent e, c_point = point/norm,
c_quad = quad/(norm Gamma(e)) and whether the run starts at the datum z0.
A datum operator's pointwise term is c_point (f(t) - f(0)), so CFC starts
at z0; its I^1[f] is the plain integral of f.  The -c_point f(0) part is
history that every node shares, so the operators differ only in their rows.

The integral uses product integration on a uniform grid:
the smooth factor f is replaced by its piecewise-linear interpolant
(product trapezoid), and the kernel is integrated exactly against it.
The weight of f(t_n) in I^e[f](t_n) is h^e / (e (e + 1)).  The history
weights depend only on the lag n - j, so the history sum is a discrete
convolution.  After node 0 it has one rule, split at the leaves below:
the lags from within a node's leaf are the leaf's Toeplitz block A, and
the history from before the leaf comes in aligned doubling blocks
(Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): at
each leaf boundary n, whose lowest set bit L is at least 256, the sources
f[n-L:n] are added into the targets n .. n+L-1 at once, by FFT.  At e = 1
(CFC at every mu, ABC and Caputo at mu = 1) the kernel is constant, as
Caputo and Fabrizio's exponential kernel gives (Progr. Fract. Differ.
Appl. 1, 2015), and the rule is the trapezoid rule, whose weights are
exact: 2 at every lag and -1 at the end.  A constant kernel's weights are
built only to lag 256, and it adds a block as one sum, 2 sum f[n-L:n], to
all its targets.  A run of M steps whose leaves are accepted costs
O(M log^2 M) and gives the direct sum's values up to rounding.

Implicit step: the pointwise f(t_n) term and the quadrature diagonal make
each step an equation in the unknown z_n.  The delayed value is affine in
it, z(lam t_n) = a + b z_n with b in {0, theta, 1}, so the step is the
scalar quadratic A z^2 + B z - C = 0 and is solved exactly (the root
nearest z_{n-1} when A != 0).  No real root, a non-finite root or a root
at or below the rounding floor (below) raises :class:`SolverError` with
the step index.

Initial node: t = 0 is solved by the same step, with pointwise weight 0
for a datum operator and c_point otherwise.  Weight 0 returns the datum z0
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

Leaves: after the t = 0 node, runs of every operator are solved in
aligned leaves of 256 nodes, the first starting at node 1.  The nodes of
one leaf solve z = v + A f(z), where A is the scheme's lower-triangular
Toeplitz block for the leaf and v holds z0 and the history from earlier
leaves, added by the doubling blocks above.  Each leaf takes Newton-type sweeps
z <- G (v + A (f(z) - rho z)) with G = (I - rho A)^-1 and rho the mean
slope of f over the leaf (Hairer, Lubich and Schlichte above; R. Garrappa,
Mathematics 6, 2018, 16).  G is lower-triangular Toeplitz too: its first
column comes from Newton power-series inversion, and it is rebuilt only
when rho moves.  G and GA depend on nothing but the scheme (A) and rho, so
a small cache keeps the last ones built and solves of one scheme share
them.  A lam > 0 leaf that rebuilds G takes the rung nearest its mean
slope on a grid of spacing _RHO_MOVE / ||A||_1, which the scheme alone
fixes; so the stability probe's four runs, and leaves whose slopes fall
on one rung, build G once.  A leaf whose slopes cluster within half a
rung keeps its exact mean, where the rung would slow its sweeps.  The
first G of a run is built at f's slope at node 0, which lam = 0 leaves
keep: their first iterate solves the leaf only at the true slope.  As G
is a function of its key alone, no value depends on what was cached.  A
sweep is summed as v + GA (f(z) + rho (v - z)), which rounds only the
increment over v, so the leaves round like the step.  Delayed values
are interpolated as in the step, from the current iterate where lam t_n
falls inside the leaf.  At lam = 0 the feedback is the
datum, so f = r (1 - z0/k) z + forcing is linear with slope rho (a
discrete linear Volterra convolution, Lubich, SIAM J. Math. Anal. 17,
1986) and the first iterate, one product with G, solves the leaf.  A leaf
is done when a sweep moves no node by more than four times the rounding
error of its sums, or one sweep after its last two moves contract at a
rate that puts the next at most _SETTLE times that: the row takes the
sweep's iterate and f there, without the product and ratio that would
confirm the stop (a contraction-based stopping rule, Hairer and Wanner,
Solving ODEs II, 2nd ed., IV.8).  The rounding error's first half is
|G| |v_q|, v_q the first iterate's right-hand side; where G and v_q have
no entry with the sign bit set and G was not rebuilt after the first
iterate, that is the first iterate's own product, which the bound takes
instead of forming it again, so a lam = 0 leaf forms one product a row.
It is rejected when its sweeps would not get there
within a pinned count at their rate of contraction, when a node is not
positive beyond that rounding error or lies at or below the rounding
floor, or when f sums to overflow over the leaf.  The step loop then
solves the rejected leaf and the next leaf is tried again, so every
failure reports the loop's message and step.  ``Trajectory.stats``
counts the nodes each route solved, the sweeps, the rejected leaves and
the inverses built.

Step loop: node 0 and rejected leaves are solved one node at a time, one
row at a time.  The loop solves the system z = v + A f(z) it is handed,
with v and the diagonal d from its caller: node n of [s, stop), given the
nodes before it, solves z_n = v[n-s] + sum over s <= j < n of A[n-j] f_j,
plus d f(z_n).  A rejected leaf hands it the v its sweeps used and d =
diag.  Node 0 is the one-node system z_0 = z0 + d f(z_0), with d the
pointwise weight: 0 for a datum operator and c_point otherwise.  A leaf
costs 256 * 255 / 2 multiply-adds, one dot product a node.  The loop adds
no history block: the blocks are added at leaf boundaries only, after the
leaf's nodes are final.

Rounding floor: z0 plus a history whose terms reach the largest state so
far, z_max (the largest of z0 and the row's earlier nodes), resolves no
z_n below a few eps z_max.  So no node at or below 4 eps z_max is
returned: a leaf holding one is rejected, and the step loop raises
:class:`SolverError` at the first.  Each row carries z_max as a running
value; a leaf forms the cumulative peak only for a row whose smallest node
is at or below 4 eps times its largest.

Stacks: runs that differ only in the constant forcing, as the stability
probe's do, are solved as one stack by ``solve(..., forcing=(e_1, ...,
e_P))``.  Every run is a stack: a float forcing is a stack of one, whose
row is unwrapped in ``Trajectory.values``.  The rows share the scheme,
the lag weights and each leaf's elementwise sweep work, and a history
block is one 2-d FFT (one sum per row at e = 1).  Each row keeps its own
rho and G, its own rebuild decision and stop test, and a row that stops
keeps its iterate while the others sweep on; so every row is its own
solve bit for bit.  Node 0 and a rejected leaf take the step loop one row
at a time, and a failing stack raises the error that solving its rows one
by one would meet first.  Each leaf product is the first half of a full
convolution, taken from the correlation that np.convolve makes, without
that function's argument checks.

Not supported: adaptive stepping, stiff-regime guarantees (a step with no
admissible root raises :class:`SolverError` instead).
"""

from __future__ import annotations

import collections
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .model import ModelParams, OperatorKind, _operator_row, logistic_rhs
from .special import gamma_fn

__all__ = [
    "SolveConfig",
    "Trajectory",
    "OperatorComparison",
    "solve",
    "compare_operators",
]

# Longer runs are refused up front: at the compare defaults (mu = 0.9,
# lam = 1) 2e6 steps take 2.4-3.7 s and 205 MB for ABC or Caputo, and
# 1.4-1.9 s and 91 MB for CFC, whose constant kernel builds no M-long lag
# weights, on a 2-vCPU Xeon; time and memory grow slightly faster than M.
_MAX_STEPS = 2_000_000
# Runs of every operator are solved in aligned leaves of this many nodes.  A
# leaf whose sweeps would take more than _SWEEPS goes to the step loop, which
# solves a leaf in the time of 15 to 25 sweeps.  G is rebuilt when its rho,
# off the leaf's mean slope by more than the slopes spread, would alone
# leave more than _RHO_MOVE of the error after a sweep.  A rebuilt G's rho
# lies on a rung of spacing _RHO_MOVE / ||A||_1 (A's norm is fixed by the
# scheme, G A's is not), so a rung moves rho by at most half what a sweep
# tolerates where G A is no larger than A.
_LEAF = 256
_SWEEPS = 12
_RHO_MOVE = 1e-3
# A sweeping row whose last two ratios, r1 then r2, put the next at
# r2 (r2 / r1) <= _SETTLE stops at the next sweep without measuring it: a
# contraction rate that held would leave the next move a twentieth of
# what the stop test allows.
_SETTLE = 0.05
_EPS = np.finfo(float).eps
# The rounding floor: no node at or below _FLOOR z_max is returned.
_FLOOR = 4.0 * _EPS
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
    """Uniform-grid solution values from one solver run, or a stack of runs.

    ``values`` is 1-d, or ``(P, M+1)`` for a stack of P forcings, one run a
    row on the one ``grid``.  ``stats`` says how :func:`solve` got them,
    summed over a stack's rows: ``leaf_nodes`` and ``loop_nodes``, the
    nodes after node 0 solved in leaves and by the step loop; ``sweeps``,
    the leaf sweeps in all (a stack's rows share each right-hand side
    call); ``max_sweeps``, the most in one leaf of one row;
    ``rejected_leaves``, the leaves handed to the step loop;
    ``inverses_built``, the leaf inverses G built by Newton doubling rather
    than found in the cache.
    """

    grid: np.ndarray
    values: np.ndarray
    operator: OperatorKind
    params: ModelParams
    stats: dict = field(default_factory=dict)


class OperatorComparison(NamedTuple):
    abc: Trajectory
    cfc: Trajectory
    caputo: Trajectory


@functools.lru_cache(maxsize=1)
def _lag_weights(mu: float, size: int) -> tuple:
    """Unscaled product-trapezoid weights of the power-law kernel, lags 0..size.

    ``mu`` is the kernel exponent e < 1; :func:`solve` takes the constant
    kernel's exact weights itself.

    Returns ``(w, end, spectra)``: ``w[m]`` weights f(t_{n-m}) in the
    history sum of node n (``w[0] = 0``), and ``end[n]`` is what the j = 0
    term adds on top of ``w[n]`` to make the end weight.  Both are
    read-only.  ``spectra`` starts empty; :func:`solve` keeps in it the
    ``rfft`` of ``w[1:2P]`` for each FFT piece length P it uses.  The last
    triple is kept, so an operator comparison's Caputo run reuses ABC's;
    for the longest runs the spectra hold about as much memory as ``w``
    and ``end``.

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
    w.flags.writeable = end.flags.writeable = False
    return w, end, {}


# A leaf inverse: rho, the first columns of G and GA, their magnitudes, ||GA||_1.
_Inverse = collections.namedtuple("_Inverse", "rho g ga g_abs ga_abs ga_norm")


@functools.lru_cache(maxsize=32)
def _leaf_inverse(a_col: bytes, rho: float) -> _Inverse:
    """First columns g of G = (I - rho A)^-1 and ga of GA.

    ``a_col`` holds the bytes of A's first column, which carry the scheme:
    mu, c_hist, diag and the leaf size.  g is the power series
    1 / (1 - rho sum_m a_col[m] x^m), found by Newton doubling.  The
    :data:`_Inverse` adds |g| and |ga|, for the leaves' rounding bounds, and
    ||GA||_1.  A column with no sign bit set is its own magnitude: |g| is
    then g itself, the same array, which is how a leaf knows that |G| |v|
    is G v.  Its arrays are read-only, since the solves of one scheme
    share them.
    """
    a_col = np.frombuffer(a_col)
    size = len(a_col)
    b = -rho * a_col
    b[0] += 1.0
    g = np.array([1.0 / b[0]])
    while len(g) < size:  # b g = 1 + e x^len(g) + ...
        m = min(2 * len(g), size)
        e = np.convolve(b[:m], g)[len(g):m]
        g = np.concatenate((g, -np.convolve(g, e)[:m - len(g)]))
    ga = np.convolve(g, a_col)[:size]
    g_abs, ga_abs = (x if not np.signbit(x).any() else np.abs(x) for x in (g, ga))
    inverse = _Inverse(rho, g, ga, g_abs, ga_abs, ga_abs.sum())
    for column in inverse[1:5]:
        column.flags.writeable = False
    return inverse


def _lower(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column ``col`` times ``x``.

    Only the first ``len(x)`` entries of ``col`` count.  The result is
    ``np.convolve(col[:len(x)], x)[:len(x)]`` bit for bit: convolve checks
    its arguments, then correlates with x reversed, as here.
    """
    return np.correlate(col[:len(x)], x[::-1], "full")[:len(x)]


# Overflow in the history sums, or a singular leaf matrix, shows as a
# non-finite node, which raises.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(
    params: ModelParams,
    cfg: SolveConfig,
    *,
    forcing: float | Sequence[float] = 0.0,
    pantograph: bool = True,
) -> Trajectory:
    """Integrate the delayed logistic model under the configured operator.

    Parameters
    ----------
    params, cfg
        Model parameters and solver configuration.
    forcing : float or 1-d sequence of floats, optional
        Constant additive perturbation of the right-hand side (used by the
        stability probe).  A sequence of P forcings solves P runs as one
        stack: ``values`` then has shape ``(P, M+1)``, row i the run at the
        i-th forcing, bit for bit as its own solve gives it, and ``stats``
        sums the rows (``max_sweeps`` is the largest).
    pantograph : bool, optional
        When False the feedback is undelayed: the solve runs with lam = 1
        whatever ``params.lam`` is, and the trajectory keeps ``params``.

    Raises
    ------
    ValueError
        If ``forcing`` is not a finite float or a nonempty 1-d sequence of
        finite floats; or if a stack's rows hold more nodes than four runs
        at the step limit, ``P * (M+1) > 4 * (_MAX_STEPS + 1)``; or if a
        datum operator's ``c_point / c_hist`` overflows or c_hist is 0 (CFC
        at mu < 1 on a step near the smallest float).  All are checked
        before any allocation.
    SolverError
        If an implicit step has no real root, or its root is non-finite or
        not positive; for a stack, the error of the first failing row.
    """
    p = params
    h = cfg.h
    r, k, z0, lam = p.r, p.k, p.z0, (p.lam if pantograph else 1.0)
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim > 1 or not forcing.size or not np.isfinite(forcing).all():
        raise ValueError("forcing must be a finite float or a nonempty 1-d sequence of them, "
                         f"got {forcing!r}")
    n_steps = int(math.ceil(cfg.t_end / h - 1e-9))  # t_end >= h: one step at least
    # z, f_hist and far take 8 bytes a node each: 101 rows at the step limit
    # would ask for 4.8 GB before the first step; the peak adds, a row, the
    # largest history block's two FFT arrays of up to 4M/3 nodes each
    if forcing.size * (n_steps + 1) > 4 * (_MAX_STEPS + 1):
        raise ValueError(f"a stack of {forcing.size} rows of {n_steps} steps holds more "
                         f"nodes than 4 runs of {_MAX_STEPS:g} steps")
    e, point, quad, norm, datum = _operator_row(cfg.operator, p)  # e: the kernel exponent
    c_point, c_quad = point / norm, quad / (norm * gamma_fn(e))
    # c_hist: the weight of f(t_n) in its own quadrature, and the scale of
    # the lag weights w
    c_hist = c_quad * (h ** e / (e * (e + 1.0)))
    diag = c_point + c_hist
    # a datum operator keeps -c_point f(0) in far, divided by c_hist
    if datum and c_point and not (c_hist and math.isfinite(c_point / c_hist)):
        raise ValueError(f"h = {h!r} is too small: c_point / c_hist overflows")
    grid = h * np.arange(n_steps + 1)
    # Every run is a stack: row i of z, f_hist and far, and of the columns of
    # forcings and of slopes rho, is forcing i's.  A float forcing is a stack
    # of one, unwrapped only in the returned values.
    row_forcing = forcing.reshape(-1).tolist()
    f_col = forcing.reshape(-1, 1)
    z = np.zeros((len(row_forcing), n_steps + 1))

    def by_row(f, x):
        """f(i, row i of x) for every row, stacked like x; a stack of one takes a view."""
        return np.array([f(i, row) for i, row in enumerate(x)]) if len(x) > 1 else f(0, x[0])[None]

    f_hist = np.zeros(z.shape)
    stats = dict(leaf_nodes=0, loop_nodes=0, sweeps=0, max_sweeps=0, rejected_leaves=0)
    built = _leaf_inverse.cache_info().misses  # inverses_built is the growth
    # far[n]: history of node n from nodes before its leaf, plus the j = 0
    # end correction; nodes in the leaf are summed by A.  A constant kernel
    # reads w only in the leaves (add_far sums its blocks without w), so it
    # takes the trapezoid rule's exact weights up to lag _LEAF.
    w, end, spectra = ((2.0 * (np.arange(min(n_steps + 1, _LEAF)) > 0), -1.0, {}) if e == 1.0
                       else _lag_weights(e, n_steps + 1))
    # the largest of z0 and each row's nodes so far, for the rounding floor
    peaks = [z0] * len(z)

    def add_far(n: int) -> None:
        """Add the lags from f[n-L:n] to far[n:n+L] of every row, L = lowest set bit of n.

        n is a leaf boundary, so L >= _LEAF: the block is one sum per row
        at e = 1, and otherwise an FFT convolution, O(L log L) per row.
        """
        size = n & -n
        count = min(size, n_steps + 1 - n)
        if e == 1.0:  # a constant kernel: every lag weight is 2
            far[:, n:n + count] += 2.0 * f_hist[:, n - size:n].sum(axis=-1, keepdims=True)
            return
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
            conv = np.fft.irfft(np.fft.rfft(f_hist[:, start:start + piece], 2 * piece)
                                * spec, 2 * piece)
            far[:, n:n + count] += conv[:, piece - 1:piece - 1 + count]

    # The nodes of one leaf solve F(z) = z - v - A f(z) = 0, with A lower-
    # triangular Toeplitz, A[i, j] = a_col[i - j], and v holding z0 and
    # the history from before the leaf.
    size = min(_LEAF, n_steps)
    a_col = c_hist * w[:size]
    a_col[0] = diag
    a_sum = np.cumsum(a_col)  # A times (1, 1, 1, ...)
    a_key = a_col.tobytes()  # the scheme, for the inverses' cache
    rung = _RHO_MOVE / a_sum[-1]  # a_sum[-1] = ||A||_1

    def leaf(s: int, stop: int) -> tuple:
        """Solve nodes s .. stop-1 of every row in sweeps; v and the rows rejected.

        v, each row's z0 and history from before the leaf, is formed once,
        for the sweeps and for the step loop.

        Each sweep takes z <- G (v + A (f(z) - rho z)), a Newton-type step
        with the Jacobian of f replaced by rho I, summed as v + GA (f(z)
        + rho (v - z)), since G = I + rho GA.  rho is the mean slope of f
        along a uniform shift of the leaf's first iterate; G is rebuilt
        when rho moves, on the rung nearest rho unless the slopes cluster
        within half a rung.  The first iterate G (v + q A 1) holds
        f - rho z at q, its value at the last node.  At lam = 0, f - rho z
        is the forcing, so the first iterate is the solution: the leaf's one
        sweep only evaluates f there.
        A row stops sweeping when its sweeps stop contracting, or their
        rate would need more than _SWEEPS, and keeps its iterate and f from
        then on; a row whose rate predicts the stop takes one more iterate
        and f, and no product.  Its leaf is rejected unless the sweeps
        converged, and also when a node sits at or below the rounding
        floor.  An accepted row's running z_max takes the leaf's largest
        node.  The rows share the elementwise work; each takes its own G.
        A sweep's products are 256-node correlations, so with the
        leaf-boundary blocks a run whose leaves are accepted costs
        O(M log^2 M).
        """
        cnt = stop - s
        v = z0 + c_hist * far[:, s:stop]
        if s == 1:  # node 0's lags: add_far adds them only from node 256 on
            v += c_hist * w[1:stop] * f_hist[:, :1]
        # zd, the delayed values: lam = 0 feeds back the datum, lam = 1
        # the iterate itself, and other lam interpolate z
        zd, shift = z0, (1.0 if lam == 1.0 else 0.0)
        if 0.0 < lam < 1.0:
            idx = np.arange(s, stop)
            pos = lam * idx  # the step loop's arithmetic
            j = pos.astype(np.intp)
            theta = pos - j
            j1 = j + 1  # <= n, as lam < 1
            shift = (1.0 - theta) * (j >= s) + theta * (j1 >= s)  # delay weight in the leaf
        vq = v + np.array([f_hist[i, s - 1] - inv.rho * z[i, s - 1]
                           for i, inv in enumerate(lin)])[:, None] * a_sum[:cnt]
        zl = by_row(lambda i, q: _lower(lin[i].g, q), vq)
        going = range(len(lin))  # the rows that still take products
        worst, done = [math.inf if lam else 0.0] * len(lin), [0] * len(lin)
        for sweep in range(1, _SWEEPS + 1):
            if lam == 1.0:  # (1 - 0) z_n + 0 z_n, as interpolated: nan where z_n = inf
                zd = zl + 0.0 * zl
            elif lam:
                z[:, s:stop] = zl
                zd = (1.0 - theta) * z.take(j, axis=-1) + theta * z.take(j1, axis=-1)
            fl = logistic_rhs(p, zl, zd, f_col)
            if sweep == 1:
                # rows whose G and v_q hold no sign bit, while they keep
                # the G of their first iterate: |G| |v_q| is G v_q
                held = [inv.g_abs is inv.g and not neg
                        for inv, neg in zip(lin, np.signbit(vq).any(axis=-1).tolist())]
                if lam:
                    # the slope of each f_n along a uniform shift of the
                    # leaf.  G is rebuilt at their mean only where they
                    # cluster: built at the mean of slopes that spread
                    # over 1e30 (a first iterate that overshoots), G would
                    # barely move the nodes while the sweeps stall, and
                    # pass the stop test
                    slopes = r * (1.0 - (zd + shift * zl) / k)
                    mean = slopes.sum(axis=-1, keepdims=True) / cnt  # as .mean()
                    spread = np.abs(slopes - mean).max(axis=-1).tolist()
                    for i, at, by in zip(going, mean.ravel().tolist(), spread):
                        if abs(at - lin[i].rho) > max(_RHO_MOVE / lin[i].ga_norm, by):
                            if by > 0.5 * rung:  # the rung slows sweeps little
                                at = np.rint(at / rung) * rung
                            lin[i] = _leaf_inverse(a_key, at)
                            held[i] = False
                # four times the rounding error of the two sums; a held
                # row's first sum is its first iterate
                tol = 4.0 * _EPS * by_row(
                    lambda i, q: zl[i] if held[i] else _lower(lin[i].g_abs, np.abs(q)), vq)
                if not lam:
                    done = [1] * len(lin)
                    break
                rho = np.array([inv.rho for inv in lin])[:, None]
                tol += 4.0 * _EPS * by_row(lambda i, q: _lower(lin[i].ga_abs, q),
                                           np.abs(fl) + np.abs(rho * (v - zl)))
            if not going:  # the rows that predicted their stop have f
                break
            # a row that stopped keeps zl, whatever its zn
            zn = v + by_row(lambda i, q: q if done[i] else _lower(lin[i].ga, q),
                            fl + rho * (v - zl))
            ratio = (np.abs(zn - zl) / tol).max(axis=-1).tolist()
            # a row stops at convergence, or when the rate of contraction
            # says its sweeps would not get there; one whose rate puts the
            # next ratio at most _SETTLE takes zn and stops at the next
            # sweep, with f there, without the product that would confirm it
            for i in going:
                last, worst[i] = worst[i], ratio[i]
                if (not 1.0 < worst[i] < last
                        or sweep + math.log(worst[i]) / math.log(last / worst[i]) > _SWEEPS):
                    done[i] = sweep
                elif last < math.inf and worst[i] * (worst[i] / last) <= _SETTLE:
                    done[i], worst[i] = sweep + 1, worst[i] * (worst[i] / last)
            moving = [i for i in going if done[i] != sweep]  # the rows that take zn
            going = [i for i in going if not done[i]]
            if len(moving) == len(lin):
                zl = zn
            elif not moving:
                break
            else:
                zl[moving] = zn[moving]
        stats["sweeps"] += sum(done)
        stats["max_sweeps"] = max(stats["max_sweeps"], *done)
        z[:, s:stop] = zl  # lam = 1 and lam = 0 leave it to here
        f_hist[:, s:stop] = fl  # the step loop overwrites a rejected leaf
        # a node within the rounding error of its sums may have either
        # sign, and the step loop's sums over a leaf whose f sums to
        # overflow may overflow before the leaf's nodes do: the loop
        # decides both
        ok = ((4.0 * zl > tol).all(axis=-1) & (np.abs(fl).sum(axis=-1) < math.inf)).tolist()
        # no node at or below the rounding floor: the cumulative peak is
        # formed only for a row whose smallest node comes that near 0
        lows, tops = np.minimum.reduce(zl, 1).tolist(), np.maximum.reduce(zl, 1).tolist()
        for i, low, top in zip(range(len(ok)), lows, tops):
            top = max(peaks[i], top)
            if ok[i] and low <= _FLOOR * top:
                ok[i] = (zl[i] > _FLOOR * np.maximum.accumulate(zl[i].clip(peaks[i]))).all()
            if ok[i] and worst[i] <= 1.0:
                peaks[i] = top
        return v, [i for i, good in enumerate(ok) if not (good and worst[i] <= 1.0)]

    # The loop takes a rejected leaf's system with the v its leaf formed and
    # d = diag, and node 0's one-node system z_0 = z0 + d f(z_0) with d the
    # pointwise weight: ABC keeps its pointwise f term at t = 0 (the jump
    # amplitude on linear problems), and a datum operator's f(t) - f(0)
    # term vanishes there.  It reads and writes a row's z and f_hist
    # through memoryviews, which give Python floats.

    def steps(i: int, lo: int, hi: int, v: list, d: float) -> None:
        """Solve row i's nodes lo .. hi-1 of z = v + A f(z), diagonal d, one at a time.

        Node n takes base = v[n-lo] + sum_{lo<=j<n} A[n-j] f_j, one dot
        product over A's lags, and solves z_n = base + d f(z_n).  The first
        node at or below the rounding floor, 4 eps times the row's running
        z_max, raises.
        """
        zs, fs, forcing, peak = z[i].data, f_hist[i].data, row_forcing[i], peaks[i]
        fh = f_hist[i]
        zn = zs[lo - 1] if lo else z0  # the previous node's value
        # A's lags in source order, a contiguous copy for a fast dot: node n
        # takes the last n - lo
        lags = a_col[hi - lo - 1:0:-1].copy()
        stats["loop_nodes"] += hi - max(lo, 1)
        for n in range(lo, hi):
            base = v[n - lo] + float(lags[hi - 1 - n:].dot(fh[lo:n]))
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
                    a = (1.0 - theta) * zs[j]
                    if j + 1 == n:
                        b = theta
                    else:
                        a, b = a + theta * zs[j + 1], 0.0
            # A z^2 + B z - C = 0
            rd = d * r
            qa = rd * b / k
            qb = 1.0 - rd * (1.0 - a / k)
            qc = base + d * forcing
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
                    # the two roots, each without cancellation; the one nearest
                    # the previous node
                    r1, r2 = q / qa, -qc / q
                    zn = r1 if abs(r1 - zn) < abs(r2 - zn) else r2
            if not math.isfinite(zn):
                raise SolverError(f"non-finite state at step {n}", step=n)
            if zn <= _FLOOR * peak:
                # z0 plus a history whose terms reach the largest state, z_max,
                # resolves no z below a few eps z_max
                floor = (f" (t = {n * h:.6g}), within 4 eps z_max of 0, z_max = {peak:.6g}: "
                         "the integral form's rounding floor")
                raise SolverError(f"{'non-positive ' if zn <= 0.0 else ''}state {zn:.6g} at step "
                                  f"{n}{floor if -zn <= _FLOOR * peak else ''}", step=n)
            fn = logistic_rhs(p, zn, a + b * zn, forcing)
            zs[n] = zn
            fs[n] = fn
            if zn > peak:
                peak = zn
        peaks[i] = peak

    # Node 0 is solved by the step, then aligned leaves of _LEAF nodes from
    # node 1; a row whose leaf is rejected solves it by the step loop.
    try:
        for row in range(len(z)):
            steps(row, 0, 1, [z0], 0.0 if datum else c_point)
        # a datum operator's pointwise term c_point (f(t) - f(0)) puts
        # -c_point f(0) in every node's history (CFC's; Caputo's c_point is
        # 0).  far is M + 2 long, as _lag_weights' end is
        far = np.full((len(z), n_steps + 2), end - c_point / c_hist if datum and c_point else end)
        far *= f_hist[:, :1]
        # f's slope at node 0: the datum feeds back at lam = 0; otherwise
        # z(lam t) moves with z, as it does inside the first leaf
        lin = [_leaf_inverse(a_key, r * (1.0 - (z0 if lam == 0.0 else 2.0 * start) / k))
               for start in z[:, 0].tolist()]
        for s in (1, *range(_LEAF, n_steps + 1, _LEAF)):
            stop = min(s - s % _LEAF + _LEAF, n_steps + 1)
            v, rejected = leaf(s, stop)
            stats["rejected_leaves"] += len(rejected)
            for row in rejected:
                steps(row, s, stop, v[row].tolist(), diag)
            if stop <= n_steps:
                add_far(stop)
    except SolverError:
        if row:  # solved one at a time, an earlier row might fail first
            solve(params, cfg, forcing=forcing[:row], pantograph=pantograph)
        raise
    stats["leaf_nodes"] = n_steps * len(z) - stats["loop_nodes"]
    stats["inverses_built"] = _leaf_inverse.cache_info().misses - built

    return Trajectory(grid=grid, values=z.reshape(*forcing.shape, -1), operator=cfg.operator,
                      params=p, stats=stats)


def compare_operators(params: ModelParams, cfg_base: SolveConfig) -> OperatorComparison:
    """Run all three operators on identical grids for side-by-side output."""
    return OperatorComparison(**{kind.value: solve(params, replace(cfg_base, operator=kind))
                                 for kind in OperatorKind})
