"""Seeded workloads: the CLI invocations each benchmark pass runs.

A workload is a list of operations.  Each operation is one documented
``fraclogistic`` command line plus the facts its output check needs.  The
seed only jitters model parameters and grid offsets; the amount of work
per pass is the same for every seed, so timings from different seeds are
comparable.  The program sees nothing but the generated ``argv``.

Why each workload exists, and which layer it loads, is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; re-check later claims on it.
HELD_OUT_SEED = 7919

MU_SWEEP = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
ML_ORDERS = (0.5, 0.8, 0.9, 1.0)
# ml-eval grid: 80 points, step 2.5, start on the quarter grid of the
# committed reference table, so every argument is a table entry.
ML_POINTS = 80
ML_STEP = 2.5
# exact-lambda0 growth curves: sized so that positive-argument
# Mittag-Leffler calls take a quarter to a half of the `special` time.
EXACT_POINTS = 8000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the parameters its output check uses."""

    check: str
    argv: tuple
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    ops: tuple
    setup: tuple  # tiny invocations that make the first call of each route


def _num(x: float) -> str:
    return format(x, ".6g")


def _model(rng: random.Random) -> dict:
    """Growth rate and initial value jittered by up to 10 % around the defaults."""
    return {"r": float(_num(0.1 * rng.uniform(0.9, 1.1))),
            "z0": float(_num(10.0 * rng.uniform(0.9, 1.1))),
            "k": 100.0}


def _model_argv(m: dict) -> list:
    return ["--r", _num(m["r"]), "--z0", _num(m["z0"])]


def solver_fine(rng: random.Random) -> Workload:
    m = _model(rng)
    ops = [Op("compare",
              ("compare", *_model_argv(m), "--t-end", "5", "--h", "0.00025",
               "--points", "101"),
              dict(m, mu=0.9, lam=1.0, t_end=5.0, h=0.00025, points=101))]
    for steps in (2500, 5000, 10000, 20000):
        h = 5.0 / steps
        ops.append(Op("ladder",
                      ("solve", "--operator", "abc", "--lambda", "0", *_model_argv(m),
                       "--t-end", "5", "--h", repr(h), "--points", "101"),
                      dict(m, mu=0.9, lam=0.0, points=101)))
    setup = (("compare", "--t-end", "0.01", "--h", "0.005", "--points", "2"),
             ("solve", "--lambda", "0", "--t-end", "0.01", "--h", "0.005", "--points", "2"))
    return Workload(tuple(ops), setup)


def solver_sweep(rng: random.Random) -> Workload:
    m = _model(rng)
    ops = []
    for op in ("abc", "cfc", "caputo"):
        for mu in MU_SWEEP:
            for lam in (0.0, 0.5, 1.0):
                ops.append(Op("stability",
                              ("stability", "--operator", op, "--mu", repr(mu),
                               "--lambda", repr(lam), *_model_argv(m),
                               "--t-end", "5", "--h", "0.01"),
                              dict(m, mu=mu, lam=lam, t_end=5.0,
                                   epsilons=(1e-4, 1e-3, 1e-2))))
    # Fast growth (r = 5) at lam = 0, where the closed form is exact and the
    # ABC corrector's 5 sweeps stop short of the fixed point.
    fast = dict(m, r=5.0)
    for op in ("abc", "caputo"):
        ops.append(Op("fast_growth",
                      ("solve", "--operator", op, "--lambda", "0", "--mu", "0.9",
                       *_model_argv(fast), "--t-end", "1", "--h", "0.01",
                       "--points", "101"),
                      dict(fast, operator=op, mu=0.9, points=101)))
    setup = tuple(("stability", "--operator", op, "--t-end", "0.02", "--h", "0.01")
                  for op in ("abc", "cfc", "caputo"))
    return Workload(tuple(ops), setup)


def series_surface(rng: random.Random) -> Workload:
    m = _model(rng)
    at_t = float(_num(rng.uniform(0.5, 1.5)))
    ops = [Op("surface_both",
              ("surface", "--vary", "both", "--mode", mode, *_model_argv(m),
               "--at-t", _num(at_t)),
              dict(m, mode=mode, at_t=at_t))
           for mode in ("general", "square")]
    ops.append(Op("surface_lambda",
                  ("surface", "--vary", "lambda", "--n-terms", "20", *_model_argv(m),
                   "--t-end", "10", "--points", "101"),
                  dict(m, mu=0.9, t_end=10.0, points=101)))
    ops.append(Op("convergence",
                  ("convergence", "--n-max", "30", "--mu", "1", "--lambda", "1",
                   *_model_argv(m), "--t-end", "10", "--points", "101"),
                  dict(m, n_max=30, points=101)))
    setup = (("surface", "--vary", "both", "--n-terms", "1"),
             ("surface", "--vary", "lambda", "--n-terms", "1", "--points", "2"),
             ("convergence", "--n-max", "1", "--points", "2"))
    return Workload(tuple(ops), setup)


def ml_closed_form(rng: random.Random) -> Workload:
    m = _model(rng)
    lo = -200.0 + 0.25 * rng.randrange(10)
    hi = lo + ML_STEP * (ML_POINTS - 1)
    ops = [Op("ml_eval",
              ("ml-eval", "--mu", repr(mu), "--from", repr(lo), "--to", repr(hi),
               "--points", str(ML_POINTS)),
              dict(mu=mu, lo=lo, hi=hi, points=ML_POINTS))
           for mu in ML_ORDERS]
    ops.append(Op("exact_mu",
                  ("exact-lambda0", "--vary", "mu", "--from", "0.5", "--to", "1.0",
                   "--step", "0.1", *_model_argv(m), "--t-end", "10",
                   "--points", str(EXACT_POINTS)),
                  dict(m, mus=MU_SWEEP, points=EXACT_POINTS)))
    # one call per Mittag-Leffler route: spectral (imports scipy.integrate),
    # extended-precision series, plain series
    setup = (("ml-eval", "--mu", "0.5", "--from", "-10", "--to", "-9", "--points", "2"),
             ("ml-eval", "--mu", "0.9", "--from", "-10", "--to", "-9", "--points", "2"),
             ("exact-lambda0", "--vary", "mu", "--points", "2"))
    return Workload(tuple(ops), setup)


WORKLOADS = {f.__name__: f for f in (solver_fine, solver_sweep, series_surface,
                                      ml_closed_form)}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](random.Random(seed))
