"""Empirical robustness probe in the Hyers-Ulam sense.

A system is stable in this sense when every function satisfying the
dynamics up to a defect of size eps stays within C * eps of an exact
solution, with C independent of eps.  The probe checks the empirical
signature of that statement: it solves the system with the extremal
constant defect +eps added to the right-hand side, measures the maximum
deviation from the unperturbed trajectory over the horizon [0, t_end], and
reports the ratio deviation/eps for each requested eps.  Bounded,
eps-independent ratios are the observable counterpart of the abstract
constant C; no constant is derived symbolically.

The unperturbed run and the perturbed ones differ only in the forcing, so
they are solved as one stack, in one :func:`fraclogistic.solvers.solve`
call; each row is the run its own solve would give.  The deviation is
the largest over the grid nodes up to t_end and over t_end itself, where
the gap is interpolated linearly as the CLI interpolates a trajectory, so
a horizon between two nodes is not measured at the node past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .solvers import SolveConfig, solve

__all__ = ["StabilityReport", "hyers_ulam_probe"]


@dataclass(frozen=True)
class StabilityReport:
    """Per-epsilon deviations and constant estimates over one horizon."""

    epsilons: tuple
    deviations: tuple
    c_estimates: tuple
    horizon: float


def hyers_ulam_probe(params: ModelParams, cfg: SolveConfig, epsilons) -> StabilityReport:
    """Estimate the stability constant for each perturbation size.

    Each epsilon must be positive; when the growth rate is nonzero it must
    also stay below ``0.1 * k * |r|`` so the perturbation remains small
    relative to the dynamics scale (for r = 0 there is no such scale and
    the bound is waived).

    At lam = 0 the model is linear in z and the forcing, so the deviation
    is proportional to eps and every eps gives the same estimate up to
    rounding.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilons must be nonempty")
    for eps in eps_list:
        if not math.isfinite(eps) or eps <= 0.0:
            raise ValueError(f"epsilons must be positive, got {eps!r}")
        if params.r != 0.0 and eps > 0.1 * params.k * abs(params.r):
            raise ValueError(
                f"epsilon {eps} exceeds the dynamics scale bound "
                f"0.1*k*|r| = {0.1 * params.k * abs(params.r)}"
            )

    runs = solve(params, cfg, forcing=(0.0, *eps_list))
    # the nodes up to t_end, and t_end itself where it falls between two
    nodes = int(cfg.t_end / cfg.h + 1e-9) + 1
    deviations = [max(float(gap[:nodes].max()), float(np.interp(cfg.t_end, runs.grid, gap)))
                  for gap in np.abs(runs.values[1:] - runs.values[0])]
    ratios = [dev / eps for dev, eps in zip(deviations, eps_list)]
    return StabilityReport(
        epsilons=tuple(eps_list),
        deviations=tuple(deviations),
        c_estimates=tuple(ratios),
        horizon=cfg.t_end,
    )
