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

The gap is the difference of two states of size up to z_max, the largest
state of the stack at the nodes the deviation reads, so it carries an
absolute rounding error of a few eps z_max: the rounding floor 4 eps
z_max, at or below which :func:`solve` returns no state.  A deviation
within _FLOOR_MULTIPLE floors of 0 is refused with
:class:`ConvergenceError`, since it would give c from rounding.  At
eps = 1e-12 a deviation of about 600 floors already puts c 1e-4 off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import ModelParams
from .solvers import _FLOOR, SolveConfig, solve

__all__ = ["StabilityReport", "hyers_ulam_probe"]

_FLOOR_MULTIPLE = 1e3


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

    Raises :class:`ConvergenceError` when a deviation is no larger than
    ``_FLOOR_MULTIPLE`` times the rounding floor ``4 eps z_max``; its
    ``ratio`` is the deviation over the floor.
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
    floor = _FLOOR * float(runs.values[:, :nodes + 1].max())
    for eps, dev in zip(eps_list, deviations):
        if dev <= _FLOOR_MULTIPLE * floor:
            raise ConvergenceError(
                f"the deviation {dev:.3g} at epsilon {eps:g} is within {_FLOOR_MULTIPLE:g} "
                f"times the rounding floor 4 eps z_max = {floor:.3g}", ratio=dev / floor)
    ratios = [dev / eps for dev, eps in zip(deviations, eps_list)]
    return StabilityReport(
        epsilons=tuple(eps_list),
        deviations=tuple(deviations),
        c_estimates=tuple(ratios),
        horizon=cfg.t_end,
    )
