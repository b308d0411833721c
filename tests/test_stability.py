import math

import numpy as np
import pytest
from helpers import stability_lambda0

from fraclogistic import (
    ModelParams,
    OperatorKind,
    SolveConfig,
    gamma_fn,
    hyers_ulam_probe,
    solve,
)

P = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=1.0)
CFG = SolveConfig(operator="abc", t_end=3.0, h=0.02)


def test_ratios_bounded_across_epsilon_decades():
    report = hyers_ulam_probe(P, CFG, [1e-2, 1e-3, 1e-4])
    assert max(report.c_estimates) / min(report.c_estimates) < 3.0
    assert report.horizon == CFG.t_end
    assert all(d > 0.0 and np.isfinite(d) for d in report.deviations)


def test_deviation_shrinks_with_epsilon():
    report = hyers_ulam_probe(P, CFG, [1e-2, 1e-4])
    assert report.deviations[1] < report.deviations[0]


def test_zero_growth_matches_hand_integrated_deviation():
    # with r = 0 the perturbed system is pure fractional integration of the
    # constant defect, so the deviation at the horizon is
    # eps * ((1 - mu)/B + mu * T^mu / (B * Gamma(mu + 1)))
    p = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.7, lam=1.0)
    cfg = SolveConfig(operator="abc", t_end=5.0, h=0.01)
    eps = 1e-3
    report = hyers_ulam_probe(p, cfg, [eps])
    expected = eps * ((1.0 - p.mu) / p.b_norm
                      + p.mu * cfg.t_end ** p.mu / (p.b_norm * gamma_fn(p.mu + 1.0)))
    assert report.deviations[0] == pytest.approx(expected, rel=1e-6)


def test_deviation_monotone_in_time_for_constant_defect():
    eps = 1e-3
    base = solve(P, CFG)
    perturbed = solve(P, CFG, forcing=eps)
    gap = perturbed.values - base.values
    assert np.all(gap >= 0.0)
    assert np.all(np.diff(gap) >= -1e-15)


def test_validation():
    with pytest.raises(ValueError, match="nonempty"):
        hyers_ulam_probe(P, CFG, [])
    with pytest.raises(ValueError, match="positive"):
        hyers_ulam_probe(P, CFG, [0.0])
    with pytest.raises(ValueError, match="dynamics scale"):
        hyers_ulam_probe(P, CFG, [10.0])  # bound is 0.1*k*|r| = 1.0


def test_zero_rate_waives_scale_bound():
    p = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.7, lam=1.0)
    cfg = SolveConfig(operator="abc", t_end=1.0, h=0.05)
    report = hyers_ulam_probe(p, cfg, [5.0])
    assert report.deviations[0] > 0.0


def test_deviation_is_measured_up_to_the_horizon():
    # h = 0.3 puts t_end = 0.95 and 1 between the nodes 0.9 and 1.2, and the
    # grid runs to 1.2 for all three horizons.  Each probe must measure up to
    # its own t_end, where the gap is interpolated linearly, and no further.
    p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=0.8, lam=1.0)
    dev = {t_end: hyers_ulam_probe(p, SolveConfig("abc", t_end, 0.3), [1e-3]).deviations[0]
           for t_end in (0.95, 1.0, 1.2)}
    assert dev[0.95] < dev[1.0] < dev[1.2]
    runs = solve(p, SolveConfig("abc", 1.2, 0.3), forcing=(0.0, 1e-3))
    gap = np.abs(runs.values[1] - runs.values[0])
    assert dev[1.2] == gap.max()
    assert dev[0.95] == max(gap[:4].max(), np.interp(0.95, runs.grid, gap))
    assert gap[3] < dev[0.95] < gap[4]


def test_probe_is_one_stacked_solve(monkeypatch):
    calls = []

    def counted(params, cfg, **kwargs):
        calls.append(kwargs)
        return solve(params, cfg, **kwargs)

    monkeypatch.setattr("fraclogistic.stability.solve", counted)
    report = hyers_ulam_probe(P, CFG, [1e-2, 1e-3])
    assert calls == [{"forcing": (0.0, 1e-2, 1e-3)}]
    for eps, dev in zip(report.epsilons, report.deviations):
        alone = solve(P, CFG, forcing=eps).values - solve(P, CFG).values
        assert dev == np.abs(alone).max()


# The probe's convergence orders against the lam = 0 closed form, over the
# halvings h = 0.01 -> 0.005 -> 0.0025 at t_end = 10 (r = 0.1, k = 100,
# z0 = 10), as measured when the oracle was added; each must hold to 0.05.
# The product trapezoid's order is 1 + mu for a singular kernel at t = 0,
# and 2 for the constant kernel (CFC, and every operator at mu = 1).
LAMBDA0_ORDERS = {
    (OperatorKind.ABC, 0.5): (1.498, 1.499),
    (OperatorKind.ABC, 0.7): (1.676, 1.681),
    (OperatorKind.ABC, 0.9): (1.673, 1.716),
    (OperatorKind.ABC, 1.0): (2.000, 2.000),
    (OperatorKind.CAPUTO, 0.5): (1.497, 1.498),
    (OperatorKind.CAPUTO, 0.7): (1.669, 1.675),
    (OperatorKind.CAPUTO, 0.9): (1.629, 1.686),
    (OperatorKind.CAPUTO, 1.0): (2.000, 2.000),
    (OperatorKind.CFC, 0.5): (2.000, 2.000),
    (OperatorKind.CFC, 0.7): (2.000, 2.000),
    (OperatorKind.CFC, 0.9): (2.000, 2.000),
    (OperatorKind.CFC, 1.0): (2.000, 2.000),
}


@pytest.mark.parametrize("operator, mu", LAMBDA0_ORDERS, ids=lambda x: getattr(x, "value", x))
def test_lambda0_probe_converges_to_closed_form(operator, mu):
    p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=mu, lam=0.0)
    exact = stability_lambda0(operator, p, 10.0)
    errors = [abs(hyers_ulam_probe(p, SolveConfig(operator, 10.0, h), [1e-2]).c_estimates[0]
                  - exact) for h in (0.01, 0.005, 0.0025)]
    assert errors[-1] < 2e-7 * exact
    for coarse, fine, measured in zip(errors, errors[1:], LAMBDA0_ORDERS[operator, mu]):
        assert math.log2(coarse / fine) >= measured - 0.05


def test_lambda0_oracle_reduces_to_classical_deviation():
    # at mu = 1 every operator is the ODE z' = (a z + eps)/norm, with norm = B
    # for ABC and CFC and 1 for Caputo: c = (e^{a t/norm} - 1)/a
    p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=0.0, b_norm=2.5)
    a = p.r * (1.0 - p.z0 / p.k)
    for operator in OperatorKind:
        norm = 1.0 if operator is OperatorKind.CAPUTO else p.b_norm
        expected = math.expm1(a * 10.0 / norm) / a
        assert stability_lambda0(operator, p, 10.0) == pytest.approx(expected, rel=1e-15)
