import numpy as np
import pytest

from fraclogistic import (
    ModelParams,
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
