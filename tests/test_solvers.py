from dataclasses import replace

import numpy as np
import pytest
from helpers import exact_lag_weights, reference_solve

from fraclogistic import (
    ModelParams,
    OperatorKind,
    SolveConfig,
    SolverError,
    abc_exact_lambda0,
    classical_exact,
    compare_operators,
    lambda0_amplitude,
    solve,
)
from fraclogistic.solvers import _GL_HALF, _GL_HALF_WEIGHTS, _MAX_STEPS, _lag_weights


def max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)))


class TestClassicalOracle:
    def test_caputo_order_one_matches_logistic(self):
        p = ModelParams(r=1.0, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        cfg = SolveConfig(operator="caputo", t_end=3.0, h=2e-3)
        traj = solve(p, cfg)
        exact = np.array([classical_exact(p, t) for t in traj.grid])
        err = max_rel(traj.values, exact)
        assert err < 1e-4
        refined = solve(p, replace(cfg, h=1e-3))
        exact_fine = np.array([classical_exact(p, t) for t in refined.grid])
        assert max_rel(refined.values, exact_fine) < err


class TestLambdaZeroOracle:
    @pytest.mark.parametrize("mu", [0.5, 0.8])
    def test_abc_matches_closed_form(self, mu):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=mu, lam=0.0)
        cfg = SolveConfig(operator="abc", t_end=3.0, h=2e-3)
        traj = solve(p, cfg)
        exact = abc_exact_lambda0(p, traj.grid[1:])
        assert max_rel(traj.values[1:], exact) < 1e-3

    def test_initial_node_is_jump_amplitude(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        traj = solve(p, SolveConfig(operator="abc", t_end=1.0, h=0.01))
        assert traj.values[0] == pytest.approx(lambda0_amplitude(p), rel=1e-10)

    def test_cfc_caputo_start_at_datum(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        for op in ("cfc", "caputo"):
            traj = solve(p, SolveConfig(operator=op, t_end=1.0, h=0.01))
            assert traj.values[0] == p.z0


class TestOperatorCoincidence:
    def test_order_one_collapses_all_operators(self):
        p = ModelParams(r=1.0, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        cfg = SolveConfig(operator="abc", t_end=3.0, h=2e-3)
        trio = compare_operators(p, cfg)
        assert max_rel(trio.abc.values, trio.caputo.values) < 1e-10
        assert max_rel(trio.abc.values, trio.cfc.values) < 1e-3
        assert max_rel(trio.cfc.values, trio.caputo.values) < 1e-3

    def test_fractional_order_stays_bounded(self):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=0.6)
        cfg = SolveConfig(operator="abc", t_end=10.0, h=0.02)
        trio = compare_operators(p, cfg)
        for traj in trio:
            assert np.all(traj.values > 0.0)
            assert np.all(traj.values < 1.05 * p.k)
        # operators genuinely differ away from the classical limit
        assert max_rel(trio.abc.values, trio.caputo.values) > 1e-4

    def test_equilibrium_constant_for_all(self):
        p = ModelParams(r=0.3, k=100.0, z0=100.0, mu=0.7, lam=0.5)
        trio = compare_operators(p, SolveConfig(operator="abc", t_end=2.0, h=0.02))
        for traj in trio:
            np.testing.assert_allclose(traj.values, p.k, rtol=1e-12)


class TestDelayHandling:
    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    def test_lambda_one_equals_direct_path(self, operator, lam):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=lam)
        cfg = SolveConfig(operator=operator, t_end=3.0, h=0.01)
        direct = solve(p, cfg, pantograph=False)
        np.testing.assert_array_equal(direct.values, solve(replace(p, lam=1.0), cfg).values)
        assert direct.params == p

    def test_interior_delay_differs_from_none(self):
        base = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=1.0)
        half = replace(base, lam=0.5)
        cfg = SolveConfig(operator="abc", t_end=3.0, h=0.01)
        a = solve(base, cfg)
        b = solve(half, cfg)
        assert np.max(np.abs(a.values - b.values)) > 1e-4


class TestConvergenceOrder:
    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    @pytest.mark.parametrize("mu", [0.5, 0.9])
    def test_refinement_contracts(self, operator, mu):
        p = ModelParams(r=0.2, k=100.0, z0=10.0, mu=mu, lam=0.5)
        endpoints = []
        for h in (0.04, 0.02, 0.01):
            traj = solve(p, SolveConfig(operator=operator, t_end=2.0, h=h))
            endpoints.append(traj.values[-1])
        coarse = abs(endpoints[0] - endpoints[1])
        fine = abs(endpoints[1] - endpoints[2])
        assert fine < coarse


class TestBasicBehaviour:
    def test_zero_growth_is_flat(self):
        p = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.6, lam=0.5)
        for op in OperatorKind:
            traj = solve(p, SolveConfig(operator=op, t_end=2.0, h=0.05))
            np.testing.assert_array_equal(traj.values, np.full_like(traj.values, 10.0))

    def test_positivity(self):
        p = ModelParams(r=0.5, k=100.0, z0=5.0, mu=0.8, lam=0.7)
        for op in OperatorKind:
            traj = solve(p, SolveConfig(operator=op, t_end=8.0, h=0.02))
            assert np.all(traj.values > 0.0)

    def test_grid_metadata(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.6, lam=1.0)
        cfg = SolveConfig(operator="cfc", t_end=1.0, h=0.1)
        traj = solve(p, cfg)
        assert traj.operator is OperatorKind.CFC
        assert traj.params == p
        np.testing.assert_allclose(traj.grid, 0.1 * np.arange(11), rtol=1e-15)
        assert np.all(np.isfinite(traj.values))


class TestFailureModes:
    def test_corrector_divergence_reports_step(self):
        p = ModelParams(r=50.0, k=100.0, z0=10.0, mu=0.2, lam=1.0)
        with pytest.raises(SolverError) as excinfo:
            solve(p, SolveConfig(operator="abc", t_end=5.0, h=0.5))
        assert excinfo.value.step >= 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(operator="abc", t_end=1.0, h=0.0)
        with pytest.raises(ValueError):
            SolveConfig(operator="abc", t_end=0.05, h=0.1)
        with pytest.raises(ValueError):
            SolveConfig(operator="abc", t_end=1e9, h=1e-3)
        with pytest.raises(ValueError):
            SolveConfig(operator="bogus", t_end=1.0, h=0.1)

    def test_step_limit(self):
        SolveConfig(operator="abc", t_end=2e6, h=1.0)
        with pytest.raises(ValueError, match="t_end/h"):
            SolveConfig(operator="abc", t_end=2e6 + 1, h=1.0)

    @pytest.mark.parametrize(
        "params, operator, h, step, message",
        [
            (ModelParams(r=4.0, k=100.0, z0=10.0, mu=0.5, lam=0.5), "caputo", 0.25,
             1, "non-positive"),
            (ModelParams(r=-30.0, k=100.0, z0=150.0, mu=0.6, lam=0.5), "cfc", 0.05,
             22, "non-positive"),
            (ModelParams(r=-30.0, k=100.0, z0=150.0, mu=0.9, lam=1.0), "abc", 0.05,
             0, "no real root"),
        ],
    )
    def test_inadmissible_root_reports_step(self, params, operator, h, step, message):
        with pytest.raises(SolverError, match=message) as excinfo:
            solve(params, SolveConfig(operator=operator, t_end=5.0, h=h))
        assert excinfo.value.step == step

    def test_operator_string_coercion(self):
        cfg = SolveConfig(operator="CAPUTO", t_end=1.0, h=0.1)
        assert cfg.operator is OperatorKind.CAPUTO


class TestReferenceEquivalence:
    """The fast solver against the direct O(M^2) sum with converged steps."""

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    # the ids name the product-trapezoid rule the cases check
    @pytest.mark.parametrize("lam, pantograph", [(0.0, True), (0.37, True), (1.0, True),
                                                 (0.37, False)],
                             ids=["0.0-True-trapezoid", "0.37-True-trapezoid",
                                  "1.0-True-trapezoid", "0.37-False-trapezoid"])
    def test_matches_reference(self, operator, lam, pantograph):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=lam)
        h = 2.0 ** -6
        # step counts straddle the 64-node history blocks; at 1100 the
        # 1024-node block that runs past the last node is split
        for steps in (1, 2, 63, 64, 65, 197, 1000, 1100):
            cfg = SolveConfig(operator=operator, t_end=steps * h, h=h)
            got = solve(p, cfg, pantograph=pantograph).values
            assert len(got) == steps + 1
            ref = reference_solve(p, cfg, pantograph=pantograph)
            assert max_rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_fast_growth_steps_are_converged(self, operator):
        # Large r * h: a few fixed-point sweeps per step stop well short of
        # the step's solution here; the exact step must not.
        p = ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        cfg = SolveConfig(operator=operator, t_end=10.0, h=0.1)
        got = solve(p, cfg).values
        ref = reference_solve(p, cfg)
        assert max_rel(got, ref) <= 1e-10


class TestLagWeights:
    # every lag below 300 (both sides of the switch from quadrature to the
    # 1/m series), then decades up to the largest step count
    LAGS = [*range(1, 300), 10**3, 2 * 10**4, 10**5, 10**6, _MAX_STEPS - 1, _MAX_STEPS]

    @pytest.mark.parametrize("mu", [0.3, 0.9])
    def test_against_extended_precision(self, mu):
        w, end = _lag_weights(mu, _MAX_STEPS)
        ref_w, ref_end = exact_lag_weights(mu, self.LAGS)
        assert w[0] == 0.0 and end[0] == 0.0
        np.testing.assert_allclose(w[self.LAGS], ref_w, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(end[self.LAGS], ref_end, rtol=1e-14, atol=0.0)

    def test_gauss_legendre_table(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert _GL_HALF.tolist() == nodes[6:].tolist() == (-nodes[5::-1]).tolist()
        assert _GL_HALF_WEIGHTS.tolist() == weights[6:].tolist() == weights[5::-1].tolist()

    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65])
    def test_short_runs(self, size):
        w, end = _lag_weights(0.7, size)
        assert len(w) == len(end) == size + 1
        ref_w, ref_end = exact_lag_weights(0.7, range(1, size + 1))
        np.testing.assert_allclose(w[1:], ref_w, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(end[1:], ref_end, rtol=1e-14, atol=0.0)
