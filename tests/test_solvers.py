import hashlib
import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from helpers import exact_lag_weights, reference_solve

from fraclogistic import (
    ModelParams,
    OperatorKind,
    SolveConfig,
    SingularParameterError,
    SolverError,
    abc_exact_lambda0,
    classical_exact,
    compare_operators,
    logistic_rhs,
    mittag_leffler,
    solve,
)
from fraclogistic.solvers import (
    _GL_HALF,
    _GL_HALF_WEIGHTS,
    _LEAF,
    _MAX_STEPS,
    _lag_weights,
    _leaf_inverse,
    _lower,
)


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

    @pytest.mark.parametrize("mu, gap", [(0.5, 5.8e-6), (0.7, 7.4e-7), (0.9, 5.1e-8)])
    def test_caputo_matches_mittag_leffler(self, mu, gap):
        # Caputo at lam = 0 is z0 E_mu(r (1 - z0/k) t^mu); twice the measured
        # gap at h = 1e-3, and the observed order from h = 2e-3
        p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=mu, lam=0.0)
        errors = []
        for h in (2e-3, 1e-3):
            traj = solve(p, SolveConfig(operator="caputo", t_end=2.0, h=h))
            t = traj.grid[traj.grid >= 0.1 - 1e-12]
            exact = p.z0 * mittag_leffler(mu, p.r * (1.0 - p.z0 / p.k) * t ** mu)
            errors.append(max_rel(traj.values[-len(t):], exact))
        assert errors[1] < gap
        assert np.log2(errors[0] / errors[1]) >= 1.4

    def test_initial_node_is_jump_amplitude(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        traj = solve(p, SolveConfig(operator="abc", t_end=1.0, h=0.01))
        assert traj.values[0] == pytest.approx(abc_exact_lambda0(p, 0.0), rel=1e-10)

    def test_cfc_caputo_start_at_datum(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        for op in ("cfc", "caputo"):
            traj = solve(p, SolveConfig(operator=op, t_end=1.0, h=0.01))
            assert traj.values[0] == p.z0

    # c1 a = 1.125 > 1 in the last case: z runs backwards, down to 1.5e-7
    @pytest.mark.parametrize("r, mu, tol", [(0.5, 0.5, 3e-12), (0.5, 0.9, 3e-12),
                                            (0.5, 1.0, 3e-12), (2.5, 0.5, 1e-6)])
    def test_cfc_matches_closed_form(self, r, mu, tol):
        # z' = c1 a z' + c2 a z with c1 = (1-mu)/B, c2 = mu/B, a = r (1 - z0/k)
        p = ModelParams(r=r, k=100.0, z0=10.0, mu=mu, lam=0.0)
        traj = solve(p, SolveConfig(operator="cfc", t_end=2.0, h=1e-5))
        a = p.r * (1.0 - p.z0 / p.k)
        c1, c2 = (1.0 - mu) / p.b_norm, mu / p.b_norm
        exact = p.z0 * np.exp(c2 * a * traj.grid / (1.0 - c1 * a))
        assert max_rel(traj.values, exact) <= tol


class TestOperatorCoincidence:
    def test_order_one_collapses_all_operators(self):
        # at mu = 1 every kernel is constant and the three integral forms
        # carry one scheme: ABC and CFC for any B, Caputo too at B = 1
        for b_norm in (1.0, 2.0):
            p = ModelParams(r=1.0, k=100.0, z0=10.0, mu=1.0, lam=1.0, b_norm=b_norm)
            trio = compare_operators(p, SolveConfig(operator="abc", t_end=3.0, h=2e-3))
            assert trio.abc.values.tobytes() == trio.cfc.values.tobytes()
            if b_norm == 1.0:
                assert trio.caputo.values.tobytes() == trio.abc.values.tobytes()

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

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_one_rhs_call_per_node(self, monkeypatch, operator):
        # one call per node the step solves (node 0 and the loop's nodes),
        # one per leaf sweep, for every operator
        calls = []

        def counted(*args):
            calls.append(args)
            return logistic_rhs(*args)

        monkeypatch.setattr("fraclogistic.solvers.logistic_rhs", counted)
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=0.37)
        for steps in (1, 100, 1100):
            calls.clear()
            traj = solve(p, SolveConfig(operator=operator, t_end=steps * 0.01, h=0.01))
            stats = traj.stats
            assert len(traj.values) == steps + 1
            assert len(calls) <= 1 + stats["loop_nodes"] + stats["sweeps"]
            assert stats["leaf_nodes"] + stats["loop_nodes"] == steps

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_lambda_zero_rhs_calls(self, monkeypatch, operator):
        # lam = 0 runs evaluate f once at t = 0 and once per leaf
        calls = []

        def counted(*args):
            calls.append(args)
            return logistic_rhs(*args)

        monkeypatch.setattr("fraclogistic.solvers.logistic_rhs", counted)
        # at r = 5, h = 0.05, z grows by a factor 1e29 or more within a leaf
        for (r, h), steps in itertools.product(((0.3, 0.01), (5.0, 0.05)),
                                               (1, 100, 255, 256, 1100)):
            p = ModelParams(r=r, k=100.0, z0=10.0, mu=0.9, lam=0.0)
            calls.clear()
            solve(p, SolveConfig(operator=operator, t_end=steps * h, h=h))
            assert len(calls) <= 1 + -(-(steps + 1) // _LEAF)

    @pytest.mark.parametrize("operator", ["abc", "caputo", "cfc"])
    def test_lambda_zero_fallback_after_accepted_leaves(self, monkeypatch, operator):
        # z = 10 exp(-9 t) nears rounding level in the third leaf, which the
        # leaf solve rejects; the step loop takes over at its first node, 512,
        # and meets a node at the rounding floor.  At mu = 1 every operator
        # is one scheme, so CFC fails at the same node
        calls = []

        def counted(*args):
            calls.append(args)
            return logistic_rhs(*args)

        monkeypatch.setattr("fraclogistic.solvers.logistic_rhs", counted)
        p = ModelParams(r=-10.0, k=100.0, z0=10.0, mu=1.0, lam=0.0)
        with pytest.raises(SolverError, match="rounding floor") as excinfo:
            solve(p, SolveConfig(operator=operator, t_end=4.0, h=4.0 / 610))
        assert excinfo.value.step == 588
        # node 0, one sweep in each of leaves 1 to 3, the loop's nodes 512 .. 587
        assert len(calls) == 1 + 3 + (588 - 512)

    # r = 2: the sweeps would contract too slowly in ABC's leaves 1 and 2
    # and in Caputo's leaf 2 (nodes 256 .. 511); the step loop solves those,
    # and the next leaf is solved in sweeps again
    @pytest.mark.parametrize("operator, rejected, loop_nodes",
                             [("abc", 2, 511), ("caputo", 1, 256)])
    def test_rejected_leaf_hands_over_to_the_loop(self, monkeypatch, operator,
                                                  rejected, loop_nodes):
        calls = []

        def counted(*args):
            calls.append(args)
            return logistic_rhs(*args)

        monkeypatch.setattr("fraclogistic.solvers.logistic_rhs", counted)
        p = ModelParams(r=2.0, k=100.0, z0=10.0, mu=0.7, lam=0.5)
        cfg = SolveConfig(operator=operator, t_end=1.2, h=0.002)
        traj = solve(p, cfg)
        stats = traj.stats
        assert stats["rejected_leaves"] == rejected
        assert (stats["loop_nodes"], stats["leaf_nodes"]) == (loop_nodes, 600 - loop_nodes)
        assert len(calls) == 1 + loop_nodes + stats["sweeps"]
        assert max_rel(traj.values, reference_solve(p, cfg)) <= 1e-12

    def test_leaves_round_like_the_scheme(self):
        # A sweep is summed as v + GA (f + rho (v - z)), which rounds only
        # the increment over v.  Summed as G v + GA (f - rho z), the same
        # leaves sit more than twice as far from the exact values here (a
        # mean of 0.99 ulp against 0.38).  The exact values solve the same
        # scheme, with the solver's own weights, in 40-digit arithmetic.
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        cfg = SolveConfig(operator="abc", t_end=3.0, h=0.01)
        traj = solve(p, cfg)
        assert traj.stats["leaf_nodes"] == 300
        w, end, _ = _lag_weights(p.mu, 301)
        c_hist = p.mu / math.gamma(p.mu) * (cfg.h ** p.mu / (p.mu * (p.mu + 1.0)))
        with mpmath.workdps(40):
            r, k, z0 = (mpmath.mpf(x) for x in (p.r, p.k, p.z0))

            def node(base, d, prev):  # the root of z = base + d r z (1 - z/k) nearest prev
                qa, qb = d * r / k, 1 - d * r
                disc = mpmath.sqrt(qb * qb + 4 * qa * base)
                return min(((disc - qb) / (2 * qa), (-disc - qb) / (2 * qa)),
                           key=lambda root: abs(root - prev))

            exact = [node(z0, mpmath.mpf(1.0 - p.mu), z0)]
            f = [r * exact[0] * (1 - exact[0] / k)]
            for n in range(1, 301):
                lags = mpmath.fsum(mpmath.mpf(w[n - i]) * f[i] for i in range(1, n))
                history = (mpmath.mpf(end[n]) + mpmath.mpf(w[n])) * f[0] + lags
                exact.append(node(z0 + mpmath.mpf(c_hist) * history,
                                  mpmath.mpf(1.0 - p.mu) + mpmath.mpf(c_hist), exact[-1]))
                f.append(r * exact[-1] * (1 - exact[-1] / k))
            exact = np.array([float(x) for x in exact])
        assert np.mean(np.abs(traj.values - exact) / np.spacing(exact)) < 0.8

    def test_default_compare_solves_in_leaves(self):
        # the CLI's compare defaults: every node after node 0 comes from a
        # leaf, for every operator
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        trio = compare_operators(p, SolveConfig(operator="abc", t_end=10.0, h=0.01))
        for traj in trio:
            assert traj.stats["leaf_nodes"] == 1000
            assert traj.stats["loop_nodes"] == traj.stats["rejected_leaves"] == 0
            assert 1 <= traj.stats["max_sweeps"] <= 12

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
            # in a rejected first leaf, and past the history block added at
            # node 256
            (ModelParams(r=5.0, k=100.0, z0=150.0, mu=0.5, lam=0.5), "abc", 0.02,
             114, "non-positive"),
            (ModelParams(r=3.0, k=100.0, z0=150.0, mu=0.3, lam=0.5), "abc", 0.01,
             449, "non-positive"),
            (ModelParams(r=-5.0, k=100.0, z0=150.0, mu=0.9, lam=0.5), "caputo", 0.01,
             67, "non-positive"),
            (ModelParams(r=10.0, k=100.0, z0=10.0, mu=0.5, lam=0.0), "caputo", 0.02,
             239, "non-finite"),
            # the history sums overflow before the nodes themselves do; the
            # first node of the leaf whose history block overflows fails
            (ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.3, lam=0.0), "caputo", 0.00025,
             18688, "non-finite"),
            # z = 10 exp(-9 t) reaches rounding level, where the integral form
            # returns a node at its rounding floor; the lam = 0 block solve
            # must report the step loop's failure
            (ModelParams(r=-10.0, k=100.0, z0=10.0, mu=1.0, lam=0.0), "abc", 0.05,
             76, "rounding floor"),
        ],
    )
    def test_inadmissible_root_reports_step(self, params, operator, h, step, message):
        with pytest.raises(SolverError, match=message) as excinfo:
            solve(params, SolveConfig(operator=operator, t_end=5.0, h=h))
        assert excinfo.value.step == step

    def test_degenerate_linear_step_has_no_root(self):
        # at lam = 0 the step is linear, qa = 0, and here its slope qb =
        # 1 - (1 - mu) r (1 - z0/k) is 0 too; the closed form's amplitude
        # is singular at the same point, where B + r (1 - z0/k) (mu - 1) = 0
        p = ModelParams(r=2.0 / 0.9, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        with pytest.raises(SolverError, match=r"^no real root at step 0$") as excinfo:
            solve(p, SolveConfig(operator="abc", t_end=0.1, h=0.01))
        assert excinfo.value.step == 0
        with pytest.raises(SingularParameterError):
            abc_exact_lambda0(p, 0.0)

    def test_double_root_at_zero_is_at_the_rounding_floor(self):
        # ABC's node 0 at lam = 1: qb = 1 - (1 - mu) r = 0 and qc = z0 +
        # (1 - mu) forcing = 0, so z^2 = 0 has the double root 0
        p = ModelParams(r=2.0, k=100.0, z0=10.0, mu=0.5, lam=1.0)
        with pytest.raises(SolverError) as excinfo:
            solve(p, SolveConfig(operator="abc", t_end=0.1, h=0.01), forcing=-20.0)
        assert str(excinfo.value) == ("non-positive state 0 at step 0, within 4 eps z_max of "
                                      "0: the integral form's rounding floor")
        assert excinfo.value.step == 0

    def test_decaying_runs_return_no_node_at_the_rounding_floor(self):
        # z0 plus a history of nearly z_max's size resolves no node at or
        # below 4 eps z_max: a run fails there, or keeps above it.  Part of a
        # scan of 324 decaying runs, in which leaves accepted such nodes for
        # CFC at mu = 1, r = -5, h = 0.01 and lam = 0 or 0.5; the mu = 1 runs
        # here fail, the mu = 0.8 ones stay above 1e-11
        eps = np.finfo(float).eps
        for operator, mu, lam, r in itertools.product(OperatorKind, (0.8, 1.0), (0.0, 0.5),
                                                      (-5.0, -10.0)):
            p = ModelParams(r=r, k=100.0, z0=10.0, mu=mu, lam=lam)
            try:
                z = solve(p, SolveConfig(operator=operator, t_end=10.0, h=0.01)).values
            except SolverError as exc:
                assert "rounding floor" in str(exc)
                continue
            z_max = np.maximum.accumulate(np.concatenate(([p.z0], z[:-1])))
            assert (z > 4.0 * eps * z_max).all(), (operator, mu, lam, r)

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_growth_far_below_a_later_peak_is_kept(self, operator):
        # at lam = 0 z grows from 1e-20 by a factor 1e43 within the first
        # leaf, so its early nodes lie far below 4 eps times the leaf's
        # largest; the floor counts only earlier nodes, so no leaf is rejected
        p = ModelParams(r=20.0, k=100.0, z0=1e-20, mu=1.0, lam=0.0)
        cfg = SolveConfig(operator=operator, t_end=5.0, h=0.01)
        traj = solve(p, cfg)
        assert traj.stats["rejected_leaves"] == 0
        assert traj.values[-1] > 1e23
        assert max_rel(traj.values, reference_solve(p, cfg)) <= 1e-12

    def test_operator_string_coercion(self):
        cfg = SolveConfig(operator="CAPUTO", t_end=1.0, h=0.1)
        assert cfg.operator is OperatorKind.CAPUTO


class TestReferenceEquivalence:
    """The fast solver against the direct O(M^2) sum with converged steps."""

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    # the ids name the product-trapezoid rule the cases check
    # at lam = 0.95 the delayed value falls inside the node's own 256-node
    # leaf in every leaf, at lam = 0.37 only in the first
    @pytest.mark.parametrize("lam, pantograph", [(0.0, True), (0.37, True), (0.95, True),
                                                 (1.0, True), (0.37, False)],
                             ids=["0.0-True-trapezoid", "0.37-True-trapezoid",
                                  "0.95-True-trapezoid", "1.0-True-trapezoid",
                                  "0.37-False-trapezoid"])
    def test_matches_reference(self, operator, lam, pantograph):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=lam)
        h = 2.0 ** -6
        # step counts straddle the 256-node leaves and the FFT history
        # blocks added at their boundaries; at 1100 the 1024-node block that
        # runs past the last node is split
        for steps in (1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
                      197, 255, 256, 257, 511, 512, 513, 1000, 1100):
            cfg = SolveConfig(operator=operator, t_end=steps * h, h=h)
            got = solve(p, cfg, pantograph=pantograph).values
            assert len(got) == steps + 1
            ref = reference_solve(p, cfg, pantograph=pantograph)
            assert max_rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_long_run(self, operator, lam):
        # 16 leaves, whose history enters through FFT blocks of up to 2048
        # nodes, or for CFC's constant kernel through sums.  CFC at mu = 0.7,
        # r = 0.3, lam = 0.5 overshoots to 267 and decays to 0.08, which
        # amplifies rounding: the step loop alone sits 9.8e-13 relative from
        # the reference there.  At mu = 0.9, r = 0.1 it peaks at 97 or 290
        # and stays above 10
        mu, r = (0.9, 0.1) if operator == "cfc" else (0.7, 0.3)
        p = ModelParams(r=r, k=100.0, z0=10.0, mu=mu, lam=lam)
        h = 2.0 ** -6
        cfg = SolveConfig(operator=operator, t_end=4096 * h, h=h)
        traj = solve(p, cfg)
        assert traj.stats["leaf_nodes"] == 4096
        assert max_rel(traj.values, reference_solve(p, cfg)) <= 1e-12

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_lambda_zero_with_forcing(self, operator):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=0.0)
        h = 2.0 ** -6
        for steps in (1, 255, 256, 257, 511, 512, 513, 1100):
            cfg = SolveConfig(operator=operator, t_end=steps * h, h=h)
            got = solve(p, cfg, forcing=1e-3).values
            ref = reference_solve(p, cfg, forcing=1e-3)
            assert max_rel(got, ref) <= 1e-12

    def test_leaf_far_from_linear_goes_to_the_loop(self):
        # one 80-node leaf over t in [0, 4] at r = 5: the first iterate,
        # linearised at node 0, grows to 7e31, where f's slope is -4e30.  A G
        # rebuilt at the slopes' mean moved no node by much and passed the
        # stop test with values off by 1e17; the leaf must go to the step
        # loop.  The plain fixed point of reference_solve diverges here; the
        # hash is the step loop's, whose values moved by at most 1.7e-14
        # relative when it came to sum a leaf's own lags by A
        p = ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.5, lam=0.25)
        traj = solve(p, SolveConfig(operator="caputo", t_end=4.0, h=0.05))
        assert traj.stats["rejected_leaves"] == 1
        assert traj.stats["loop_nodes"] == 80
        assert hashlib.sha256(traj.values.tobytes()).hexdigest() == (
            "78eab4b00e2902973d140175cb5f0100cf7ebd5cdd669784ea415099df990aa6")

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_fast_growth_steps_are_converged(self, operator):
        # Large r * h: a few fixed-point sweeps per step stop well short of
        # the step's solution here; the exact step must not.
        p = ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        cfg = SolveConfig(operator=operator, t_end=10.0, h=0.1)
        got = solve(p, cfg).values
        ref = reference_solve(p, cfg)
        assert max_rel(got, ref) <= 1e-10


class TestLeafInverses:
    """G and GA come from a cache keyed by the scheme and rho: it must not change results."""

    FORCINGS = (0.0, 1e-4, 1e-3, 1e-2)  # the default stability probe's order

    @pytest.mark.parametrize("operator", ["abc", "caputo"])
    def test_results_do_not_depend_on_the_cache(self, operator):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=0.5)
        cfg = SolveConfig(operator=operator, t_end=10.0, h=0.01)

        def run(forcings, clear):
            out = {}
            for forcing in forcings:
                if clear:
                    _leaf_inverse.cache_clear()
                out[forcing] = solve(p, cfg, forcing=forcing).values.tobytes()
            return out

        alone = run(self.FORCINGS, clear=True)
        # solves of the same scheme at other slopes, some on the probe's rungs
        # or next to them, and of another scheme evict the probe's inverses
        # and fill the cache with their own
        misses = _leaf_inverse.cache_info().misses
        for r in (*np.linspace(-0.6, 0.6, 13), *np.linspace(0.09, 0.11, 11)):
            for h in (0.01, 0.02):
                solve(replace(p, r=float(r)), replace(cfg, t_end=3.0, h=h), forcing=1e-3)
        assert _leaf_inverse.cache_info().misses - misses > _leaf_inverse.cache_info().maxsize
        assert run(self.FORCINGS, clear=False) == alone
        assert run(self.FORCINGS[::-1], clear=False) == alone

    @pytest.mark.parametrize("operator, lam, uncached_builds",
                             [("abc", 1.0, 20), ("caputo", 1.0, 20), ("abc", 0.0, 4)])
    def test_probe_solves_share_inverses(self, operator, lam, uncached_builds):
        # the default stability command's four solves, in the probe's order.
        # Before G was cached each solve built its own, once per run and once
        # in every lam > 0 leaf: uncached_builds, counted on that solver
        _leaf_inverse.cache_clear()
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=lam)
        cfg = SolveConfig(operator=operator, t_end=10.0, h=0.01)
        built = sum(solve(p, cfg, forcing=forcing).stats["inverses_built"]
                    for forcing in self.FORCINGS)
        assert built <= uncached_builds // 2
        assert built == _leaf_inverse.cache_info().misses
        # the probe's one stacked solve builds no more
        _leaf_inverse.cache_clear()
        assert solve(p, cfg, forcing=self.FORCINGS).stats["inverses_built"] == built
        assert _leaf_inverse.cache_info().misses == built

    @pytest.mark.parametrize("operator, r, lam, outcome", [
        # the first iterate's mean slope is -1e305, which is beyond the
        # rungs' range, and -inf
        ("caputo", 44.1, 0.25, "non-positive state -16.8747 at step 7"),
        ("caputo", 44.2, 0.25, "non-positive state -16.6418 at step 7"),
        # the first iterate overflows, so the mean slope is nan, in both leaves
        ("abc", 50.0, 1.0, None),
    ])
    def test_unbounded_slopes_go_to_the_loop(self, operator, r, lam, outcome):
        p = ModelParams(r=r, k=100.0, z0=10.0, mu=1.0, lam=lam)
        cfg = SolveConfig(operator=operator, t_end=12.8, h=0.05)
        if outcome:
            with pytest.raises(SolverError, match=f"^{outcome}$"):
                solve(p, cfg)
        else:
            stats = solve(p, cfg).stats
            assert stats["rejected_leaves"] == 2 and stats["loop_nodes"] == 256


class TestLagWeights:
    # every lag below 300 (both sides of the switch from quadrature to the
    # 1/m series), then decades up to the largest step count
    LAGS = [*range(1, 300), 10**3, 2 * 10**4, 10**5, 10**6, _MAX_STEPS - 1, _MAX_STEPS]

    # mu = 1, the trapezoid rule, is the quadrature's limit; solve takes that
    # constant kernel's exact weights instead
    @pytest.mark.parametrize("mu", [0.3, 0.9, 1.0])
    def test_against_extended_precision(self, mu):
        w, end, _ = _lag_weights(mu, _MAX_STEPS)
        ref_w, ref_end = exact_lag_weights(mu, self.LAGS)
        assert w[0] == 0.0 and end[0] == 0.0
        np.testing.assert_allclose(w[self.LAGS], ref_w, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(end[self.LAGS], ref_end, rtol=1e-14, atol=0.0)

    def test_last_weights_are_shared_read_only(self):
        w, end, spectra = _lag_weights(0.45, 300)
        assert _lag_weights(0.45, 300)[0] is w
        assert _lag_weights(0.45, 300)[2] is spectra
        with pytest.raises(ValueError, match="read-only"):
            w[1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            end[1] = 0.0

    @pytest.mark.parametrize("operator, mu", [("cfc", 0.7), ("abc", 1.0), ("caputo", 1.0)])
    def test_constant_kernel_builds_no_lag_weights(self, operator, mu):
        # a constant kernel takes the trapezoid rule's exact weights, and
        # its history blocks are sums without w
        _lag_weights(0.45, 300)
        info = _lag_weights.cache_info()
        p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=mu, lam=0.5)
        solve(p, SolveConfig(operator, 5.0, 1e-3))
        assert _lag_weights.cache_info() == info
        assert info.maxsize == 1

    def test_gauss_legendre_table(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert _GL_HALF.tolist() == nodes[6:].tolist() == (-nodes[5::-1]).tolist()
        assert _GL_HALF_WEIGHTS.tolist() == weights[6:].tolist() == weights[5::-1].tolist()

    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65])
    def test_short_runs(self, size):
        w, end, _ = _lag_weights(0.7, size)
        assert len(w) == len(end) == size + 1
        ref_w, ref_end = exact_lag_weights(0.7, range(1, size + 1))
        np.testing.assert_allclose(w[1:], ref_w, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(end[1:], ref_end, rtol=1e-14, atol=0.0)


class TestStacks:
    """A sequence of forcings is solved as one stack; each row is its own solve."""

    FORCINGS = (0.0, 1e-4, 1e-3, 1e-2)

    @staticmethod
    def alone(p, cfg, forcings):
        """Each forcing's own solve: the values, and the stats summed as a stack's."""
        runs = [solve(p, cfg, forcing=forcing) for forcing in forcings]
        stats = {key: sum(run.stats[key] for run in runs) for key in runs[0].stats}
        stats["max_sweeps"] = max(run.stats["max_sweeps"] for run in runs)
        return np.array([run.values for run in runs]), stats

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    @pytest.mark.parametrize("lam", [0.0, 0.37, 0.5, 1.0])
    @pytest.mark.parametrize("steps", [1, 255, 256, 257, 1100])
    def test_rows_are_their_own_solves(self, operator, lam, steps):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.8, lam=lam)
        cfg = SolveConfig(operator=operator, t_end=steps * 0.01, h=0.01)
        stack = solve(p, cfg, forcing=self.FORCINGS)
        values, stats = self.alone(p, cfg, self.FORCINGS)
        assert stack.values.shape == (4, steps + 1)
        assert stack.values.tobytes() == values.tobytes()
        assert stack.grid.tobytes() == solve(p, cfg).grid.tobytes()
        del stats["inverses_built"]  # the rows share their builds
        assert stats.items() <= stack.stats.items()

    @pytest.mark.parametrize("operator", ["abc", "cfc", "caputo"])
    def test_rejected_leaves(self, operator):
        # at r = 2 some leaves are handed to the step loop (see
        # test_rejected_leaf_hands_over_to_the_loop); the other rows sweep on
        p = ModelParams(r=2.0, k=100.0, z0=10.0, mu=0.7, lam=0.5)
        cfg = SolveConfig(operator=operator, t_end=1.2, h=0.002)
        forcings = (0.0, 1e-2, 1.0, 30.0)
        stack = solve(p, cfg, forcing=forcings)
        values, stats = self.alone(p, cfg, forcings)
        assert stack.values.tobytes() == values.tobytes()
        assert stack.stats["rejected_leaves"] == stats["rejected_leaves"] > 0
        assert stack.stats["loop_nodes"] == stats["loop_nodes"]

    # a float forcing is a stack of one: the same solve, its row unwrapped
    def test_single_row(self):
        for operator, lam in itertools.product(["abc", "cfc", "caputo"], [0.0, 0.5, 1.0]):
            p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.8, lam=lam)
            cfg = SolveConfig(operator=operator, t_end=3.0, h=0.01)
            runs = []
            for forcing in (1e-3, [1e-3], np.float64(1e-3)):
                _leaf_inverse.cache_clear()  # so that inverses_built compares
                runs.append(solve(p, cfg, forcing=forcing))
            single, stack, scalar = runs
            assert single.values.shape == scalar.values.shape == (301,)
            assert stack.values.shape == (1, 301)
            assert stack.values[0].tobytes() == single.values.tobytes() == scalar.values.tobytes()
            assert stack.stats == single.stats == scalar.stats
            assert single.stats["inverses_built"] > 0
            # as in test_errors_follow_the_rows
            errors = []
            for forcing in (-5.0, [-5.0]):
                with pytest.raises(SolverError, match="non-positive") as excinfo:
                    solve(replace(p, r=-3.0), cfg, forcing=forcing)
                errors.append((str(excinfo.value), excinfo.value.step))
            assert errors[0] == errors[1], (operator, lam)

    def test_stack_of_more_than_four_maximal_runs_is_refused(self, monkeypatch):
        monkeypatch.setattr("fraclogistic.solvers._MAX_STEPS", 50)
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.8, lam=0.5)
        cfg = SolveConfig(operator="abc", t_end=0.5, h=0.01)
        assert solve(p, cfg, forcing=self.FORCINGS).values.shape == (4, 51)
        with pytest.raises(ValueError, match="a stack of 5 rows of 50 steps"):
            solve(p, cfg, forcing=(*self.FORCINGS, 0.1))

    @pytest.mark.parametrize("forcing", [[], [[0.0, 1.0]]])
    def test_forcing_shape(self, forcing):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.8, lam=0.5)
        with pytest.raises(ValueError, match="forcing"):
            solve(p, SolveConfig(operator="abc", t_end=1.0, h=0.01), forcing=forcing)

    # bad input, refused before any step, not a solver failure at step 0
    @pytest.mark.parametrize("forcing", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_non_finite_forcing_is_refused(self, forcing):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.8, lam=0.5)
        with pytest.raises(ValueError, match="forcing must be a finite float"):
            solve(p, SolveConfig(operator="abc", t_end=1.0, h=0.01), forcing=forcing)

    # at r = -3 a forcing of -2 makes z negative at a later step than -5; a
    # stack raises its first failing row's error, whichever fails first in
    # time.  At r = 1 an ABC forcing of -30 makes node 0 negative, in a later
    # row too (CFC and Caputo fail it at steps 44 and 11)
    @pytest.mark.parametrize("p, t_end, operator, cases", [
        *(pytest.param(ModelParams(r=-3.0, k=100.0, z0=10.0, mu=0.8, lam=lam), 5.0, operator,
                       (((0.0, -2.0, -5.0), late), ((0.0, -5.0, -2.0), early),
                        ((-2.0, 0.0), late)), id=f"{operator}-{lam}-{late}-{early}")
          for operator, lam, late, early in [
              ("abc", 0.0, 275, 121), ("caputo", 0.0, 182, 84), ("cfc", 0.0, 191, 133),
              ("abc", 0.5, 269, 119), ("caputo", 0.5, 178, 82), ("cfc", 0.5, 188, 131)]),
        pytest.param(ModelParams(r=1.0, k=100.0, z0=10.0, mu=0.5, lam=0.5), 1.0, "abc",
                     (((0.0, -30.0), 0), ((-30.0, 0.0), 0)), id="abc-0.5-node-0")])
    def test_errors_follow_the_rows(self, p, t_end, operator, cases):
        cfg = SolveConfig(operator=operator, t_end=t_end, h=0.01)
        for forcings, step in cases:
            with pytest.raises(SolverError, match="non-positive") as excinfo:
                solve(p, cfg, forcing=forcings)
            with pytest.raises(SolverError) as alone:
                solve(p, cfg, forcing=forcings[[f < 0.0 for f in forcings].index(True)])
            assert str(excinfo.value) == str(alone.value)
            assert excinfo.value.step == alone.value.step == step

    @pytest.mark.parametrize("size", [1, 2, 7, 255, 256])
    def test_lower_is_convolve(self, size):
        rng = np.random.default_rng(size)
        col, x = rng.standard_normal((2, size)) * 10.0 ** rng.integers(-8, 8, (2, size))
        assert _lower(col, x).tobytes() == np.convolve(col, x)[:size].tobytes()
        assert _lower(np.concatenate((col, x)), x).tobytes() == _lower(col, x).tobytes()

