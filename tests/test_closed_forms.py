import math

import numpy as np
import pytest
from scipy.special import erfcx

from fraclogistic import (
    ModelParams,
    OperatorKind,
    SingularParameterError,
    SolveConfig,
    abc_exact_lambda0,
    classical_exact,
    solve,
)

P = ModelParams(r=1.0, k=100.0, z0=10.0, mu=1.0, lam=1.0)


class TestClassical:
    def test_initial_condition_exact(self):
        assert classical_exact(P, 0.0) == P.z0

    def test_half_capacity_crossing(self):
        # e^{-r t} = 1/9 makes the denominator 20, so z = 50
        assert classical_exact(P, math.log(9.0)) == pytest.approx(50.0, rel=1e-14)

    def test_equilibrium_is_constant(self):
        p = ModelParams(r=1.0, k=100.0, z0=100.0, mu=1.0, lam=1.0)
        for t in (0.0, 1.0, 17.3):
            assert classical_exact(p, t) == p.k

    def test_satisfies_logistic_ode(self):
        # central finite differences against the growth law
        delta = 1e-5
        for t in np.linspace(0.1, 5.0, 200):
            derivative = (classical_exact(P, t + delta) - classical_exact(P, t - delta)) / (
                2.0 * delta
            )
            z = classical_exact(P, t)
            rhs = P.r * z * (1.0 - z / P.k)
            assert derivative == pytest.approx(rhs, rel=1e-6)

    def test_monotone_directions(self):
        ts = np.linspace(0.0, 8.0, 200)
        below = [classical_exact(P, t) for t in ts]
        assert all(b > a for a, b in zip(below, below[1:]))
        p_above = ModelParams(r=1.0, k=100.0, z0=150.0, mu=1.0, lam=1.0)
        above = [classical_exact(p_above, t) for t in ts]
        assert all(b < a for a, b in zip(above, above[1:]))

    def test_plateau(self):
        assert abs(classical_exact(P, 40.0 / P.r) - P.k) < 1e-10 * P.k

    def test_equilibrium_survives_overflowing_decay(self):
        # e^{-r t} overflows at t = 1000; the equilibrium must not turn into nan
        p = ModelParams(r=-1.0, k=100.0, z0=100.0, mu=1.0, lam=1.0)
        assert classical_exact(p, 1000.0) == p.k
        assert classical_exact(p, np.array([0.0, 1000.0])).tolist() == [p.k, p.k]

    def test_blow_up_raises_naming_time(self):
        # z0 > k with r < 0 blows up at t* = ln(z0/(z0 - k))/(-r) = ln 3
        p = ModelParams(r=-1.0, k=100.0, z0=150.0, mu=1.0, lam=1.0)
        assert classical_exact(p, 1.0) > p.z0
        for t in (1.5, np.linspace(0.0, 3.0, 7)):
            with pytest.raises(SingularParameterError, match=f"t\\* = {math.log(3.0):.12g}"):
                classical_exact(p, t)

    def test_initial_value_far_above_capacity_decays_to_k(self):
        # k is below half an ulp of z0, so z0 + (k - z0) e^{-r t} rounds to 0 at
        # t = 0; z = k / (1 - e^{-r t} + (k/z0) e^{-r t}) starts at z0 and decays
        p = ModelParams(r=0.1, k=100.0, z0=1e300, mu=1.0, lam=1.0)
        ts = np.array([0.0, 1.0, 10.0, 400.0])
        z = classical_exact(p, ts)
        assert z[0] == p.z0
        np.testing.assert_allclose(z[1:], p.k / -np.expm1(-p.r * ts[1:]), rtol=1e-14)
        assert z[-1] == p.k
        # r < 0 still blows up, at t* = ln(z0/(z0 - k))/(-r) ~ (k/z0)/(-r)
        with pytest.raises(SingularParameterError, match="t\\* = 1e-297"):
            classical_exact(ModelParams(r=-0.1, k=100.0, z0=1e300, mu=1.0), ts)

    @pytest.mark.parametrize("r", [1.0, -0.5])
    def test_grid_matches_points(self, r):
        # r = -0.5 decays, and e^{-r t} overflows past t = 1419
        p = ModelParams(r=r, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        ts = np.concatenate(([0.0, 1e-300], np.linspace(0.0, 2000.0, 401)))
        values = classical_exact(p, ts)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        assert values.tolist() == [classical_exact(p, t) for t in ts.tolist()]
        assert type(classical_exact(p, np.float64(1.0))) is float

    def test_nonpositive_initial_value_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(r=1.0, k=100.0, z0=-1.0, mu=1.0, lam=1.0)


class TestFixedPoints:
    def test_numerical_attraction(self):
        p = ModelParams(r=0.8, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        assert abs(classical_exact(p, 50.0 / p.r) - p.k) < 1e-6 * p.k


class TestLambdaZeroForm:
    def test_malthusian_limit(self):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=1.0, lam=0.0)
        rho = p.r * (1.0 - p.z0 / p.k)
        for t in np.linspace(0.0, 5.0, 40):
            assert abc_exact_lambda0(p, t) == pytest.approx(
                p.z0 * math.exp(rho * t), rel=1e-12
            )

    def test_equilibrium(self):
        p = ModelParams(r=0.3, k=100.0, z0=100.0, mu=0.5, lam=0.0)
        for t in (0.0, 2.0, 9.0):
            assert abc_exact_lambda0(p, t) == p.z0

    def test_half_order_point_against_erfc_oracle(self):
        # A = 10/0.955, argument = 0.045/0.955 at t = 1
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        amp = 10.0 / 0.955
        arg = 0.045 / 0.955
        assert abc_exact_lambda0(p, 0.0) == pytest.approx(amp, rel=1e-14)
        expected = amp * erfcx(-arg)  # erfcx(-x) = e^{x^2} erfc(-x) = E_{1/2}(x)
        assert abc_exact_lambda0(p, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_decay_from_above_capacity_against_erfc_oracle(self):
        # den = 1 + (-8)(-0.5) = 5, A = 200/5 = 40, q = -8 * 0.5 / 5 = -0.8,
        # so q t^0.5 spans -120 .. -1 on t in [1.5625, 22500]
        p = ModelParams(r=8.0, k=100.0, z0=200.0, mu=0.5, lam=0.0)
        for t in np.geomspace(1.5625, 22500.0, 41):
            expected = 40.0 * erfcx(0.8 * math.sqrt(t))
            assert abc_exact_lambda0(p, t) == pytest.approx(expected, rel=1e-10)

    def test_initial_value_is_amplitude_not_datum(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.6, lam=0.0)
        amp = abc_exact_lambda0(p, 0.0)
        assert amp == p.b_norm * p.z0 / (p.b_norm + p.r * (1 - p.z0 / p.k) * (p.mu - 1))
        assert amp != p.z0

    def test_amplitude_restores_datum_in_classical_limit(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0 - 1e-8, lam=0.0)
        assert abs(abc_exact_lambda0(p, 0.0) - p.z0) < 1e-6

    def test_singular_denominator(self):
        # b_norm + r (1 - z0/k)(mu - 1) = 1 + 2*(-0.5) = 0
        p = ModelParams(r=-2.0, k=100.0, z0=200.0, mu=0.5, lam=0.0)
        with pytest.raises(SingularParameterError):
            abc_exact_lambda0(p, 1.0)

    def test_negative_denominator(self):
        # b_norm + r (1 - z0/k)(mu - 1) = 1 + 4.5*(-0.5) < 0 gives A = -8 < 0
        p = ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        with pytest.raises(SingularParameterError, match="-1.25"):
            abc_exact_lambda0(p, 0.0)
        with pytest.raises(SingularParameterError):
            abc_exact_lambda0(p, 1.0)

    def test_small_normalization_is_not_singular(self):
        # the denominator is b_norm = 1e-13 itself: small, but nothing cancels
        p = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.5, lam=0.0, b_norm=1e-13)
        assert abc_exact_lambda0(p, 0.0) == p.z0
        ts = np.linspace(0.0, 2.0, 201)
        traj = solve(p, SolveConfig(OperatorKind.ABC, 2.0, 0.01))
        np.testing.assert_array_equal(abc_exact_lambda0(p, ts), traj.values)

    def test_negative_time_rejected(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        with pytest.raises(ValueError):
            abc_exact_lambda0(p, -0.5)

    @pytest.mark.parametrize("t", [0.0, [0.0, 1.0]])
    def test_overflowing_rate_is_named(self, t):
        # r(1 - z0/k) mu / B = -1e308 / 1e-13 overflows; times t^mu = 0 it
        # would give nan, with a warning, and an error that names no rate
        p = ModelParams(r=-1e308, k=100.0, z0=1e-300, mu=1.0, lam=0.0, b_norm=1e-13)
        with pytest.raises(SingularParameterError, match=r"the rate q = .* = -inf is not finite"):
            abc_exact_lambda0(p, t)


class TestLambdaZeroGrid:
    # growth (q > 0), decay from above capacity (q < 0), the classical
    # limit, and growth fast enough to overflow
    @pytest.mark.parametrize("p", [
        ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.7, lam=0.0),
        ModelParams(r=8.0, k=100.0, z0=200.0, mu=0.5, lam=0.0),
        ModelParams(r=0.3, k=100.0, z0=10.0, mu=1.0, lam=0.0),
        ModelParams(r=0.9, k=100.0, z0=10.0, mu=0.5, lam=0.0),
    ], ids=["growth", "decay", "mu-one", "overflow"])
    def test_array_matches_scalar_exactly(self, p):
        ts = np.concatenate(([0.0, 1e-300], np.linspace(0.0, 3000.0, 241)))
        values = abc_exact_lambda0(p, ts)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        assert values.tolist() == [abc_exact_lambda0(p, t) for t in ts.tolist()]

    def test_overflow_reports_inf(self):
        # q t^mu reaches about 37 at t = 3000, and E_0.5(x) ~ 2 exp(x^2)
        p = ModelParams(r=0.9, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        values = abc_exact_lambda0(p, np.array([1.0, 3000.0]))
        assert math.isfinite(values[0]) and values[1] == math.inf

    def test_zero_dimensional_input_returns_float(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        value = abc_exact_lambda0(p, np.float64(1.0))
        assert type(value) is float
        assert type(abc_exact_lambda0(p, np.array(1.0))) is float
        assert value == abc_exact_lambda0(p, 1.0)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_one_bad_time_in_array_raises(self, bad):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=0.0)
        ts = np.linspace(0.0, 5.0, 11)
        ts[4] = bad
        with pytest.raises(ValueError):
            abc_exact_lambda0(p, ts)
