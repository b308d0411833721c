import math

import numpy as np
import pytest
from scipy.integrate import quad

from fraclogistic import gamma_fn
from fraclogistic.series import (
    FracSeries,
    SumuduSeries,
    delay_rescale,
    eval_series,
    kernel_multiply,
    series_add,
    series_product,
    series_scale,
    sumudu_forward,
    sumudu_inverse,
)
from helpers import assert_series_close, convolution_check, random_frac_series


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        s = FracSeries(0.5, (1.0, 2.0, 0.0, 0.0))
        assert s.coeffs == (1.0, 2.0)
        # only exact zeros go: 1e-303 * t^2 is 10 at t = 1e152
        tiny = FracSeries(1.0, (1.0, 0.0, 1e-303, -0.0))
        assert tiny.coeffs == (1.0, 0.0, 1e-303)
        assert eval_series(tiny, 1e152) == pytest.approx(11.0, rel=1e-12)

    def test_zero_series_keeps_one_entry(self):
        assert FracSeries(0.5, (0.0, 0.0)).coeffs == (0.0,)

    @pytest.mark.parametrize("mu", [0.0, -0.1, 1.5, math.nan])
    def test_mu_domain(self, mu):
        with pytest.raises(ValueError):
            FracSeries(mu, (1.0,))

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FracSeries(0.5, ())
        with pytest.raises(ValueError):
            FracSeries(0.5, (1.0, math.inf))

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_nonfinite_scale_rejected(self, factor):
        with pytest.raises(ValueError, match="scale factor must be finite"):
            series_scale(FracSeries(0.5, (1.0, 2.0)), factor)


class TestSumuduPair:
    def test_forward_constant(self):
        assert sumudu_forward(FracSeries(0.7, (1.0,))).coeffs == (1.0,)

    def test_forward_sqrt_t_against_quadrature(self):
        # S[w](u) = int_0^inf w(t*u) exp(-t) dt with w(t) = t^(1/2)
        got = sumudu_forward(FracSeries(0.5, (0.0, 1.0)))
        for u in (0.3, 1.0, 2.5):
            oracle, _ = quad(lambda t: math.sqrt(t * u) * math.exp(-t), 0.0, np.inf)
            value = got.coeffs[1] * u ** 0.5
            assert value == pytest.approx(oracle, rel=1e-10)
        assert got.coeffs == (0.0, gamma_fn(1.5))

    def test_forward_linear_is_identity_coefficient(self):
        assert sumudu_forward(FracSeries(1.0, (0.0, 1.0))).coeffs == (0.0, 1.0)

    def test_inverse_examples(self):
        assert sumudu_inverse(SumuduSeries(0.7, (1.0,))).coeffs == (1.0,)
        inv = sumudu_inverse(SumuduSeries(0.5, (0.0, gamma_fn(1.5))))
        assert_series_close(inv, FracSeries(0.5, (0.0, 1.0)), rtol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu = rng.uniform(0.05, 1.0)
            s = random_frac_series(rng, mu, int(rng.integers(1, 9)))
            back = sumudu_inverse(sumudu_forward(s))
            assert_series_close(back, s, rtol=1e-14)

    def test_linearity_exact_for_pow2_data(self):
        # powers of two make every scaling exact, so linearity holds bitwise
        mu = 0.25
        a = FracSeries(mu, (1.0, -2.0, 0.5))
        b = FracSeries(mu, (4.0, 0.25, -8.0))
        alpha, beta = 0.5, -0.25
        lhs = sumudu_forward(series_add(series_scale(a, alpha), series_scale(b, beta)))
        rhs = series_add(
            series_scale(sumudu_forward(a), alpha),
            series_scale(sumudu_forward(b), beta),
        )
        assert lhs.coeffs == rhs.coeffs

    def test_linearity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu = rng.uniform(0.1, 1.0)
            a = random_frac_series(rng, mu, 6)
            b = random_frac_series(rng, mu, 4)
            alpha, beta = rng.uniform(-3, 3, size=2)
            lhs = sumudu_forward(series_add(series_scale(a, alpha), series_scale(b, beta)))
            rhs = series_add(
                series_scale(sumudu_forward(a), alpha),
                series_scale(sumudu_forward(b), beta),
            )
            assert_series_close(lhs, rhs, rtol=1e-12, atol=1e-13)


class TestKernelMultiply:
    def test_constant(self):
        out = kernel_multiply(SumuduSeries(0.4, (1.0,)))
        assert out.coeffs == pytest.approx((0.6, 0.4), rel=1e-15)

    def test_two_term_pattern(self):
        mu = 0.3
        c0, c1 = 1.5, -2.0
        out = kernel_multiply(SumuduSeries(mu, (c0, c1)))
        expected = ((1 - mu) * c0, (1 - mu) * c1 + mu * c0, mu * c1)
        assert out.coeffs == pytest.approx(expected, rel=1e-15)

    def test_double_application_squares_kernel(self):
        mu = 0.6
        out = kernel_multiply(kernel_multiply(SumuduSeries(mu, (1.0,))))
        expected = ((1 - mu) ** 2, 2 * (1 - mu) * mu, mu ** 2)
        assert out.coeffs == pytest.approx(expected, rel=1e-14)

    def test_length_grows_by_one(self):
        s = SumuduSeries(0.5, (1.0, 2.0, 3.0))
        assert len(kernel_multiply(s).coeffs) == 4

    def test_distributes_over_addition_exact(self):
        mu = 0.25
        a = SumuduSeries(mu, (1.0, -0.5, 2.0))
        b = SumuduSeries(mu, (0.25, 8.0))
        lhs = kernel_multiply(series_add(a, b))
        rhs = series_add(kernel_multiply(a), kernel_multiply(b))
        assert lhs.coeffs == rhs.coeffs

    def test_commutes_with_scalar_exact(self):
        mu = 0.25
        a = SumuduSeries(mu, (1.0, -0.5, 2.0))
        assert kernel_multiply(series_scale(a, 2.0)).coeffs == \
            series_scale(kernel_multiply(a), 2.0).coeffs


class TestProduct:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(3)
        b = random_frac_series(rng, 0.5, 5)
        assert_series_close(series_product(FracSeries(0.5, (1.0,)), b), b, rtol=0)

    def test_monomials_add_exponents(self):
        out = series_product(FracSeries(0.5, (0.0, 1.0)), FracSeries(0.5, (0.0, 1.0)))
        assert out.coeffs == (0.0, 0.0, 1.0)

    def test_pointwise_evaluation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            mu = rng.uniform(0.1, 1.0)
            a = random_frac_series(rng, mu, 5)
            b = random_frac_series(rng, mu, 5)
            prod = series_product(a, b)
            for t in rng.uniform(1e-3, 2.0, size=20):
                lhs = eval_series(prod, t)
                rhs = eval_series(a, t) * eval_series(b, t)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            mu = rng.uniform(0.1, 1.0)
            a, b, c = (random_frac_series(rng, mu, 4) for _ in range(3))
            assert_series_close(series_product(a, b), series_product(b, a), rtol=1e-13)
            assert_series_close(
                series_product(series_product(a, b), c),
                series_product(a, series_product(b, c)),
                rtol=1e-13,
                atol=1e-13,
            )

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            series_product(FracSeries(0.5, (1.0,)), FracSeries(0.6, (1.0,)))

    def test_type_mixing_rejected(self):
        with pytest.raises(ValueError):
            series_add(FracSeries(0.5, (1.0,)), SumuduSeries(0.5, (1.0,)))


class TestDelayRescale:
    def test_identity_at_one(self):
        s = FracSeries(0.7, (1.0, 2.0, 3.0))
        assert delay_rescale(s, 1.0).coeffs == s.coeffs

    def test_zero_keeps_constant(self):
        s = FracSeries(0.7, (4.0, 2.0, 3.0))
        assert delay_rescale(s, 0.0).coeffs == (4.0,)

    def test_linear_case(self):
        out = delay_rescale(FracSeries(1.0, (0.0, 1.0)), 0.5)
        assert out.coeffs == (0.0, 0.5)

    def test_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            mu = rng.uniform(0.1, 1.0)
            s = random_frac_series(rng, mu, 6)
            l1, l2 = rng.uniform(0.05, 1.0, size=2)
            once = delay_rescale(s, l1 * l2)
            twice = delay_rescale(delay_rescale(s, l1), l2)
            assert_series_close(once, twice, rtol=1e-12)

    @pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
    def test_domain(self, lam):
        with pytest.raises(ValueError):
            delay_rescale(FracSeries(0.5, (1.0,)), lam)


class TestEval:
    def test_value_at_zero_is_constant_term(self):
        s = FracSeries(0.3, (7.5, 1.0, -2.0))
        assert eval_series(s, 0.0) == 7.5

    def test_polynomial_case(self):
        assert eval_series(FracSeries(1.0, (1.0, 2.0, 3.0)), 2.0) == 17.0

    def test_half_power(self):
        assert eval_series(FracSeries(0.5, (0.0, 1.0)), 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_series(FracSeries(0.5, (1.0,)), -1.0)


class TestConvolution:
    def test_constants(self):
        assert convolution_check(FracSeries(1.0, (1.0,)), FracSeries(1.0, (1.0,)))

    def test_t_with_constant_against_integration(self):
        f = FracSeries(1.0, (0.0, 1.0))
        g = FracSeries(1.0, (1.0,))
        # direct integral: (f*g)(t) = int_0^t (t-x) dx = t^2/2
        for t in (0.5, 1.0, 2.0):
            oracle, _ = quad(lambda x: (t - x) * 1.0, 0.0, t)
            assert oracle == pytest.approx(t ** 2 / 2.0, rel=1e-12)
        assert convolution_check(f, g)

    def test_random_against_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = random_frac_series(rng, 1.0, 4)
            g = random_frac_series(rng, 1.0, 4)
            # Beta-identity convolution cross-checked by numerical quadrature
            conv = [0.0] * (len(f.coeffs) + len(g.coeffs))
            for i, fi in enumerate(f.coeffs):
                for j, gj in enumerate(g.coeffs):
                    conv[i + j + 1] += fi * gj * math.exp(
                        math.lgamma(i + 1) + math.lgamma(j + 1) - math.lgamma(i + j + 2)
                    )
            conv_series = FracSeries(1.0, tuple(conv))
            for t in (0.7, 1.6):
                oracle, _ = quad(
                    lambda x: eval_series(f, t - x) * eval_series(g, x), 0.0, t
                )
                assert eval_series(conv_series, t) == pytest.approx(oracle, rel=1e-9, abs=1e-12)
            assert convolution_check(f, g)

    def test_non_integer_order_unsupported(self):
        with pytest.raises(NotImplementedError):
            convolution_check(FracSeries(0.5, (1.0,)), FracSeries(0.5, (1.0,)))
