import numpy as np
import pytest

from fraclogistic import (
    FracSeries,
    adomian_delayed_product,
    eval_series,
    series_add,
    series_product,
    series_scale,
)
from helpers import assert_series_close, random_frac_series


def quadratic_table(terms):
    """First four polynomials of the undelayed square, assembled directly:
    P0 = x0^2, P1 = 2 x0 x1, P2 = 2 x0 x2 + x1^2, P3 = 2 x0 x3 + 2 x1 x2."""
    x0, x1, x2, x3 = terms
    return [
        series_product(x0, x0),
        series_scale(series_product(x0, x1), 2.0),
        series_add(series_scale(series_product(x0, x2), 2.0), series_product(x1, x1)),
        series_add(
            series_scale(series_product(x0, x3), 2.0),
            series_scale(series_product(x1, x2), 2.0),
        ),
    ]


def test_constant_square():
    p0 = adomian_delayed_product([FracSeries(0.5, (3.0,))], 1.0)[0]
    assert p0.coeffs == (9.0,)


def test_table_against_direct_assembly():
    rng = np.random.default_rng(23)
    for _ in range(100):
        mu = rng.uniform(0.1, 1.0)
        terms = [random_frac_series(rng, mu, int(rng.integers(1, 6))) for _ in range(4)]
        polys = adomian_delayed_product(terms, 1.0)
        for got, expected in zip(polys, quadratic_table(terms)):
            assert_series_close(got, expected, rtol=1e-12, atol=1e-13)


def test_general_mode_hand_example():
    # x0 = c constant, x1 = a*t, lam = 0.5, mu = 1:
    # P1 = c * x1(lam t) + x1(t) * c = 1.5 * c * a * t
    c, a = 3.0, 2.0
    terms = [FracSeries(1.0, (c,)), FracSeries(1.0, (0.0, a))]
    p1 = adomian_delayed_product(terms, 0.5)[1]
    assert p1.coeffs == pytest.approx((0.0, 1.5 * c * a), rel=1e-15)


def test_partial_sums_graded_inputs():
    # with x_i proportional to t^(i*mu), the index grading equals the power
    # grading, so sum_{k<=n} P_k is the truncated Cauchy square of sum x_k
    rng = np.random.default_rng(31)
    for _ in range(50):
        mu = rng.uniform(0.1, 1.0)
        coeffs = rng.uniform(-2.0, 2.0, size=5)
        terms = [
            FracSeries(mu, (0.0,) * i + (c,)) for i, c in enumerate(coeffs)
        ]
        polys = adomian_delayed_product(terms, 1.0)
        total = terms[0]
        for x in terms[1:]:
            total = series_add(total, x)
        square = series_product(total, total)
        for n in range(5):
            partial = polys[0]
            for pk in polys[1 : n + 1]:
                partial = series_add(partial, pk)
            truncated = FracSeries(mu, square.coeffs[: n + 1])
            padded = FracSeries(mu, partial.coeffs[: n + 1])
            assert_series_close(padded, truncated, rtol=1e-12, atol=1e-13)


def test_partial_sums_pointwise_oracle():
    # general inputs: sum_{k<=n} P_k evaluated pointwise must equal the
    # double sum over i+j<=n of x_i(t) x_j(t), computed from raw evaluations
    rng = np.random.default_rng(37)
    for _ in range(25):
        mu = rng.uniform(0.1, 1.0)
        terms = [random_frac_series(rng, mu, int(rng.integers(1, 5))) for _ in range(4)]
        polys = adomian_delayed_product(terms, 1.0)
        for t in rng.uniform(0.0, 1.5, size=5):
            values = [eval_series(x, t) for x in terms]
            for n in range(4):
                lhs = sum(eval_series(pk, t) for pk in polys[: n + 1])
                rhs = sum(
                    values[i] * values[j]
                    for i in range(n + 1)
                    for j in range(n + 1 - i)
                )
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_degree_bound():
    rng = np.random.default_rng(41)
    lengths = [3, 1, 4, 2]
    terms = [random_frac_series(rng, 0.5, n) for n in lengths]
    polys = adomian_delayed_product(terms, 0.7)
    for n, poly in enumerate(polys):
        bound = max(lengths[i] + lengths[n - i] - 1 for i in range(n + 1))
        assert len(poly.coeffs) <= bound


def test_p0_independent_of_lambda():
    x0 = FracSeries(0.5, (2.5,))
    rng = np.random.default_rng(43)
    extra = random_frac_series(rng, 0.5, 3)
    reference = adomian_delayed_product([x0, extra], 1.0)[0]
    for lam in (0.0, 0.3, 0.8):
        p0 = adomian_delayed_product([x0, extra], lam)[0]
        assert p0.coeffs == reference.coeffs


def test_delayed_polynomials_depend_on_lambda_in_general_mode():
    rng = np.random.default_rng(47)
    terms = [FracSeries(0.5, (2.0,)), random_frac_series(rng, 0.5, 3)]
    a = adomian_delayed_product(terms, 1.0)[1]
    b = adomian_delayed_product(terms, 0.4)[1]
    assert a.coeffs != b.coeffs


def test_validation():
    with pytest.raises(ValueError, match="nonempty"):
        adomian_delayed_product([], 0.5)
    with pytest.raises(ValueError, match="lambda"):
        adomian_delayed_product([FracSeries(0.5, (1.0,))], 1.5)
    with pytest.raises(ValueError, match="mismatch"):
        adomian_delayed_product(
            [FracSeries(0.5, (1.0,)), FracSeries(0.7, (1.0,))], 0.5
        )
