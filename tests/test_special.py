import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import erfcx
from scipy.special import gamma as scipy_gamma

from fraclogistic import ConvergenceError, gamma_fn, mittag_leffler
from fraclogistic import special
from fraclogistic.special import time_powers


def test_gamma_integers():
    assert gamma_fn(1.0) == 1.0
    # evaluated through exp(lgamma), so integer values land within the
    # 12-significant-digit contract rather than exactly
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)


def test_gamma_half_matches_sqrt_pi():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gamma_twelve_digits_on_grid():
    xs = np.linspace(0.05, 50.0, 237)
    got = np.array([gamma_fn(x) for x in xs])
    np.testing.assert_allclose(got, scipy_gamma(xs), rtol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_gamma_domain(bad):
    with pytest.raises(ValueError):
        gamma_fn(bad)


def test_ml_at_zero_is_one():
    for mu in (0.1, 0.3, 0.7, 1.0):
        assert mittag_leffler(mu, 0.0) == 1.0


def test_ml_order_one_is_exp():
    ts = np.linspace(-10.0, 10.0, 100)
    for t in ts:
        assert mittag_leffler(1.0, t) == pytest.approx(math.exp(t), rel=1e-10)
    # far out on the negative axis too, not collapsed to 0
    assert mittag_leffler(1.0, -60.0) == math.exp(-60.0)


def test_ml_half_erfc_identity():
    # E_{1/2}(x) = exp(x^2) erfc(-x) = erfcx(-x)
    for x in np.linspace(0.0, 3.0, 31):
        assert mittag_leffler(0.5, x) == pytest.approx(erfcx(-x), rel=1e-10)


def test_ml_half_negative_erfc_identity():
    # negative arguments take the contour route
    for x in (0.5, 2.0, 10.0, 30.0, 49.0):
        assert mittag_leffler(0.5, -x) == pytest.approx(erfcx(x), rel=1e-9)


def test_ml_monotone_increasing_positive_axis():
    # E_mu(t) ~ exp(t^(1/mu))/mu for t > 0, so cap each grid below the
    # argument where the value leaves the double range
    for mu in (0.2, 0.5, 0.8, 1.0):
        t_max = 0.8 * 709.0 ** mu
        values = mittag_leffler(mu, np.linspace(0.0, min(t_max, 30.0), 121))
        assert all(b > a for a, b in zip(values, values[1:]))


def test_ml_negative_axis_completely_monotone_bounds():
    xs = np.linspace(0.0, 40.0, 81)
    for mu in (0.1, 0.3, 0.5, 0.75, 0.9):
        values = mittag_leffler(mu, -xs)
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))


def _ml_oracle(mu, x):
    """``E_mu(x)`` at 30 digits: the series for x > 0, where every term is
    positive; for x < 0 the Talbot inversion of ``s^(mu-1) / (s^mu - x)``.
    There the series cancels too much at x = -200 for mu <= 0.7, and
    ``mpmath.quad`` of the spectral integral is unreliable at small mu."""
    with mpmath.workdps(30):
        m, xm = mpmath.mpf(mu), mpmath.mpf(x)
        if x < 0:
            value = mpmath.invertlaplace(
                lambda s: s ** (m - 1) / (s ** m - xm), 1, method="talbot")
            return float(value)
        total, prev, n = mpmath.mpf(0), mpmath.inf, 0
        while True:
            term = xm ** n * mpmath.rgamma(n * m + 1)
            total += term
            if term < prev and term < mpmath.mpf(10) ** -32 * total:
                return float(total)
            prev, n = term, n + 1


# -50.1 and -49.9 sit close on both sides of -50 so that a jump there
# (a switch to the leading asymptotic term) cannot pass unseen
ORACLE_NEGATIVE_ARGS = (-200.0, -120.0, -50.1, -49.9, -20.0, -5.0, -1.0, -0.01)


@pytest.mark.parametrize(
    ("mu", "args"),
    [pytest.param(mu, ORACLE_NEGATIVE_ARGS, id=f"{mu}-negative")
     for mu in (0.05, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99, 1.0 - 1e-6)]
    + [pytest.param(0.7, (5.0,), id="0.7-positive"),
       pytest.param(0.4, (12.0,), id="0.4-positive")],
)
def test_ml_against_oracle(mu, args):
    # near mu = 1 the value on [-200, -20] is ~1e-8, so the absolute floor
    # matters there; the absolute error stays below 1e-16
    for x in args:
        reference = _ml_oracle(mu, x)
        assert abs(mittag_leffler(mu, x) - reference) <= 1e-10 * abs(reference) + 1e-16


def test_ml_tiny_negative_arguments_stay_at_most_one():
    assert mittag_leffler(0.5, -1e-300) <= 1.0
    assert mittag_leffler(0.9, -1e-15) <= 1.0


def test_ml_unconverged_series_raises_convergence_error():
    # for small orders just above 1 the terms peak past the term budget
    with pytest.raises(ConvergenceError) as excinfo:
        mittag_leffler(0.002, 1.01)
    assert excinfo.value.ratio == 1.01


def test_ml_huge_positive_reports_inf():
    assert mittag_leffler(0.5, 50.0) == math.inf
    assert mittag_leffler(1.0, 710.0) == math.inf


@pytest.mark.parametrize("mu", [0.0, -0.3, 1.2, math.nan])
def test_ml_order_domain(mu):
    with pytest.raises(ValueError):
        mittag_leffler(mu, 1.0)


@pytest.mark.parametrize("arg", [math.inf, -math.inf, math.nan])
def test_ml_argument_domain(arg):
    with pytest.raises(ValueError):
        mittag_leffler(0.5, arg)


# Mixed signs around 0 on every route, including arguments whose values
# overflow (E_0.5(50) and beyond) and the tiny ones near the cap at 1.
MIXED_ARGS = np.concatenate((np.linspace(-200.0, 60.0, 261), [0.0, -0.0, 1e-300, -1e-300,
                                                               -1e-15, 709.0, 710.0]))


@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.9, 0.99, 1.0])
def test_ml_array_matches_scalar_exactly(mu):
    values = mittag_leffler(mu, MIXED_ARGS)
    assert isinstance(values, np.ndarray) and values.shape == MIXED_ARGS.shape
    expected = [mittag_leffler(mu, x) for x in MIXED_ARGS.tolist()]
    assert values.tolist() == expected
    assert math.inf in expected
    # any order and any company give the same values
    order = np.random.default_rng(0).permutation(len(MIXED_ARGS))
    assert mittag_leffler(mu, MIXED_ARGS[order]).tolist() == values[order].tolist()


# More than _CELLS // _BLOCK = 1024 positive arguments: the series is summed
# one term at a time across all of them until few enough are left for blocks
# of _BLOCK terms.  Tiny, moderate and overflowing arguments, in one array.
WIDE_ARGS = np.concatenate((np.geomspace(1e-300, 1.0, 1500), np.linspace(0.0, 710.0, 1501)[1:]))


@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.9, 0.99])
def test_ml_wide_array_matches_scalar_exactly(mu):
    values = mittag_leffler(mu, WIDE_ARGS)
    # scalars take the blocks from their first term
    expected = [mittag_leffler(mu, x) for x in WIDE_ARGS.tolist()]
    assert values.tolist() == expected
    assert math.inf in expected
    order = np.random.default_rng(1).permutation(len(WIDE_ARGS))
    assert mittag_leffler(mu, WIDE_ARGS[order]).tolist() == values[order].tolist()


def test_ml_zero_dimensional_input_returns_float():
    for mu, x in ((0.5, 1.0), (0.5, -1.0), (1.0, 2.0), (0.7, 0.0)):
        value = mittag_leffler(mu, np.float64(x))
        assert type(value) is float
        assert type(mittag_leffler(mu, np.array(x))) is float
        assert value == mittag_leffler(mu, np.array([x]))[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ml_array_with_one_non_finite_element_raises(bad):
    args = np.linspace(-5.0, 5.0, 11)
    args[7] = bad
    with pytest.raises(ValueError):
        mittag_leffler(0.5, args)


def test_ml_array_rejects_two_dimensional_input():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, np.ones((2, 2)))


def test_ml_unconverged_series_in_array_raises_with_offending_argument():
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as excinfo:
        mittag_leffler(0.002, np.array([-1.0, 0.0, 0.5, 1.01, 1.005]))
    assert excinfo.value.ratio == 1.01
    # the 100000 terms are summed in blocks, not one numpy call per term
    assert time.perf_counter() - start < 1.0


def test_ml_unconverged_series_in_wide_array_raises_with_offending_argument():
    # the points below 1 leave the one-term rows, the one above 1 runs out
    # of terms in the blocks
    args = np.insert(np.linspace(0.0005, 0.9995, 2000), 700, 1.01)
    with pytest.raises(ConvergenceError) as excinfo:
        mittag_leffler(0.002, args)
    assert excinfo.value.ratio == 1.01


def test_ml_terms_run_out_in_the_one_term_rows(monkeypatch):
    # more than 1024 points never converge, so the rows reach the term
    # budget; the point that converged first is not the one named
    monkeypatch.setattr(special, "_MAX_TERMS", 2000)
    args = np.insert(np.full(1100, 1.01), 0, 0.5)
    with pytest.raises(ConvergenceError, match="in 2000 terms at argument 1.01") as excinfo:
        mittag_leffler(0.002, args)
    assert excinfo.value.ratio == 1.01


@pytest.mark.parametrize("evaluate, lo", [(lambda x: time_powers(x, 0.7), 0.0),
                                          (lambda x: mittag_leffler(1.0, x), -5.0)],
                         ids=["pow", "exp"])
def test_per_point_libm_keeps_no_list_of_results(evaluate, lo):
    # the per-point results go straight into the array: about 40 bytes a
    # point at the peak, against 64 with a list of Python floats in between
    n = 200_000
    args = np.linspace(lo, 5.0, n)
    evaluate(args)
    tracemalloc.start()
    try:
        evaluate(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * n
