import itertools
import math
import warnings

import numpy as np
import pytest

from fraclogistic import (
    ConvergenceError,
    FracSeries,
    ModelParams,
    eval_series,
    gamma_fn,
    geometric_closed_form,
    geometric_gap,
    hsv_evaluate,
    hsv_iterate,
    psi_kernel,
)
from fraclogistic import classical_exact
from helpers import assert_series_close, reference_hsv_iterate

BASE = ModelParams(r=0.5, k=100.0, z0=10.0, mu=0.6, lam=1.0)


def expected_x1(p):
    pre = p.r * p.z0 / p.b_norm * (1.0 - p.z0 / p.k)
    return FracSeries(p.mu, (pre * (1.0 - p.mu), pre * p.mu / gamma_fn(p.mu + 1.0)))


def expected_x2(p):
    pre = p.z0 * (p.r / p.b_norm) ** 2 * (1.0 - p.z0 / p.k) * (1.0 - 2.0 * p.z0 / p.k)
    mu = p.mu
    return FracSeries(
        mu,
        (
            pre * (1.0 - mu) ** 2,
            pre * 2.0 * (1.0 - mu) * mu / gamma_fn(mu + 1.0),
            pre * mu ** 2 / gamma_fn(2.0 * mu + 1.0),
        ),
    )


@pytest.mark.parametrize("mu", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("mode", ["square", "general"])
def test_first_terms_match_closed_coefficients(mu, mode):
    p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=mu, lam=1.0)
    sol = hsv_iterate(p, 2, mode)
    assert sol.terms[0].coeffs == (p.z0,)
    assert_series_close(sol.terms[1], expected_x1(p), rtol=1e-12)
    assert_series_close(sol.terms[2], expected_x2(p), rtol=1e-12)


def test_exact_x2_differs_from_kernel_square_surrogate():
    # the kernel-power surrogate replaces 1/Gamma(2 mu + 1) by
    # 1/Gamma(mu + 1)^2 in the top coefficient; the two agree only in the
    # classical-limit direction, never on (0, 1)
    p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=0.6, lam=1.0)
    exact_top = expected_x2(p).coeffs[2]
    surrogate_top = exact_top * gamma_fn(2 * p.mu + 1.0) / gamma_fn(p.mu + 1.0) ** 2
    assert abs(surrogate_top - exact_top) / abs(exact_top) > 0.1


def test_classical_limit_matches_taylor_polynomial():
    sympy = pytest.importorskip("sympy")
    p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=1.0, lam=1.0)
    t = sympy.symbols("t")
    expr = p.z0 * p.k / (p.z0 + (p.k - p.z0) * sympy.exp(-sympy.Rational(1, 2) * t))
    taylor = [
        float(sympy.diff(expr, t, i).subs(t, 0) / sympy.factorial(i)) for i in range(4)
    ]
    sol = hsv_iterate(p, 3, "general")
    partial = [0.0] * 4
    for term in sol.terms:
        for i, c in enumerate(term.coeffs):
            partial[i] += c
    np.testing.assert_allclose(partial, taylor, rtol=1e-10)


def test_term_lengths_bounded():
    sol = hsv_iterate(BASE, 6, "general")
    for i, term in enumerate(sol.terms):
        assert len(term.coeffs) <= i + 1
    assert sol.truncation == 6


def test_evaluate_at_zero():
    p1 = ModelParams(r=0.5, k=100.0, z0=10.0, mu=1.0, lam=1.0)
    sol = hsv_iterate(p1, 5, "general")
    assert hsv_evaluate(sol, 0.0).value == p1.z0
    # for mu < 1 the constant parts of the corrections shift the t = 0 value
    sol6 = hsv_iterate(BASE, 5, "general")
    assert hsv_evaluate(sol6, 0.0).value != BASE.z0


def test_zero_growth_rate_is_flat():
    p = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.7, lam=0.5)
    sol = hsv_iterate(p, 5, "general")
    for t in (0.0, 1.0, 5.0):
        out = hsv_evaluate(sol, t)
        assert out.value == p.z0
        assert out.last_term == 0.0


def test_equilibrium_start_is_flat():
    p = ModelParams(r=0.4, k=100.0, z0=100.0, mu=0.6, lam=0.3)
    for mode in ("general", "square"):
        sol = hsv_iterate(p, 5, mode)
        for t in (0.0, 2.0, 8.0):
            assert hsv_evaluate(sol, t).value == p.z0


def test_first_order_taylor_at_classical_order():
    p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=1.0, lam=1.0)
    sol = hsv_iterate(p, 1, "general")
    slope = p.r * p.z0 * (1.0 - p.z0 / p.k)
    for t in (0.0, 0.5, 1.0):
        assert hsv_evaluate(sol, t).value == pytest.approx(p.z0 + slope * t, rel=1e-14)


def test_truncation_decay_where_ratio_small():
    # individual terms can cross zero at larger ratios, so the strict
    # termwise decay is asserted where |q| <= 0.3
    for mu, t_max in ((0.9, 4.0), (0.5, 1.0)):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=mu, lam=1.0)
        sol = hsv_iterate(p, 8, "general")
        for t in np.linspace(0.0, t_max, 33):
            assert abs(geometric_closed_form(p, t).ratio) < 0.5
            mags = [abs(v) for v in sol.term_values(t)[1:]]
            assert all(b < a for a, b in zip(mags, mags[1:]))


def test_delay_changes_general_mode_only():
    fast = hsv_iterate(
        ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=1.0), 4, "general"
    )
    slow = hsv_iterate(
        ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=0.3), 4, "general"
    )
    assert fast.terms[2].coeffs != slow.terms[2].coeffs
    sq_fast = hsv_iterate(
        ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=1.0), 4, "square"
    )
    sq_slow = hsv_iterate(
        ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=0.3), 4, "square"
    )
    assert sq_fast.terms[2].coeffs == sq_slow.terms[2].coeffs


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_square_mode_is_the_unit_delay(lam):
    square = hsv_iterate(ModelParams(r=0.4, k=100.0, z0=10.0, mu=0.7, lam=lam), 12, "square")
    unit = hsv_iterate(ModelParams(r=0.4, k=100.0, z0=10.0, mu=0.7, lam=1.0), 12, "general")
    np.testing.assert_array_equal(square.coeffs, unit.coeffs)


def test_iterate_validation():
    with pytest.raises(ValueError):
        hsv_iterate(BASE, 0)
    with pytest.raises(ValueError):
        hsv_iterate(BASE, 3, mode="bogus")


def test_truncation_order_limits():
    small_mu = ModelParams(r=0.5, k=100.0, z0=10.0, mu=0.05, lam=0.5)
    assert hsv_iterate(small_mu, 200).truncation == 200
    with pytest.raises(ValueError, match="at most 200"):
        hsv_iterate(small_mu, 201)
    # Gamma(n*mu + 1) overflows once n*mu passes about 170
    classical = ModelParams(r=0.5, k=100.0, z0=10.0, mu=1.0, lam=1.0)
    assert hsv_iterate(classical, 170).truncation == 170
    with pytest.raises(ValueError, match="overflows"):
        hsv_iterate(classical, 175)


def _assert_matches_reference(p, n, mode):
    got = [term.coeffs for term in hsv_iterate(p, n, mode).terms]
    want = [term.coeffs for term in reference_hsv_iterate(p, n, mode)]
    assert got == want


@pytest.mark.parametrize("mode", ["general", "square"])
@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.9, 1.0])
def test_terms_match_reference_exactly(mu, mode):
    # same floating-point operations in the same order: equality, not closeness
    for lam, r, z0 in itertools.product((0.0, 0.37, 1.0), (0.1, -0.7, 2.0), (10.0, 150.0)):
        p = ModelParams(r=r, k=100.0, z0=z0, mu=mu, lam=lam)
        for n in (1, 2, 10):
            _assert_matches_reference(p, n, mode)


@pytest.mark.parametrize(
    ("mu", "lam", "mode", "r", "z0"),
    [(0.05, 0.37, "general", 2.0, 150.0), (0.5, 0.0, "general", -0.7, 10.0),
     (0.9, 0.37, "square", 0.1, 150.0), (1.0, 1.0, "general", 2.0, 10.0)],
)
def test_long_run_matches_reference_exactly(mu, lam, mode, r, z0):
    _assert_matches_reference(ModelParams(r=r, k=100.0, z0=z0, mu=mu, lam=lam), 30, mode)


def test_overflowing_coefficients_raise():
    p = ModelParams(r=1e200, k=100.0, z0=10.0, mu=0.5, lam=0.5)
    with pytest.raises(ValueError):
        reference_hsv_iterate(p, 3)
    with pytest.raises(ValueError, match="non-finite"):
        hsv_iterate(p, 3)


def _termwise(sol, t):
    """Partial sum and last term from eval_series over the FracSeries terms."""
    values = [eval_series(x, t) for x in sol.terms]
    return sum(values), abs(values[-1])


@pytest.mark.parametrize("mode", ["general", "square"])
@pytest.mark.parametrize("mu", [0.3, 0.7, 0.9, 1.0])
def test_array_evaluation_matches_scalar_and_termwise_exactly(mu, mode):
    p = ModelParams(r=0.8, k=100.0, z0=10.0, mu=mu, lam=0.37)
    sol = hsv_iterate(p, 30, mode)
    ts = np.concatenate([np.linspace(0.0, 10.0, 101), [1e-300, 0.3, 1e3, 1e300]])
    out = hsv_evaluate(sol, ts)
    assert out.value.shape == out.last_term.shape == ts.shape
    termwise = np.array([_termwise(sol, t) for t in ts.tolist()])
    scalar = np.array([tuple(hsv_evaluate(sol, t)) for t in ts.tolist()])
    # equal bit for bit; the overflowing points are nan in every route
    np.testing.assert_array_equal(out.value, termwise[:, 0])
    np.testing.assert_array_equal(out.last_term, termwise[:, 1])
    np.testing.assert_array_equal(scalar, termwise)
    assert np.isnan(out.value[-1])
    for term, row in zip(sol.terms, sol.term_values(ts)):
        np.testing.assert_array_equal(row, [eval_series(term, t) for t in ts.tolist()])


@pytest.mark.parametrize("bad", [[0.0, -1.0], [1.0, np.nan], [np.inf], -1e-9])
def test_negative_or_non_finite_times_raise(bad):
    sol = hsv_iterate(BASE, 4)
    with pytest.raises(ValueError, match="finite t >= 0"):
        hsv_evaluate(sol, np.array(bad))


def test_divergent_evaluation_is_silent():
    sol = hsv_iterate(ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.9, lam=0.5), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hsv_evaluate(sol, np.array([1e200, 1e300]))
        scalar = hsv_evaluate(sol, 1e300)
        values = sol.term_values(1e300)
    assert not np.isfinite(out.value).any()
    assert not np.isfinite(scalar.value) and not np.isfinite(values).all()


def test_tiny_coefficients_are_kept():
    # x_120 has a coefficient near 1.5e-303 on t^60; at t = 1e5 that is
    # 1.5e-3, a tenth of the term, so it must not be trimmed
    p = ModelParams(r=0.01, k=100.0, z0=10.0, mu=0.5, lam=1.0)
    sol = hsv_iterate(p, 200)
    t = 1e5
    term = sol.terms[120]
    assert len(term.coeffs) == 121
    exact = math.fsum(c * t ** (k * p.mu) for k, c in enumerate(sol.coeffs[120, :121]))
    assert eval_series(term, t) == pytest.approx(exact, rel=1e-12)
    assert sol.term_values(t)[120] == eval_series(term, t)


def test_solution_is_read_only():
    sol = hsv_iterate(BASE, 3)
    assert sol.coeffs.shape == (4, 4)
    with pytest.raises(ValueError):
        sol.coeffs[1, 0] = 1.0


class TestGeometricForm:
    def test_ratio_zero_cases(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        out = geometric_closed_form(p, 0.0)
        assert out.value == p.z0 and out.ratio == 0.0
        eq = ModelParams(r=0.7, k=100.0, z0=100.0, mu=0.5, lam=1.0)
        for t in (0.0, 3.0, 10.0):
            assert geometric_closed_form(eq, t).value == eq.z0

    def test_hand_arithmetic_point(self):
        # q = 0.1 * 0.9 * psi(t); psi = t at mu = 1, so t = 0.1 gives
        # q = 0.009 and z = 10 / 0.991
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        out = geometric_closed_form(p, 0.1)
        assert out.ratio == pytest.approx(0.009, rel=1e-14)
        assert out.value == pytest.approx(10.0 / 0.991, rel=1e-14)
        assert out.value == pytest.approx(classical_exact(p, 0.1), rel=1e-3)

    def test_matches_explicit_geometric_partial_sum(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        for t in (0.1, 1.0, 3.0):
            out = geometric_closed_form(p, t)
            assert abs(out.ratio) < 0.5
            partial = sum(p.z0 * out.ratio ** i for i in range(31))
            assert out.value == pytest.approx(partial, rel=1e-9)

    def test_first_order_agreement_with_series(self):
        # surrogate and exact series share z0 + z0*q; they drift apart at
        # order q^2 (the exact terms carry factorial-type denominators)
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        sol = hsv_iterate(p, 12, "general")
        for t in (0.01, 0.05, 0.2, 0.5):
            q = geometric_closed_form(p, t).ratio
            gap = geometric_gap(sol, t)
            assert gap <= 2.0 * p.z0 * q ** 2

    def test_divergence_error_carries_ratio(self):
        p = ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            geometric_closed_form(p, 10.0)
        assert abs(excinfo.value.ratio) >= 1.0

    def test_kernel_value(self):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        assert psi_kernel(p, 2.0) == pytest.approx(2.0, rel=1e-15)
        p2 = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=1.0)
        assert psi_kernel(p2, 0.0) == 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, [0.5, math.nan]])
    def test_bad_times_raise(self, bad):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        for evaluate in (psi_kernel, geometric_closed_form, classical_exact):
            with pytest.raises(ValueError, match="finite t >= 0") as excinfo:
                evaluate(p, bad)
            assert not isinstance(excinfo.value, ConvergenceError)

    def test_grid_matches_points(self):
        p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=0.7, lam=0.5)
        ts = np.linspace(0.0, 3.0, 41)
        grid = geometric_closed_form(p, ts)
        points = [geometric_closed_form(p, t) for t in ts.tolist()]
        assert all(isinstance(f.value, float) and isinstance(f.ratio, float) for f in points)
        np.testing.assert_array_equal(grid.value, [f.value for f in points])
        np.testing.assert_array_equal(grid.ratio, [f.ratio for f in points])
        np.testing.assert_array_equal(psi_kernel(p, ts), [psi_kernel(p, t) for t in ts.tolist()])
        sol = hsv_iterate(p, 8)
        np.testing.assert_array_equal(geometric_gap(sol, ts),
                                      [geometric_gap(sol, t) for t in ts.tolist()])

    def test_grid_reports_first_divergent_time(self):
        p = ModelParams(r=2.0, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        ts = np.linspace(0.0, 50.0, 101)
        for t in ts.tolist():
            try:
                geometric_closed_form(p, t)
            except ConvergenceError as exc:
                first, point = t, exc
                break
        with pytest.raises(ConvergenceError) as excinfo:
            geometric_closed_form(p, ts)
        assert str(excinfo.value) == str(point)
        assert f"at t = {first};" in str(point)
        assert excinfo.value.ratio == point.ratio
