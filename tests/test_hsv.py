import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fraclogistic import (
    ConvergenceError,
    ModelParams,
    gamma_fn,
    geometric_closed_form,
    hsv_evaluate,
    hsv_iterate,
)
from fraclogistic import abc_exact_lambda0, classical_exact
from fraclogistic.hsv import _MAX_WORK
from fraclogistic.series import FracSeries, eval_series
from helpers import assert_series_close, reference_hsv_iterate

BASE = ModelParams(r=0.5, k=100.0, z0=10.0, mu=0.6, lam=1.0)

# Delay cases, named as the CLI's --mode spells them: "square" is the
# undelayed product, lam = 1; "general" keeps a delay lam < 1.
DELAYS = pytest.mark.parametrize("lam", [0.37, 1.0], ids=["general", "square"])


def expected_x1(p):
    pre = p.r * p.z0 / p.b_norm * (1.0 - p.z0 / p.k)
    return FracSeries(p.mu, (pre * (1.0 - p.mu), pre * p.mu / gamma_fn(p.mu + 1.0)))


def expected_x2(p):
    # P_1 = z0 (x_1(t) + x_1(lam t)): the delay scales the t^mu part by lam^mu
    pre = p.z0 * (p.r / p.b_norm) ** 2 * (1.0 - p.z0 / p.k)
    mu = p.mu
    c0 = pre * (1.0 - mu) * (1.0 - 2.0 * p.z0 / p.k)
    c1 = pre * mu * (1.0 - (1.0 + p.lam ** mu) * p.z0 / p.k)
    return FracSeries(
        mu,
        (
            c0 * (1.0 - mu),
            (c0 * mu + c1 * (1.0 - mu)) / gamma_fn(mu + 1.0),
            c1 * mu / gamma_fn(2.0 * mu + 1.0),
        ),
    )


@pytest.mark.parametrize("mu", [0.3, 0.6, 0.9])
@DELAYS
def test_first_terms_match_closed_coefficients(mu, lam):
    p = ModelParams(r=0.5, k=100.0, z0=10.0, mu=mu, lam=lam)
    x0, x1, x2 = (FracSeries(p.mu, row) for row in hsv_iterate(p, 2).terms)
    assert x0.coeffs == (p.z0,)
    assert_series_close(x1, expected_x1(p), rtol=1e-12)
    assert_series_close(x2, expected_x2(p), rtol=1e-12)


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
    sol = hsv_iterate(p, 3)
    partial = [0.0] * 4
    for row in sol.terms:
        for i, c in enumerate(FracSeries(p.mu, row).coeffs):
            partial[i] += c
    np.testing.assert_allclose(partial, taylor, rtol=1e-10)


def test_term_lengths_bounded():
    sol = hsv_iterate(BASE, 6)
    for i, row in enumerate(sol.terms):
        assert not row[i + 1:].any()
    assert sol.truncation == 6


def test_evaluate_at_zero():
    p1 = ModelParams(r=0.5, k=100.0, z0=10.0, mu=1.0, lam=1.0)
    sol = hsv_iterate(p1, 5)
    assert hsv_evaluate(sol, 0.0).value == p1.z0
    # for mu < 1 the constant parts of the corrections shift the t = 0 value
    sol6 = hsv_iterate(BASE, 5)
    assert hsv_evaluate(sol6, 0.0).value != BASE.z0


def test_zero_growth_rate_is_flat():
    p = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.7, lam=0.5)
    sol = hsv_iterate(p, 5)
    for t in (0.0, 1.0, 5.0):
        out = hsv_evaluate(sol, t)
        assert out.value == p.z0
        assert out.last_term == 0.0


def test_equilibrium_start_is_flat():
    for lam in (0.3, 1.0):
        p = ModelParams(r=0.4, k=100.0, z0=100.0, mu=0.6, lam=lam)
        sol = hsv_iterate(p, 5)
        for t in (0.0, 2.0, 8.0):
            assert hsv_evaluate(sol, t).value == p.z0


def test_first_order_taylor_at_classical_order():
    p = ModelParams(r=0.3, k=100.0, z0=10.0, mu=1.0, lam=1.0)
    sol = hsv_iterate(p, 1)
    slope = p.r * p.z0 * (1.0 - p.z0 / p.k)
    for t in (0.0, 0.5, 1.0):
        assert hsv_evaluate(sol, t).value == pytest.approx(p.z0 + slope * t, rel=1e-14)


def test_truncation_decay_where_ratio_small():
    # individual terms can cross zero at larger ratios, so the strict
    # termwise decay is asserted where |q| <= 0.3
    for mu, t_max in ((0.9, 4.0), (0.5, 1.0)):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=mu, lam=1.0)
        sol = hsv_iterate(p, 8)
        for t in np.linspace(0.0, t_max, 33):
            assert abs(geometric_closed_form(p, t).ratio) < 0.5
            mags = [abs(v) for v in sol.term_values(t)[1:]]
            assert all(b < a for a, b in zip(mags, mags[1:]))


@pytest.mark.parametrize("mu", [0.5, 0.7, 0.9, 1.0])
def test_lambda_zero_series_meets_closed_form(mu):
    # at lam = 0 the series feeds back the datum z0, as the closed form does;
    # feeding back its own t = 0 value missed by up to 6.7e-4 at mu = 0.5
    p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=mu, lam=0.0)
    ts = np.linspace(0.0, 2.0, 41)
    value = hsv_evaluate(hsv_iterate(p, 40), ts).value
    np.testing.assert_allclose(value, abc_exact_lambda0(p, ts), rtol=1e-13, atol=0.0)


def test_delay_changes_general_mode_only():
    fast = hsv_iterate(ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=1.0), 4)
    slow = hsv_iterate(ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=0.3), 4)
    assert (fast.terms[2] != slow.terms[2]).any()


def test_iterate_validation():
    with pytest.raises(ValueError):
        hsv_iterate(BASE, 0)


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


def test_stack_work_limit(monkeypatch):
    # the documented stacks fit; the 9901-set sweep at n = 200 (about 2 h) does not
    assert 90 * 201 ** 3 == _MAX_WORK >= max(1001 * 90 ** 3, 1001 * 61 ** 3, 21 * 201 ** 3)
    assert 9901 * 201 ** 3 > _MAX_WORK
    gammas = []
    monkeypatch.setattr("fraclogistic.hsv.gamma_fn",
                        lambda x: gammas.append(x) or math.gamma(x))
    monkeypatch.setattr("fraclogistic.hsv._MAX_WORK", 3 * 11 ** 3)
    sets = [replace(BASE, lam=lam) for lam in (0.0, 0.25, 0.5, 0.75)]
    assert hsv_iterate(sets[:3], 10).coeffs.shape == (3, 11, 11)
    gammas.clear()
    with pytest.raises(ValueError, match=r"a stack of 4 sets at n_terms = 10 is too large"):
        hsv_iterate(sets, 10)
    assert gammas == []  # refused before any Gamma table


def _assert_matches_reference(p, n):
    got = [FracSeries(p.mu, row).coeffs for row in hsv_iterate(p, n).terms]
    want = [term.coeffs for term in reference_hsv_iterate(p, n)]
    assert got == want


@pytest.mark.parametrize("lams", [(0.0, 0.37), (1.0,)], ids=["general", "square"])
@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.9, 1.0])
def test_terms_match_reference_exactly(mu, lams):
    # same floating-point operations in the same order: equality, not closeness
    for lam, r, z0 in itertools.product(lams, (0.1, -0.7, 2.0), (10.0, 150.0)):
        p = ModelParams(r=r, k=100.0, z0=z0, mu=mu, lam=lam)
        for n in (1, 2, 10):
            _assert_matches_reference(p, n)


@pytest.mark.parametrize(
    ("mu", "lam", "r", "z0"),
    [(0.05, 0.37, 2.0, 150.0), (0.5, 0.0, -0.7, 10.0), (0.9, 1.0, 0.1, 150.0),
     (1.0, 1.0, 2.0, 10.0)],
)
def test_long_run_matches_reference_exactly(mu, lam, r, z0):
    _assert_matches_reference(ModelParams(r=r, k=100.0, z0=z0, mu=mu, lam=lam), 30)


def test_overflowing_coefficients_raise():
    p = ModelParams(r=1e200, k=100.0, z0=10.0, mu=0.5, lam=0.5)
    with pytest.raises(ValueError):
        reference_hsv_iterate(p, 3)
    with pytest.raises(ValueError, match="non-finite"):
        hsv_iterate(p, 3)


def _termwise(sol, t):
    """Partial sum and last term from eval_series over the terms as FracSeries."""
    values = [eval_series(FracSeries(sol.params.mu, row), t) for row in sol.terms]
    return sum(values), abs(values[-1])


@DELAYS
@pytest.mark.parametrize("mu", [0.3, 0.7, 0.9, 1.0])
def test_array_evaluation_matches_scalar_and_termwise_exactly(mu, lam):
    p = ModelParams(r=0.8, k=100.0, z0=10.0, mu=mu, lam=lam)
    sol = hsv_iterate(p, 30)
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
        term = FracSeries(mu, term)
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
    term = FracSeries(p.mu, sol.terms[120])
    assert len(term.coeffs) == 121
    exact = math.fsum(c * t ** (k * p.mu) for k, c in enumerate(sol.coeffs[120, :121]))
    assert eval_series(term, t) == pytest.approx(exact, rel=1e-12)
    assert sol.term_values(t)[120] == eval_series(term, t)


def test_solution_is_read_only():
    sol = hsv_iterate(BASE, 3)
    assert sol.coeffs.shape == (4, 4)
    with pytest.raises(ValueError):
        sol.coeffs[1, 0] = 1.0


def test_terms_are_a_read_only_view_of_the_coefficients():
    n = 30
    sets = [replace(BASE, mu=mu, lam=lam) for mu in (0.5, 0.9, 1.0) for lam in (0.0, 0.5, 1.0)]
    stack = hsv_iterate(sets, n)
    terms = stack.terms
    assert terms.shape == (len(sets) * (n + 1), n + 1)
    assert np.shares_memory(terms, stack.coeffs)
    assert terms.tobytes() == stack.coeffs.tobytes()
    with pytest.raises(ValueError):
        terms[1, 0] = 1.0
    rows = iter(terms)
    for p in sets:
        for want in reference_hsv_iterate(p, n):
            assert FracSeries(p.mu, next(rows)) == want


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
        sol = hsv_iterate(p, 12)
        for t in (0.01, 0.05, 0.2, 0.5):
            q = geometric_closed_form(p, t).ratio
            gap = abs(hsv_evaluate(sol, t).value - geometric_closed_form(p, t).value)
            assert gap <= 2.0 * p.z0 * q ** 2

    def test_divergence_error_carries_ratio(self):
        p = ModelParams(r=5.0, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            geometric_closed_form(p, 10.0)
        assert abs(excinfo.value.ratio) >= 1.0

    def test_overflowing_ratio_diverges_without_warning(self):
        # q overflows to inf at t = 10; a grid still reports its first
        # divergent point, t = 0, with no warning from the later overflow
        p = ModelParams(r=1e308, k=100.0, z0=10.0, mu=0.5, lam=1.0)
        with pytest.raises(ConvergenceError, match="= inf >= 1 at t = 10.0;") as excinfo:
            geometric_closed_form(p, 10.0)
        assert excinfo.value.ratio == math.inf
        with pytest.raises(ConvergenceError, match=r"at t = 0\.0;") as excinfo:
            geometric_closed_form(p, [0.0, 10.0])
        assert 1.0 <= excinfo.value.ratio < math.inf
        # with B = 1e-13 and mu = 1, r/B is inf and psi(0) = 0: q = inf * 0 = nan
        p = ModelParams(r=1e300, k=100.0, z0=10.0, mu=1.0, lam=1.0, b_norm=1e-13)
        with pytest.raises(ConvergenceError, match=r"\|q\| = nan >= 1 at t = 0\.0;") as excinfo:
            geometric_closed_form(p, 0.0)
        assert math.isnan(excinfo.value.ratio)

    def test_kernel_value(self):
        # the ratio is (r/B)(1 - z0/k) psi with psi = 1 - mu + mu t^mu / Gamma(mu + 1)
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        factor = (p.r / p.b_norm) * (1.0 - p.z0 / p.k)
        assert factor == pytest.approx(0.09, rel=1e-15)
        assert geometric_closed_form(p, 2.0).ratio == pytest.approx(factor * 2.0, rel=1e-15)
        p2 = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.5, lam=1.0)
        assert geometric_closed_form(p2, 0.0).ratio == factor * 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, [0.5, math.nan]])
    def test_bad_times_raise(self, bad):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        for evaluate in (geometric_closed_form, classical_exact):
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


def _cli_sweeps(r, z0):
    """Parameter stacks of the shapes the CLI builds, in sweep order."""
    def p(mu, lam):
        return ModelParams(r=r, k=100.0, z0=z0, mu=mu, lam=lam)

    mus, lams = [0.1 * i for i in range(1, 10)], [0.1 * i for i in range(11)]
    return {"mu": [p(mu, 0.5) for mu in mus],
            "lambda": [p(0.9, lam) for lam in lams],
            "both": [p(mu, lam) for mu in mus for lam in lams[1:]],
            "square": [p(mu, 1.0) for mu in mus]}


def _assert_stack_matches_sets(sets, n, ts):
    """One stacked build and evaluation give each set's own bytes, or its first error."""
    try:
        singles = [hsv_iterate(p, n) for p in sets]
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            hsv_iterate(sets, n)
        assert str(excinfo.value) == str(exc)
        return
    stack = hsv_iterate(sets, n)
    assert stack.params == tuple(sets)
    assert stack.coeffs.shape == (len(sets), n + 1, n + 1) and stack.truncation == n
    assert not stack.coeffs.flags.writeable
    out = hsv_evaluate(stack, ts)
    values = stack.term_values(ts)
    for i, single in enumerate(singles):
        assert stack.coeffs[i].tobytes() == single.coeffs.tobytes()
        one = hsv_evaluate(single, ts)
        assert out.value[i].tobytes() == one.value.tobytes()
        assert out.last_term[i].tobytes() == one.last_term.tobytes()
        assert values[i].tobytes() == single.term_values(ts).tobytes()
    assert len(stack.terms) == len(sets) * (n + 1)


@pytest.mark.parametrize("sweep", ["mu", "lambda", "both", "square"])
def test_stack_matches_each_set_bytewise(sweep):
    ts = np.array([0.0, 1e-300, 0.5, 3.0, 10.0])
    for r, z0 in itertools.product((0.1, -0.7, 2.0), (10.0, 150.0)):
        for n in (1, 2, 10, 30):
            _assert_stack_matches_sets(_cli_sweeps(r, z0)[sweep], n, ts)


def test_stack_of_several_chunks_matches(monkeypatch):
    sets = _cli_sweeps(0.1, 10.0)["both"]
    ts = np.linspace(0.0, 10.0, 12)
    whole = hsv_iterate(sets, 10)
    whole_out = hsv_evaluate(whole, ts)
    # 7 sets a chunk while building (11 x 11 cells a set), 6 while evaluating
    # 11 terms at 12 times
    monkeypatch.setattr("fraclogistic.hsv._CELLS", 7 * 11 * 11)
    chunked = hsv_iterate(sets, 10)
    assert chunked.coeffs.tobytes() == whole.coeffs.tobytes()
    out = hsv_evaluate(chunked, ts)
    assert out.value.tobytes() == whole_out.value.tobytes()
    assert out.last_term.tobytes() == whole_out.last_term.tobytes()
    _assert_stack_matches_sets(sets[::7], 10, np.array([0.0, 2.0]))


def test_scalar_time_on_a_stack():
    sets = _cli_sweeps(0.1, 10.0)["mu"]
    stack = hsv_iterate(sets, 6)
    out = hsv_evaluate(stack, 1.5)
    assert out.value.shape == out.last_term.shape == (len(sets),)
    assert stack.term_values(1.5).shape == (len(sets), 7)
    for i, p in enumerate(sets):
        assert out.value[i] == hsv_evaluate(hsv_iterate(p, 6), 1.5).value


def test_stack_fails_at_its_first_failing_set():
    late = ModelParams(r=1e10, k=100.0, z0=10.0, mu=0.9, lam=0.5)  # fails at x_31
    early = ModelParams(r=1e200, k=100.0, z0=10.0, mu=0.9, lam=0.5)  # fails at x_2
    heavy = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=0.5)  # Gamma(176) overflows
    for sets in ([late, early], [early, late], [late, heavy], [heavy, late]):
        _assert_stack_matches_sets(sets, 175, np.array([1.0]))
    with pytest.raises(ValueError, match="x_31 has"):
        hsv_iterate([late, early], 175)
    with pytest.raises(ValueError, match="overflows for n_terms = 175, mu = 1.0"):
        hsv_iterate([heavy, early], 175)
    with pytest.raises(ValueError, match="at least one"):
        hsv_iterate([], 3)


def test_stack_builds_one_gamma_table_per_mu(monkeypatch):
    # the 90 sets of `surface --vary both` take 9 orders mu; each table is
    # the one a set builds alone, so the coefficients are its own bit for bit
    sets = _cli_sweeps(0.1, 10.0)["both"]
    singles = [hsv_iterate(p, 10).coeffs.tobytes() for p in sets]
    calls = []

    def counted(x):
        calls.append(x)
        return gamma_fn(x)

    monkeypatch.setattr("fraclogistic.hsv.gamma_fn", counted)
    stack = hsv_iterate(sets, 10)
    assert len(calls) == 9 * 11
    assert [c.tobytes() for c in stack.coeffs] == singles
    # an overflowing table is still met at its first set in stack order
    heavy = ModelParams(r=0.1, k=100.0, z0=10.0, mu=1.0, lam=0.5)
    with pytest.raises(ValueError, match="overflows for n_terms = 175, mu = 1.0"):
        hsv_iterate([sets[0], heavy, sets[1], replace(heavy, lam=0.2)], 175)
