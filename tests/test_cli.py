import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclogistic
from fraclogistic import ModelParams, abc_exact_lambda0, hsv_iterate, mittag_leffler
from fraclogistic.cli import _COMMANDS, _MAX_ROWS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_builds(monkeypatch):
    """Record the parameter sets of each ``hsv_iterate`` call the CLI makes."""
    calls = []

    def counted(params, n_terms):
        calls.append((params,) if isinstance(params, ModelParams) else tuple(params))
        return hsv_iterate(params, n_terms)

    monkeypatch.setattr("fraclogistic.cli.hsv_iterate", counted)
    return calls


def run_python(*args):
    """Run a fresh interpreter that imports the package these tests import."""
    path = [str(Path(fraclogistic.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestClassicalCommand:
    def test_rows_and_plateau(self, capsys):
        code, out, _ = run_cli(
            capsys, "classical", "--r", "1", "--k", "100", "--z0", "10",
            "--t-end", "20", "--points", "101",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z"]
        assert len(rows) == 101
        assert out.splitlines()[1] == "0,10"
        zs = [row[1] for row in rows]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        assert abs(zs[-1] - 100.0) < 1e-6 * 100.0

    def test_initial_value_far_above_capacity(self, capsys):
        # z0 + (k - z0) rounds to 0 at z0 = 1e300; z(10) = k / (1 - e^-1)
        code, out, _ = run_cli(capsys, "classical", "--z0", "1e300", "--points", "5")
        assert code == 0
        assert out.splitlines()[1:] == ["0,1e+300", "2.5,452.081166419", "5,254.149408254",
                                        "7.5,189.52551344", "10,158.197670687"]


class TestMlEvalCommand:
    def test_values_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "ml-eval", "--mu", "0.5", "--from", "-3", "--to", "3",
            "--points", "7",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z"]
        for arg, value in rows:
            assert value == pytest.approx(mittag_leffler(0.5, arg), rel=1e-11)

    def test_default_range_starts_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--mu", "0.7", "--to", "4",
                               "--points", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == 0.0 and rows[-1][0] == 4.0
        assert rows[0][1] == 1.0


class TestExactLambda0Command:
    def test_plain_columns(self, capsys):
        code, out, _ = run_cli(capsys, "exact-lambda0", "--mu", "0.6",
                               "--t-end", "5", "--points", "6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z"]
        p = ModelParams(r=0.1, k=100.0, z0=10.0, mu=0.6, lam=0.0)
        for t, z in rows:
            assert z == pytest.approx(abc_exact_lambda0(p, t), rel=1e-11)

    def test_mu_sweep_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "exact-lambda0", "--vary", "mu",
                               "--t-end", "5", "--points", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "mu", "z"]
        assert len(rows) == 9 * 5
        mus = [row[1] for row in rows]
        assert mus == sorted(mus)  # outer sweep axis ascending
        ts = [row[0] for row in rows[:5]]
        assert ts == sorted(ts)

    def test_mu_sweep_ends_at_one(self, capsys):
        code, out, _ = run_cli(capsys, "exact-lambda0", "--vary", "mu", "--from", "0.5",
                               "--to", "1.0", "--step", "0.1", "--points", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[1] for row in rows[::2]] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        assert rows[-1][1] == 1.0


class TestSolverCommands:
    def test_solve_rows(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--operator", "caputo",
                               "--mu", "0.8", "--t-end", "2", "--points", "5",
                               "--h", "0.01")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z"]
        assert len(rows) == 5
        assert rows[0][1] == pytest.approx(10.0)

    def test_compare_classical_limit(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--mu", "1", "--lambda", "1",
                               "--t-end", "2", "--points", "9", "--h", "0.01")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z_abc", "z_cfc", "z_caputo"]
        for _, a, c, d in rows:
            assert a == pytest.approx(c, rel=1e-3)
            assert a == pytest.approx(d, rel=1e-3)
            assert c == pytest.approx(d, rel=1e-3)

    def test_stability_rows(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--mu", "0.8",
                               "--t-end", "2", "--h", "0.05",
                               "--epsilons", "1e-2,1e-3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["epsilon", "max_deviation", "c_estimate"]
        assert [row[0] for row in rows] == [1e-3, 1e-2]  # ascending


class TestSeriesCommands:
    def test_hsv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "hsv", "--t-end", "2", "--points", "5",
                               "--n-terms", "6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z"]
        assert len(rows) == 5

    def test_closed_form_rows(self, capsys):
        code, out, _ = run_cli(capsys, "closed-form", "--t-end", "2", "--points", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "z"]

    def test_convergence_decay(self, capsys):
        code, out, _ = run_cli(capsys, "convergence", "--n-max", "6",
                               "--t-end", "2.5", "--points", "6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n_terms", "t", "partial_sum", "last_term_abs"]
        assert len(rows) == 6 * 6
        by_t = {}
        for n, t, _, last in rows:
            by_t.setdefault(t, []).append((n, last))
        for t, seq in by_t.items():
            lasts = [last for _, last in sorted(seq)]
            if t > 0.0:
                assert all(b < a for a, b in zip(lasts, lasts[1:]))

    def test_surface_lambda_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--vary", "lambda",
                               "--t-end", "5", "--points", "6", "--n-terms", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "lambda", "z"]
        assert len(rows) == 10 * 6
        by_t = {}
        for t, lam, z in rows:
            by_t.setdefault(t, []).append((lam, z))
        for t, seq in by_t.items():
            zs = [z for _, z in sorted(seq)]
            diffs = np.diff(zs)
            assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)

    def test_surface_both_shape(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--vary", "both",
                               "--at-t", "1", "--n-terms", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mu", "lambda", "z"]
        assert len(rows) == 9 * 10

    def test_surface_requires_vary(self, capsys):
        code, _, err = run_cli(capsys, "surface", "--t-end", "2")
        assert code == 2
        assert "vary" in err

    @pytest.mark.parametrize("command, lam", [("hsv", "0.2"), ("convergence", "0.3")])
    def test_square_mode_is_the_undelayed_series(self, capsys, command, lam):
        square = run_cli(capsys, command, "--mode", "square")
        undelayed = run_cli(capsys, command, "--lambda", "1")
        assert square[0] == 0
        assert square == undelayed
        # the undelayed series reads no --lambda
        code, out, err = run_cli(capsys, command, "--mode", "square", "--lambda", lam)
        assert (code, out) == (2, "")
        assert "--lambda" in err

    def test_square_mode_surface_repeats_the_undelayed_curve(self, capsys):
        grid = ("--t-end", "5", "--points", "6", "--n-terms", "8")
        code, out, _ = run_cli(capsys, "surface", "--vary", "lambda", "--mode", "square",
                               *grid)
        assert code == 0
        curve = run_cli(capsys, "hsv", "--lambda", "1", *grid)[1].splitlines()[1:]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 10 * len(curve)
        for start in range(0, len(rows), len(curve)):
            block = rows[start:start + len(curve)]
            assert len({lam for _, lam, _ in block}) == 1
            assert [f"{t},{z}" for t, _, z in block] == curve

    @pytest.mark.parametrize("vary, sets", [("both", 9), ("lambda", 1)])
    def test_square_mode_surface_builds_each_series_once(self, capsys, monkeypatch,
                                                          vary, sets):
        # --mode square takes lam = 1: the lambda sweep repeats one series, and
        # the command's one stacked call carries each distinct series once
        calls = count_builds(monkeypatch)
        # --vary both evaluates at --at-t and takes no --points
        argv = ("surface", "--vary", vary, "--mode", "square", "--n-terms", "4",
                *(("--points", "3") if vary == "lambda" else ()))
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == sets
        assert {p.lam for p in calls[0]} == {1.0}
        # nothing carries over to the next call
        assert run_cli(capsys, *argv) == first
        assert len(calls) == 2 and calls[1] == calls[0]

    @pytest.mark.parametrize("argv, sets", [
        (("hsv", "--points", "3"), 1),
        (("convergence", "--points", "3"), 1),
        (("surface", "--vary", "mu", "--points", "3"), 9),
        (("surface", "--vary", "lambda", "--points", "3"), 10),
        (("surface", "--vary", "both"), 90),
    ])
    def test_series_commands_build_one_stack(self, capsys, monkeypatch, argv, sets):
        calls = count_builds(monkeypatch)
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) == 1 and len(calls[0]) == sets


@pytest.mark.parametrize("sweep, single, flag", [
    (("exact-lambda0", "--vary", "mu", "--from", "0.25", "--to", "1", "--step", "0.25"),
     "exact-lambda0", "--mu"),
    (("surface", "--vary", "mu", "--from", "0.25", "--to", "1", "--step", "0.25"),
     "hsv", "--mu"),
    (("surface", "--vary", "lambda", "--from", "0", "--to", "1", "--step", "0.25"),
     "hsv", "--lambda"),
])
def test_sweep_blocks_are_single_value_runs(capsys, sweep, single, flag):
    # steps of 0.25 are exact, so each printed value parses to the swept float
    grid = ("--t-end", "5", "--points", "7")
    code, out, _ = run_cli(capsys, *sweep, *grid)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    values = list(dict.fromkeys(value for _, value, _ in rows))
    assert len(values) == (5 if flag == "--lambda" else 4)
    for i, value in enumerate(values):
        curve = run_cli(capsys, single, flag, value, *grid)[1].splitlines()[1:]
        block = rows[7 * i:7 * (i + 1)]
        assert {v for _, v, _ in block} == {value}
        assert [f"{t},{z}" for t, _, z in block] == curve


# a value other than the default for each flag of the commands below
_OTHER = {"--r": "0.05", "--k": "50", "--z0": "20", "--mu": "0.5", "--b-norm": "2",
          "--t-end": "4", "--points": "4", "--vary": "mu", "--from": "0.5", "--to": "0.5",
          "--step": "0.2"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ("classical", "ml-eval", "exact-lambda0", "closed-form")
    for flag in _COMMANDS[command][1] if flag not in ("--output", "--config")])
def test_every_flag_a_command_takes_changes_its_output(capsys, command, flag):
    # exact-lambda0 reads its sweep range under --vary mu
    in_sweep = command == "exact-lambda0" and flag in ("--from", "--to", "--step")
    sweep = ("--vary", "mu") if in_sweep else ()
    base = run_cli(capsys, command, "--points", "3", *sweep)
    changed = run_cli(capsys, command, "--points", "3", *sweep, flag, _OTHER[flag])
    assert base[0] == changed[0] == 0
    assert changed[1] != base[1]


@pytest.mark.parametrize("command, flag", [
    ("classical", "--mu"), ("classical", "--lambda"), ("classical", "--b-norm"),
    ("exact-lambda0", "--lambda"), ("closed-form", "--lambda"), ("ml-eval", "--t-end")])
def test_flags_a_command_does_not_read_are_refused(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag, "0.5")
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv", [
    ("surface", "--vary", "mu", "--at-t", "2"),
    ("surface", "--vary", "lambda", "--at-t", "2"),
    ("surface", "--vary", "both", "--t-end", "3"),
    ("surface", "--vary", "both", "--points", "5"),
    ("surface", "--vary", "mu", "--mode", "square", "--lambda", "0.3"),
    ("hsv", "--mode", "square", "--lambda", "0.3"),
    ("convergence", "--mode", "square", "--lambda", "0.3"),
    ("exact-lambda0", "--from", "0.5"),
    ("exact-lambda0", "--to", "0.5"),
    ("exact-lambda0", "--step", "0.2"),
])
def test_flags_a_mode_does_not_read_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert argv[-2] in err


def test_mode_skips_config_entries_it_does_not_read(capsys, tmp_path):
    # as a command skips the keys it does not take
    config = tmp_path / "run.json"
    for argv, entry in ((("hsv", "--mode", "square"), '"lambda": 0.3'),
                        (("surface", "--vary", "mu"), '"at-t": 2'),
                        (("surface", "--vary", "both"), '"from": 0.5'),
                        (("surface", "--vary", "both"), '"to": 0.5, "step": 0.3'),
                        (("exact-lambda0",), '"from": 0.5')):
        config.write_text("{" + entry + "}")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, *argv)


def test_exact_lambda0_offers_only_mu_sweep(capsys):
    code, out, _ = run_cli(capsys, "exact-lambda0", "--help")
    assert code == 0
    assert "--vary {mu}" in out
    assert run_cli(capsys, "exact-lambda0", "--vary", "lambda")[0] == 2


class TestOutputContract:
    def test_deterministic(self, capsys):
        args = ["surface", "--vary", "mu", "--t-end", "3", "--points", "4",
                "--n-terms", "5"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "classical", "--r", "0.3", "--t-end", "7",
                            "--points", "3")
        for line in out.splitlines()[1:]:
            for field in line.split(","):
                assert field == format(float(field), ".12g")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "data.csv"
        code, out, _ = run_cli(capsys, "classical", "--t-end", "2",
                               "--points", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        text = target.read_bytes().decode("utf-8")
        assert text.startswith("t,z\n")
        assert b"\r" not in target.read_bytes()

    def test_output_file_of_a_sweep_is_stdout(self, tmp_path, capsys):
        # two blocks of 4500 rows, each crossing the writer's 4096-row chunk
        argv = ("exact-lambda0", "--vary", "mu", "--from", "0.5", "--to", "0.6",
                "--step", "0.1", "--points", "4500")
        target = tmp_path / "sweep.csv"
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")

    def test_config_file_defaults_and_flag_priority(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"r": 0.5, "t-end": 4, "points": 3}))
        _, from_config, _ = run_cli(capsys, "classical", "--config", str(config))
        _, reference, _ = run_cli(capsys, "classical", "--r", "0.5",
                                  "--t-end", "4", "--points", "3")
        assert from_config == reference
        # explicit flag beats the config value
        _, overridden, _ = run_cli(capsys, "classical", "--config", str(config),
                                   "--r", "1.0")
        _, expected, _ = run_cli(capsys, "classical", "--r", "1.0",
                                 "--t-end", "4", "--points", "3")
        assert overridden == expected

    def test_config_leaves_no_state_for_the_next_call(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"r": 0.5, "t-end": 4, "points": 3}))
        assert run_cli(capsys, "classical", "--config", str(config))[0] == 0
        code, plain, _ = run_cli(capsys, "classical")
        fresh = run_python("-m", "fraclogistic", "classical")
        assert code == 0 and fresh.returncode == 0
        assert plain == fresh.stdout


class TestExitCodes:
    def test_invalid_points_names_field(self, capsys):
        code, _, err = run_cli(capsys, "classical", "--points", "1")
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize("argv, points", [
        (("ml-eval",), _MAX_ROWS + 1),
        # the default mu sweep takes nine values
        (("exact-lambda0", "--vary", "mu"), _MAX_ROWS // 9 + 1),
    ])
    def test_rows_over_the_cap_are_refused_before_any_grid(self, capsys, monkeypatch,
                                                           argv, points):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        code, out, err = run_cli(capsys, *argv, "--points", str(points))
        assert (code, out) == (2, "")
        assert "--points" in err and str(_MAX_ROWS) in err

    def test_rows_at_the_cap_are_written(self, capsys, monkeypatch):
        monkeypatch.setattr("fraclogistic.cli._MAX_ROWS", 18)
        code, out, _ = run_cli(capsys, "exact-lambda0", "--vary", "mu", "--points", "2")
        assert code == 0
        assert len(out.splitlines()) == 1 + 18
        assert run_cli(capsys, "exact-lambda0", "--vary", "mu", "--points", "3")[0] == 2

    def test_invalid_mu_names_field(self, capsys):
        code, _, err = run_cli(capsys, "hsv", "--mu", "1.5")
        assert code == 2
        assert "mu" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "classical", "--bogus", "1")
        assert code == 2

    def test_solver_failure_exit(self, capsys):
        code, _, err = run_cli(capsys, "closed-form", "--r", "5",
                               "--t-end", "10", "--points", "3")
        assert code == 3
        assert "diverges" in err

    @pytest.mark.parametrize("argv, step", [
        # z = 10 exp(-9 t) is about 2e-15 at step 83, below what z0 plus a
        # history of nearly its size resolves; the root there rounds to <= 0
        (("--lambda", "0", "--r", "-10", "--h", "0.05", "--t-end", "5"), 83),
        # z overshoots to 6183 and crashes towards 0, where the root is -2.8e-13
        (("--lambda", "0.25", "--r", "5", "--t-end", "6"), 460),
    ])
    def test_rounding_floor_is_named(self, capsys, argv, step):
        code, out, err = run_cli(capsys, "solve", "--operator", "abc", "--mu", "1", *argv)
        assert code == 3
        assert out == ""
        assert re.fullmatch(rf"error: non-positive state \S+ at step {step}, within 4 eps "
                            r"z_max of 0: the integral form's rounding floor\n", err)

    def test_failure_far_from_the_rounding_floor(self, capsys):
        # a root far below 0 is a failure of the scheme, not of rounding
        code, _, err = run_cli(capsys, "solve", "--operator", "caputo", "--mu", "0.5",
                               "--lambda", "0.5", "--r", "4", "--h", "0.25", "--t-end", "5")
        assert code == 3
        assert err == "error: non-positive state -26.6347 at step 1\n"

    def test_series_failure_exit(self, capsys):
        code, _, err = run_cli(capsys, "ml-eval", "--mu", "0.002", "--from", "1",
                               "--to", "1.01", "--points", "2")
        assert code == 3
        assert err.startswith("error:") and "did not converge" in err

    @pytest.mark.parametrize("argv, message", [
        (("surface", "--vary", "lambda", "--r", "1e200"),
         "term x_2 has non-finite coefficients"),
        # mu = 0.1 overflows at x_31 before mu = 1 overflows Gamma(181)
        (("surface", "--vary", "mu", "--to", "1", "--n-terms", "180", "--r", "1e10",
          "--points", "3"), "term x_31 has non-finite coefficients"),
        # mu = 0.1 overflows at x_105 before mu = 0.9 overflows Gamma(172)
        (("surface", "--vary", "both", "--n-terms", "190", "--r", "1e3"),
         "term x_105 has non-finite coefficients"),
    ])
    def test_failing_sweep_names_its_first_failing_set(self, capsys, argv, message):
        # exit code and message as when each set was built on its own
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_series_past_its_radius_exits_3(self, capsys):
        # the series prints z = 922 at t = 4 and 1.03e13 at t = 10 for k = 100
        code, out, err = run_cli(capsys, "hsv", "--r", "1", "--mu", "0.9", "--n-terms", "30",
                                 "--t-end", "10", "--points", "6")
        assert (code, out) == (3, "")
        assert err.startswith("error: series has not converged at t = 4.0, mu = 0.9, "
                              "lambda = 1.0:")
        # convergence shows the divergence instead
        assert run_cli(capsys, "convergence", "--r", "1", "--mu", "0.9", "--n-max", "30",
                       "--t-end", "10", "--points", "6")[0] == 0

    def test_sweep_names_the_first_set_past_its_radius(self, capsys):
        # lambda = 0.1 .. 0.8 converge on [0, 3]; 0.9 and 1.0 do not at t = 3
        argv = ("--r", "1", "--mu", "0.9", "--n-terms", "30", "--t-end", "3", "--points", "4")
        code, out, err = run_cli(capsys, "surface", "--vary", "lambda", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: series has not converged at t = 3.0, mu = 0.9, "
                              "lambda = 0.9:")
        for lam, code in (("0.8", 0), ("0.9", 3)):
            assert run_cli(capsys, "hsv", "--lambda", lam, *argv)[0] == code

    @pytest.mark.parametrize("argv", [("hsv", "--mu", "1", "--n-terms", "175"),
                                      ("convergence", "--n-max", "201")])
    def test_unfinishable_truncation_order_exit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [("classical", "--t-end", "inf"),
                                      ("closed-form", "--t-end", "nan"),
                                      ("hsv", "--t-end", "-inf")])
    def test_non_finite_t_end(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--t-end" in err and "Warning" not in err

    @pytest.mark.parametrize("at_t", ["nan", "inf", "-1"])
    def test_bad_evaluation_time(self, capsys, at_t):
        code, out, err = run_cli(capsys, "surface", "--vary", "both", "--at-t", at_t)
        assert code == 2
        assert out == ""
        assert "--at-t" in err

    @pytest.mark.parametrize("argv, rule", [
        # the classical solution blows up at t* = ln 3 ~ 1.0986
        (("classical", "--r", "-1", "--z0", "150", "--t-end", "3", "--points", "7"),
         "t* = 1.09861228867"),
        # the lam = 0 amplitude would be -8 < 0
        (("exact-lambda0", "--r", "5", "--mu", "0.5"), "-1.25"),
    ])
    def test_closed_forms_fail_where_solver_does(self, capsys, argv, rule):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and rule in err

    @pytest.mark.parametrize("argv, flag", [
        (("surface", "--vary", "mu", "--to", "inf"), "--to"),
        (("exact-lambda0", "--vary", "mu", "--to", "inf"), "--to"),
        (("surface", "--vary", "lambda", "--from", "nan"), "--from"),
        (("exact-lambda0", "--vary", "mu", "--step", "nan"), "--step"),
        (("surface", "--vary", "mu", "--step", "inf"), "--step"),
    ])
    def test_non_finite_sweep_bounds(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("argv, flag", [
        (("surface", "--vary", "mu", "--to", "5"), "--to"),
        (("exact-lambda0", "--vary", "mu", "--to", "1.5"), "--to"),
        (("surface", "--vary", "mu", "--from", "0"), "--from"),
        (("surface", "--vary", "lambda", "--from", "-0.5"), "--from"),
        (("surface", "--vary", "lambda", "--to", "1.5"), "--to"),
        (("surface", "--vary", "mu", "--step", "1e-320"), "--step"),
        (("exact-lambda0", "--vary", "mu", "--from", "0.1", "--to", "0.9",
          "--step", "1e-5"), "--step"),
        (("surface", "--vary", "mu", "--from", "0.5", "--to", "1",
          "--step", "0.2500000001"), "--step"),
    ])
    def test_out_of_range_sweep_values(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, "--points", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("entry, flag", [({"r": [1]}, "--r"),
                                             ({"points": {"a": 1}}, "--points")])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, entry, flag):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(entry))
        code, out, err = run_cli(capsys, "classical", "--config", str(config))
        assert code == 2
        assert out == ""
        assert flag in err

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "data.csv"
        code, out, err = run_cli(capsys, "classical", "--output", str(target))
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "classical", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("argv, joined", [
        (("classical", "--r", "-5e-2"), ("classical", "--r=-5e-2")),
        # --k after the value is still a flag
        (("classical", "--r", "-5E-2", "--k", "50"), ("classical", "--r=-5E-2", "--k", "50")),
        (("ml-eval", "--from", "-1e2", "--to", "0"), ("ml-eval", "--from=-1e2", "--to", "0")),
        (("ml-eval", "--from", "-.5e+1", "--to", "0"), ("ml-eval", "--from=-.5e+1", "--to", "0")),
    ])
    def test_negative_exponent_values(self, capsys, argv, joined):
        # a negative number with an exponent reads as its --flag=value spelling
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *joined) == (code, out, err)

    def test_module_entry_point(self):
        proc = run_python("-m", "fraclogistic", "classical", "--t-end", "1", "--points", "2")
        assert proc.returncode == 0
        assert proc.stdout.startswith("t,z\n")


def test_runtime_imports_neither_scipy_nor_mpmath():
    # every command in a fresh interpreter, with negative and positive
    # Mittag-Leffler arguments: numpy is the only runtime dependency
    extra = {
        "ml-eval": ["--from", "-200", "--to", "5", "--points", "41"],
        "exact-lambda0": ["--z0", "200", "--vary", "mu"],
        "surface": ["--vary", "both"],
    }
    commands = [[name, *extra.get(name, [])] for name in _COMMANDS]
    script = (
        "import contextlib, io, sys\n"
        "from fraclogistic.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _readme_command_line():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Command line\n")[1].split("\n## ")[0]


def test_readme_command_line_examples(tmp_path, monkeypatch, capsys):
    # every example in README's "Command line" section runs and prints a
    # header that the section's table gives for its command, and --help
    # describes each command as the table's "what it emits" cell does
    section = _readme_command_line()
    headers, emits = {}, {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 3 and cells[1].strip().startswith("`"):
            headers[cells[1].strip(" `")] = re.findall(r"`([^`]+)`", cells[2])
            emits[cells[1].strip(" `")] = cells[3].replace("`", "").strip()
    assert sorted(headers) == sorted(_COMMANDS)
    monkeypatch.setenv("COLUMNS", "200")  # one line per command
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert dict(re.findall(r"^ {4}(\S+) +(\S.*)$", out, re.M)) == emits
    monkeypatch.chdir(tmp_path)
    ran = 0
    for block in re.findall(r"```bash\n(.*?)```", section, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[0] == "echo":
                assert words[2] == ">"
                (tmp_path / words[3]).write_text(words[1])
                continue
            assert words[0] == "fraclogistic"
            code, out, err = run_cli(capsys, *words[1:])
            assert code == 0, (line, err)
            assert out.split("\n", 1)[0] in headers[words[1]], line
            ran += 1
    assert ran >= 8


def test_readme_lists_every_flag():
    section = _readme_command_line()
    listed = re.search(r"Flags: `([^`]+)`", section).group(1).split()
    assert sorted(listed) == sorted({f for _, flags in _COMMANDS.values() for f in flags})
