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
from fraclogistic import ModelParams, abc_exact_lambda0, mittag_leffler
from fraclogistic.cli import _COMMAND_FLAGS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_default_range_spans_time_horizon(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--mu", "0.7", "--t-end", "4",
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

    def test_series_failure_exit(self, capsys):
        code, _, err = run_cli(capsys, "ml-eval", "--mu", "0.002", "--from", "1",
                               "--to", "1.01", "--points", "2")
        assert code == 3
        assert err.startswith("error:") and "did not converge" in err

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
    commands = [[name, *extra.get(name, [])] for name in _COMMAND_FLAGS]
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
    # header that the section's table gives for its command
    section = _readme_command_line()
    headers = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 3 and cells[1].strip().startswith("`"):
            headers[cells[1].strip(" `")] = re.findall(r"`([^`]+)`", cells[2])
    assert sorted(headers) == sorted(_COMMAND_FLAGS)
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
    assert sorted(listed) == sorted({f for flags in _COMMAND_FLAGS.values() for f in flags})
