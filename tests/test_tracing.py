"""The benchmark's tracer must still find every name it wraps."""

import importlib.util
from pathlib import Path

import pytest

from fraclogistic import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(capsys):
    tracing = _load_tracing()
    original = cli.hsv_iterate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.hsv_iterate is not original
        assert cli.main(["convergence", "--n-max", "4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["hsv.terms"] == 5
    assert cli.hsv_iterate is original


@pytest.mark.parametrize("argv, terms", [
    (["hsv", "--points", "11"], 11),
    # ten lambda values, 11 terms each
    (["surface", "--vary", "lambda", "--points", "11"], 110),
])
def test_traced_series_commands_match_untraced(capsys, argv, terms):
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert tracer.counts["hsv.terms"] == terms


@pytest.mark.parametrize("argv", [
    ["ml-eval", "--mu", "0.9", "--from", "-60", "--to", "5"],
    ["exact-lambda0", "--vary", "mu", "--points", "11"],
])
def test_traced_closed_form_commands_match_untraced(capsys, argv):
    # The tracer's Mittag-Leffler wrapper takes scalar arguments only, so
    # whole grids must not reach the names it wraps.
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
