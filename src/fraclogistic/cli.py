"""Command-line front end emitting CSV datasets for every solution route.

Commands
--------
classical       classical logistic closed form               -> t,z
ml-eval         Mittag-Leffler function values               -> t,z
exact-lambda0   lam = 0 fractional closed form               -> t,z  (or t,mu,z with --vary mu)
hsv             truncated hybrid Sumudu-variational series   -> t,z
closed-form     geometric closed-form surrogate              -> t,z
solve           numerical solver, one operator               -> t,z
compare         all three operators on one grid              -> t,z_abc,z_cfc,z_caputo
surface         parameter sweeps of the series solution      -> t,mu,z | t,lambda,z | mu,lambda,z
convergence     partial sums and last-term magnitudes        -> n_terms,t,partial_sum,last_term_abs
stability       perturbation probe                           -> epsilon,max_deviation,c_estimate

Output is deterministic CSV (UTF-8, comma separated, LF line endings,
header row, 12 significant digits), written to --output or stdout.
Exit codes: 0 success, 2 invalid arguments, 3 solver failure.

A JSON config file (--config) may give any flag of the command by its long
name ("t-end" or "t_end" both work).  Its values are parsed and validated
exactly like flags, keys the command does not take are ignored, and
explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from . import special
from .adomian import ADOMIAN_MODES
from .closed_forms import abc_exact_lambda0, classical_exact
from .errors import ConvergenceError, SolverError
from .hsv import geometric_closed_form, hsv_evaluate, hsv_iterate
from .model import ModelParams
from .solvers import OperatorKind, SolveConfig, compare_operators, solve
# perfbench/tracing.py wraps this name; calls go through ``special`` so that
# array arguments bypass its scalar-only wrapper.
from .special import mittag_leffler  # noqa: F401
from .stability import hyers_ulam_probe

__all__ = ["main"]


def _checked(cast, ok, rule: str):
    """An argparse type: ``cast`` the text, then require ``ok(value)``."""
    def parse(text):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


def _float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


_FINITE = _checked(float, math.isfinite, "a finite number")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")

# flag -> (dest, type, default, help); the parser appends each default to its help
_FLAGS = {
    "--r": ("r", float, 0.1, "intrinsic growth rate"),
    "--k": ("k", float, 100.0, "carrying capacity"),
    "--z0": ("z0", float, 10.0, "initial value"),
    "--mu": ("mu", float, 0.9, "fractional order in (0,1]"),
    "--lambda": ("lam", float, 1.0, "proportional delay factor in [0,1]"),
    "--b-norm": ("b_norm", float, 1.0, "operator normalization"),
    "--t-end": ("t_end", _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0"),
                10.0, "time horizon"),
    "--points": ("points", _checked(int, lambda v: v >= 2, "an integer >= 2"), 101,
                 "number of output grid points"),
    "--h": ("h", float, 0.01, "solver step size"),
    "--operator": ("operator", str, "abc", "fractional operator"),
    "--n-terms": ("n_terms", _COUNT, 10, "series truncation order"),
    "--n-max": ("n_max", _COUNT, 8, "largest truncation order to report"),
    "--mode": ("mode", str, "general", "delayed-product expansion"),
    "--vary": ("vary", str, None, "sweep axis (exact-lambda0 takes mu only)"),
    "--from": ("sweep_from", _FINITE, None, "sweep start (also ml-eval argument start)"),
    "--to": ("sweep_to", _FINITE, None, "sweep end (also ml-eval argument end)"),
    "--step": ("sweep_step", _FINITE, None, "sweep increment"),
    "--at-t": ("at_t", _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
               1.0, "fixed evaluation time for --vary both"),
    "--epsilons": ("epsilons", _checked(_float_list, bool, "comma-separated numbers"),
                   "1e-2,1e-3,1e-4", "perturbation sizes"),
    "--output": ("output", str, None, "output file path; stdout if unset"),
    "--config": ("config", str, None, "JSON file of flag values; flags win on conflict"),
}

_CHOICES = {
    "--operator": [kind.value for kind in OperatorKind],
    "--mode": list(ADOMIAN_MODES),
    "--vary": ["mu", "lambda", "both"],
}

_SHARED = ("--r", "--k", "--z0", "--mu", "--lambda", "--b-norm", "--t-end")

# the flags each command takes; every command takes --output and --config
_COMMAND_FLAGS = {command: (*flags, "--output", "--config") for command, flags in {
    "classical": (*_SHARED, "--points"),
    "ml-eval": ("--mu", "--t-end", "--points", "--from", "--to"),
    "exact-lambda0": (*_SHARED, "--points", "--vary", "--from", "--to", "--step"),
    "hsv": (*_SHARED, "--points", "--n-terms", "--mode"),
    "closed-form": (*_SHARED, "--points"),
    "solve": (*_SHARED, "--points", "--h", "--operator"),
    "compare": (*_SHARED, "--points", "--h"),
    "surface": (*_SHARED, "--points", "--vary", "--from", "--to", "--step", "--at-t",
                "--n-terms", "--mode"),
    "convergence": (*_SHARED, "--points", "--n-max", "--mode"),
    "stability": (*_SHARED, "--h", "--operator", "--epsilons"),
}.items()}

# sweep axis -> (default from, to, step), its range as text, the range test
_SWEEPS = {"mu": ((0.1, 0.9, 0.1), "(0, 1]", lambda v: 0.0 < v <= 1.0),
           "lambda": ((0.1, 1.0, 0.1), "[0, 1]", lambda v: 0.0 <= v <= 1.0)}
# Most values one sweep may take; the default sweeps take 9 and 10.
_MAX_SWEEP = 10_000

# Rows formatted per write: lists of every value at once would raise peak memory.
_BLOCK = 4096


def _grid(ns) -> np.ndarray:
    return np.linspace(0.0, ns.t_end, ns.points)


def _sweep_values(ns, axis: str) -> list:
    """``--from`` to ``--to`` by ``--step``; both ends must lie in the axis range."""
    defaults, span, admits = _SWEEPS[axis]
    lo, hi, step = (default if value is None else value for value, default in
                    zip((ns.sweep_from, ns.sweep_to, ns.sweep_step), defaults))
    for flag, value in (("--from", lo), ("--to", hi)):
        if not admits(value):
            raise ValueError(f"{flag} must lie in {span} for --vary {axis}, got {value}")
    if step <= 0.0:
        raise ValueError(f"--step must be > 0, got {step}")
    if hi < lo:
        raise ValueError(f"sweep range is empty: --from {lo} --to {hi}")
    count = (hi - lo) / step + 1e-9
    if not count < _MAX_SWEEP:
        raise ValueError(f"--step {step} gives more than {_MAX_SWEEP} sweep values")
    values = [lo + i * step for i in range(math.floor(count) + 1)]
    # clamp rounding slack past 1, but the count's 1e-9 slack can carry more
    values = [min(v, 1.0) if v <= 1.0 + 1e-12 else v for v in values]
    if not all(admits(v) for v in values):
        raise ValueError(f"--step {step} carries the sweep past 1")
    return values


def _curves(ns, params, curve) -> tuple:
    """Header and columns of ``curve(params, ts)`` on the output grid.

    Without ``--vary`` the columns are t, z; with it, t, value, z over the
    sweep, the swept value outer and t inner.
    """
    ts = _grid(ns)
    if ns.vary is None:
        return "t,z", [ts, curve(params, ts)]
    field = "mu" if ns.vary == "mu" else "lam"
    values = _sweep_values(ns, ns.vary)
    curves = [curve(dataclasses.replace(params, **{field: v}), ts) for v in values]
    return f"t,{ns.vary},z", [np.tile(ts, len(values)), np.repeat(values, len(ts)),
                              np.concatenate(curves)]


def _cmd_classical(ns, params):
    return _curves(ns, params, classical_exact)


def _cmd_ml_eval(ns, params):
    lo = 0.0 if ns.sweep_from is None else ns.sweep_from
    hi = ns.t_end if ns.sweep_to is None else ns.sweep_to
    if hi <= lo:
        raise ValueError(f"ml-eval range is empty: from {lo} to {hi}")
    args = np.linspace(lo, hi, ns.points)
    return "t,z", [args, special.mittag_leffler(params.mu, args)]


def _cmd_exact_lambda0(ns, params):
    if ns.vary not in (None, "mu"):
        raise ValueError("exact-lambda0 supports only --vary mu")
    return _curves(ns, params, abc_exact_lambda0)


def _cmd_hsv(ns, params):
    return _curves(ns, params, lambda params, ts: hsv_evaluate(
        hsv_iterate(params, ns.n_terms, ns.mode), ts).value)


def _cmd_closed_form(ns, params):
    return _curves(ns, params, lambda params, ts: geometric_closed_form(params, ts).value)


def _cmd_solve(ns, params):
    traj = solve(params, SolveConfig(ns.operator, ns.t_end, ns.h))
    ts = _grid(ns)
    return "t,z", [ts, np.interp(ts, traj.grid, traj.values)]


def _cmd_compare(ns, params):
    trio = compare_operators(params, SolveConfig(OperatorKind.ABC, ns.t_end, ns.h))
    ts = _grid(ns)
    return "t,z_abc,z_cfc,z_caputo", [ts, *(np.interp(ts, traj.grid, traj.values)
                                            for traj in trio)]


def _cmd_surface(ns, params):
    if ns.vary is None:
        raise ValueError("surface requires --vary (mu | lambda | both)")
    if ns.vary != "both":  # the hsv curve, swept
        return _cmd_hsv(ns, params)
    if (ns.sweep_from, ns.sweep_to, ns.sweep_step) != (None, None, None):
        raise ValueError("custom from/to/step are not supported with --vary both")
    mus, lams = _sweep_values(ns, "mu"), _sweep_values(ns, "lambda")
    zs = [hsv_evaluate(hsv_iterate(dataclasses.replace(params, mu=mu, lam=lam),
                                   ns.n_terms, ns.mode), ns.at_t).value
          for mu in mus for lam in lams]
    return "mu,lambda,z", [np.repeat(mus, len(lams)), np.tile(lams, len(mus)), zs]


def _cmd_convergence(ns, params):
    sol = hsv_iterate(params, ns.n_max, ns.mode)
    ts = _grid(ns)
    values = sol.term_values(ts)
    # x_0 = z0 > 0, so these running sums equal sum() from 0 bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        partials = np.cumsum(values, axis=0)
    return "n_terms,t,partial_sum,last_term_abs", [
        np.repeat(np.arange(1, ns.n_max + 1), len(ts)), np.tile(ts, ns.n_max),
        partials[1:].ravel(), np.abs(values[1:]).ravel()]


def _cmd_stability(ns, params):
    report = hyers_ulam_probe(params, SolveConfig(ns.operator, ns.t_end, ns.h),
                              sorted(ns.epsilons))
    return "epsilon,max_deviation,c_estimate", [report.epsilons, report.deviations,
                                                report.c_estimates]


_COMMANDS = {
    "classical": _cmd_classical,
    "ml-eval": _cmd_ml_eval,
    "exact-lambda0": _cmd_exact_lambda0,
    "hsv": _cmd_hsv,
    "closed-form": _cmd_closed_form,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "surface": _cmd_surface,
    "convergence": _cmd_convergence,
    "stability": _cmd_stability,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclogistic",
        description="Delayed logistic growth with fractional memory: "
                    "closed forms, series solutions and numerical solvers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        sub = subparsers.add_parser(command, help=f"{command} dataset",
                                    formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag, (dest, kind, default, text) in _FLAGS.items():
            if flag in flags:
                sub.add_argument(flag, dest=dest, type=kind, default=default, help=text,
                                 choices=_CHOICES.get(flag))
            else:  # every command sees every setting, so one ModelParams serves all
                sub.set_defaults(**{dest: default})
    return parser


_PARSER = _build_parser()


def _config_args(ns) -> list:
    """The config file's entries that the command takes, as ``--flag=value``."""
    with open(ns.config, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError(f"config file {ns.config} must hold a JSON object")
    args = []
    for key, value in entries.items():
        flag = "--" + key.lstrip("-").replace("_", "-")
        if flag in _COMMAND_FLAGS[ns.command] and value is not None:
            args.append(f"{flag}={value}")
    return args


def _write(header: str, columns: list, output: str | None) -> None:
    """Write the header and equal-length columns as CSV, each field ``%.12g``."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    columns = [np.asarray(column) for column in columns]
    with (open(output, "w", encoding="utf-8", newline="") if output
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _BLOCK):
            block = zip(*(column[start:start + _BLOCK].tolist() for column in columns))
            fh.write("".join([row % values for values in block]))


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _PARSER.parse_args(argv)
        if ns.config:
            # config entries go first, so an explicit flag, parsed last, wins
            ns = _PARSER.parse_args([*argv[:1], *_config_args(ns), *argv[1:]])
        params = ModelParams(**{f.name: getattr(ns, f.name)
                                for f in dataclasses.fields(ModelParams)})
        header, columns = _COMMANDS[ns.command](ns, params)
        _write(header, columns, ns.output)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (SolverError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
