"""Command-line front end emitting CSV datasets for every solution route.

``fraclogistic --help`` lists the commands, each described by its
handler's docstring; README gives the columns each one writes.  Each
command takes only the flags its handler reads.

Output is deterministic CSV (UTF-8, comma separated, LF line endings,
header row, 12 significant digits), written to --output or stdout.
Exit codes: 0 success, 2 invalid arguments, 3 solver or convergence failure.

A JSON config file (--config) may give any flag of the command by its long
name ("t-end" or "t_end" both work).  Its values are parsed and validated
exactly like flags, keys the command or its mode does not read are
ignored (so one file can carry settings shared by several commands), and
explicit flags win on conflict.  A flag the chosen mode does not read
exits 2, as one the command does not take does.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import itertools
import json
import math
import re
import sys

import numpy as np

from . import special
from .closed_forms import abc_exact_lambda0, classical_exact
from .errors import ConvergenceError, SolverError
from .hsv import geometric_closed_form, hsv_evaluate, hsv_iterate
from .model import ModelParams, OperatorKind
from .solvers import SolveConfig, compare_operators, solve
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


class _Given(argparse.Action):
    """Store the value and add the flag to ``ns.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.option_strings[0]}


def _refuse(ns, flags, mode: str) -> None:
    """Exit 2 if a flag that ``mode`` does not read was given."""
    for flag in flags:
        if flag in ns.given:
            raise ValueError(f"{flag} is not read {mode}")


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
    "--mode": ("mode", str, "general", "square takes lam = 1: the undelayed series"),
    "--vary": ("vary", str, None, "sweep axis"),
    "--from": ("sweep_from", _FINITE, None, "sweep start (ml-eval: argument start, 0 if unset)"),
    "--to": ("sweep_to", _FINITE, None, "sweep end (ml-eval: argument end, 10 if unset)"),
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
    "--mode": ["general", "square"],
    "--vary": ["mu", "lambda", "both"],
}

_SHARED = ("--r", "--k", "--z0", "--mu", "--lambda", "--b-norm", "--t-end")
# the lam = 0 and geometric forms read no delay
_UNDELAYED = tuple(flag for flag in _SHARED if flag != "--lambda")

# sweep axis -> (default from, to, step), its range as text, the range test
_SWEEPS = {"mu": ((0.1, 0.9, 0.1), "(0, 1]", lambda v: 0.0 < v <= 1.0),
           "lambda": ((0.1, 1.0, 0.1), "[0, 1]", lambda v: 0.0 <= v <= 1.0)}
# Most values one sweep may take; the default sweeps take 9 and 10.
_MAX_SWEEP = 10_000

# An hsv or surface value fails where its last term x_n exceeds both
# _TAIL_RATIO and _TAIL_RATE**n of it: its terms then shrink too slowly to
# trust, and at a rate near 1 the series has left its radius.  The default
# sweeps reach a ratio of 1.4e-6; n = 1 series, which no ratio of 1e-4 admits,
# reach a rate of 0.41 on [0, 10] at the default r.
_TAIL_RATIO, _TAIL_RATE = 1e-4, 0.75

# Rows formatted per write: lists of every value at once would raise peak memory.
_BLOCK = 4096
# Most rows one command may write: a million take about 1 s to format.
_MAX_ROWS = 1_000_000


def _grid(ns, blocks: int = 1, start: float = 0.0, stop: float | None = None) -> np.ndarray:
    """``--points`` values from ``start`` to ``stop`` (``--t-end``) for ``blocks`` blocks."""
    if ns.points * blocks > _MAX_ROWS:
        raise ValueError(f"--points {ns.points} gives {ns.points * blocks} rows, "
                         f"more than {_MAX_ROWS}")
    return np.linspace(start, ns.t_end if stop is None else stop, ns.points)


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


def _curves(ns, params, curves) -> tuple:
    """Header and row blocks of ``curves(sets, ts)`` on the output grid.

    ``curves`` gives one z per parameter set.  Without ``--vary`` one block
    t, z; with it, one block t, value, z per swept value, in sweep order.
    """
    if ns.vary is None:
        ts = _grid(ns)
        return "t,z", [[ts, *curves([params], ts)]]
    field = "mu" if ns.vary == "mu" else "lam"
    values = _sweep_values(ns, ns.vary)
    ts = _grid(ns, len(values))
    zs = curves([dataclasses.replace(params, **{field: v}) for v in values], ts)
    return f"t,{ns.vary},z", [[ts, v, z] for v, z in zip(values, zs)]


def _each(curve):
    """A ``curves`` argument of :func:`_curves` that calls ``curve(params, ts)`` per set."""
    return lambda sets, ts: [curve(p, ts) for p in sets]


def _undelayed(ns, params):
    """``--mode square`` drops the delay, taking lam = 1."""
    if ns.mode != "square":
        return params
    _refuse(ns, ("--lambda",), "with --mode square")
    return dataclasses.replace(params, lam=1.0)


def _hsv_curves(ns, sets, ts) -> np.ndarray:
    """The HSV series of each set at the times ``ts``, shape ``(len(sets), len(ts))``.

    One stack holds each distinct series once.  Raises ConvergenceError at
    the first set and t, in sweep order, past the ``_TAIL_RATIO`` and
    ``_TAIL_RATE`` bound.
    """
    series = [_undelayed(ns, p) for p in sets]
    row = {p: i for i, p in enumerate(dict.fromkeys(series))}
    out = hsv_evaluate(hsv_iterate(list(row), ns.n_terms), ts)
    value, last = (x[[row[p] for p in series]] for x in out)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = last / np.abs(value)
    past = np.argwhere(~(ratio <= max(_TAIL_RATIO, _TAIL_RATE ** ns.n_terms)))
    if len(past):
        i, j = past[0]
        raise ConvergenceError(f"series has not converged at t = {ts[j]}, mu = {sets[i].mu}, "
                               f"lambda = {sets[i].lam}: its last term is {ratio[i, j]:.3g} "
                               f"of |z| = {abs(value[i, j]):.6g}", ratio=ratio[i, j])
    return value


def _cmd_classical(ns, params):
    """classical logistic closed form"""
    return _curves(ns, params, _each(classical_exact))


def _cmd_ml_eval(ns, params):
    """E_mu on an argument grid (--from/--to)"""
    lo = 0.0 if ns.sweep_from is None else ns.sweep_from
    hi = 10.0 if ns.sweep_to is None else ns.sweep_to
    if hi <= lo:
        raise ValueError(f"ml-eval range is empty: from {lo} to {hi}")
    args = _grid(ns, start=lo, stop=hi)
    return "t,z", [[args, special.mittag_leffler(params.mu, args)]]


def _cmd_exact_lambda0(ns, params):
    """lam = 0 fractional closed form"""
    if ns.vary is None:
        _refuse(ns, ("--from", "--to", "--step"), "without --vary")
    return _curves(ns, params, _each(abc_exact_lambda0))


def _cmd_hsv(ns, params):
    """truncated HSV series values"""
    return _curves(ns, params, lambda sets, ts: _hsv_curves(ns, sets, ts))


def _cmd_closed_form(ns, params):
    """geometric closed-form surrogate"""
    return _curves(ns, params, _each(lambda p, ts: geometric_closed_form(p, ts).value))


def _cmd_solve(ns, params):
    """one numerical solver (--operator, --h)"""
    ts = _grid(ns)
    traj = solve(params, SolveConfig(ns.operator, ns.t_end, ns.h))
    return "t,z", [[ts, np.interp(ts, traj.grid, traj.values)]]


def _cmd_compare(ns, params):
    """all three operators, identical grid"""
    ts = _grid(ns)
    trio = compare_operators(params, SolveConfig(OperatorKind.ABC, ns.t_end, ns.h))
    return "t,z_abc,z_cfc,z_caputo", [[ts, *(np.interp(ts, traj.grid, traj.values)
                                             for traj in trio)]]


def _cmd_surface(ns, params):
    """series sweeps (--vary mu, lambda or both)"""
    if ns.vary is None:
        raise ValueError("surface requires --vary (mu | lambda | both)")
    if ns.vary != "both":  # the hsv curve, swept
        _refuse(ns, ("--at-t",), f"with --vary {ns.vary}")
        return _cmd_hsv(ns, params)
    _refuse(ns, ("--from", "--to", "--step", "--t-end", "--points"), "with --vary both")
    # both axes take their default sweeps, whatever a config file holds
    ns.sweep_from = ns.sweep_to = ns.sweep_step = None
    mus, lams = _sweep_values(ns, "mu"), _sweep_values(ns, "lambda")
    zs = _hsv_curves(ns, [dataclasses.replace(params, mu=mu, lam=lam) for mu in mus
                          for lam in lams], np.array([ns.at_t])).reshape(len(mus), -1)
    return "mu,lambda,z", [[mu, lams, z] for mu, z in zip(mus, zs)]


def _cmd_convergence(ns, params):
    """series truncation behaviour (--n-max)"""
    ts = _grid(ns, ns.n_max)
    values = hsv_iterate(_undelayed(ns, params), ns.n_max).term_values(ts)
    # x_0 = z0 > 0, so these running sums equal sum() from 0 bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        partials = np.cumsum(values, axis=0)
    return "n_terms,t,partial_sum,last_term_abs", [
        [n, ts, partials[n], np.abs(values[n])] for n in range(1, ns.n_max + 1)]


def _cmd_stability(ns, params):
    """Hyers-Ulam probe (--epsilons)"""
    report = hyers_ulam_probe(params, SolveConfig(ns.operator, ns.t_end, ns.h),
                              sorted(ns.epsilons))
    return "epsilon,max_deviation,c_estimate", [[report.epsilons, report.deviations,
                                                 report.c_estimates]]


# command -> (handler, the flags it takes); every command takes --output and --config
_COMMANDS = {command: (handler, (*flags, "--output", "--config"))
             for command, (handler, flags) in {
    "classical": (_cmd_classical, ("--r", "--k", "--z0", "--t-end", "--points")),
    "ml-eval": (_cmd_ml_eval, ("--mu", "--points", "--from", "--to")),
    "exact-lambda0": (_cmd_exact_lambda0,
                      (*_UNDELAYED, "--points", "--vary", "--from", "--to", "--step")),
    "hsv": (_cmd_hsv, (*_SHARED, "--points", "--n-terms", "--mode")),
    "closed-form": (_cmd_closed_form, (*_UNDELAYED, "--points")),
    "solve": (_cmd_solve, (*_SHARED, "--points", "--h", "--operator")),
    "compare": (_cmd_compare, (*_SHARED, "--points", "--h")),
    "surface": (_cmd_surface, (*_SHARED, "--points", "--vary", "--from", "--to", "--step",
                               "--at-t", "--n-terms", "--mode")),
    "convergence": (_cmd_convergence, (*_SHARED, "--points", "--n-max", "--mode")),
    "stability": (_cmd_stability, (*_SHARED, "--h", "--operator", "--epsilons")),
}.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclogistic",
        description="Delayed logistic growth with fractional memory: "
                    "closed forms, series solutions and numerical solvers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (handler, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=handler.__doc__, description=handler.__doc__,
                                    formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        # argparse takes only plain and decimal negatives for values; -5e-2 too
        sub._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        sub.set_defaults(given=frozenset())
        for flag, (dest, kind, default, text) in _FLAGS.items():
            if flag in flags:
                # exact-lambda0 has no closed form in lam
                choices = (["mu"] if (command, flag) == ("exact-lambda0", "--vary")
                           else _CHOICES.get(flag))
                sub.add_argument(flag, dest=dest, type=kind, default=default, help=text,
                                 action=_Given, choices=choices)
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
        if flag in _COMMANDS[ns.command][1] and value is not None:
            args.append(f"{flag}={value}")
    return args


def _write(header: str, blocks: list, output: str | None) -> None:
    """Write the header and the row blocks as CSV, each field ``%.12g``.

    A block is a list of columns, each a 1-d sequence or a number that
    repeats down the block.  A sequence that several blocks share (the t
    grid) is formatted once; the rest ``_BLOCK`` rows at a time.
    """
    uses = collections.Counter(id(col) for block in blocks for col in block if np.ndim(col))
    shared = {}  # id -> text of a sequence in several blocks
    with (open(output, "w", encoding="utf-8", newline="") if output
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(header + "\n")
        for block in blocks:
            fields, columns = [], []
            for col in block:
                if not np.ndim(col):
                    fields.append("%.12g" % col)
                elif uses[id(col)] > 1:
                    if id(col) not in shared:
                        shared[id(col)] = ["%.12g" % v for v in np.asarray(col).tolist()]
                    fields.append("%s")
                    columns.append(shared[id(col)])
                else:
                    fields.append("%.12g")
                    columns.append(np.asarray(col))
            row = ",".join(fields) + "\n"
            for start in range(0, len(columns[0]), _BLOCK):
                rows = zip(*(col[start:start + _BLOCK] if isinstance(col, list)
                             else col[start:start + _BLOCK].tolist() for col in columns))
                # one % of the row repeated formats the chunk: a % per row costs more
                values = tuple(itertools.chain.from_iterable(rows))
                fh.write((row * (len(values) // len(columns))) % values)


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _PARSER.parse_args(argv)
        if ns.config:
            # config entries go first, so an explicit flag, parsed last, wins;
            # a mode skips config entries it does not read, as a command does
            given = ns.given
            ns = _PARSER.parse_args([*argv[:1], *_config_args(ns), *argv[1:]])
            ns.given = given
        params = ModelParams(**{f.name: getattr(ns, f.name)
                                for f in dataclasses.fields(ModelParams)})
        header, blocks = _COMMANDS[ns.command][0](ns, params)
        _write(header, blocks, ns.output)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (SolverError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
