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

A JSON config file (--config) may predefine any flag by its long name
("t-end" or "t_end" both work); explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import abc_exact_lambda0, classical_exact
from .errors import ConvergenceError, SolverError
from .hsv import geometric_closed_form, hsv_evaluate, hsv_iterate
from .model import ModelParams
from .solvers import OperatorKind, SolveConfig, compare_operators, solve
from .special import mittag_leffler
from .stability import hyers_ulam_probe

__all__ = ["RunSpec", "run", "main"]

_MODEL_DESTS = ("r", "k", "z0", "mu", "lam", "b_norm")

_DEFAULTS = {
    "r": 0.1,
    "k": 100.0,
    "z0": 10.0,
    "mu": 0.9,
    "lam": 1.0,
    "b_norm": 1.0,
    "t_end": 10.0,
    "points": 101,
    "h": 0.01,
    "operator": "abc",
    "n_terms": 10,
    "n_max": 8,
    "mode": "general",
    "vary": None,
    "sweep_from": None,
    "sweep_to": None,
    "sweep_step": None,
    "at_t": 1.0,
    "epsilons": "1e-2,1e-3,1e-4",
    "output": None,
}

# flag name -> (dest, value parser, help)
_FLAGS = {
    "--r": ("r", float, "intrinsic growth rate (default 0.1)"),
    "--k": ("k", float, "carrying capacity (default 100)"),
    "--z0": ("z0", float, "initial value (default 10)"),
    "--mu": ("mu", float, "fractional order in (0,1] (default 0.9)"),
    "--lambda": ("lam", float, "proportional delay factor in [0,1] (default 1)"),
    "--b-norm": ("b_norm", float, "operator normalization (default 1)"),
    "--t-end": ("t_end", float, "time horizon (default 10)"),
    "--points": ("points", int, "number of output grid points, >= 2 (default 101)"),
    "--h": ("h", float, "solver step size (default 0.01)"),
    "--operator": ("operator", str, "fractional operator: abc | cfc | caputo"),
    "--n-terms": ("n_terms", int, "series truncation order (default 10)"),
    "--n-max": ("n_max", int, "largest truncation order to report (default 8)"),
    "--mode": ("mode", str, "delayed-product expansion: general | square"),
    "--vary": ("vary", str, "sweep axis: mu | lambda | both"),
    "--from": ("sweep_from", float, "sweep start (also ml-eval argument start)"),
    "--to": ("sweep_to", float, "sweep end (also ml-eval argument end)"),
    "--step": ("sweep_step", float, "sweep increment"),
    "--at-t": ("at_t", float, "fixed evaluation time for --vary both (default 1)"),
    "--epsilons": ("epsilons", str, "comma-separated perturbation sizes"),
    "--output": ("output", str, "output file path (default: stdout)"),
    "--config": ("config", str, "JSON file of flag defaults; flags win on conflict"),
}

_COMMAND_FLAGS = {
    "classical": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                  "--t-end", "--points", "--output", "--config"],
    "ml-eval": ["--mu", "--t-end", "--points", "--from", "--to",
                "--output", "--config"],
    "exact-lambda0": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                      "--t-end", "--points", "--vary", "--from", "--to", "--step",
                      "--output", "--config"],
    "hsv": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
            "--t-end", "--points", "--n-terms", "--mode", "--output", "--config"],
    "closed-form": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                    "--t-end", "--points", "--output", "--config"],
    "solve": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
              "--t-end", "--points", "--h", "--operator", "--output", "--config"],
    "compare": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                "--t-end", "--points", "--h", "--output", "--config"],
    "surface": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                "--t-end", "--points", "--vary", "--from", "--to", "--step",
                "--at-t", "--n-terms", "--mode", "--output", "--config"],
    "convergence": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                    "--t-end", "--points", "--n-max", "--mode", "--output", "--config"],
    "stability": ["--r", "--k", "--z0", "--mu", "--lambda", "--b-norm",
                  "--t-end", "--h", "--operator", "--epsilons",
                  "--output", "--config"],
}

_CONFIG_ALIASES = {"lambda": "lam", "from": "sweep_from", "to": "sweep_to",
                   "step": "sweep_step"}

_DEFAULT_SWEEPS = {"mu": (0.1, 0.9, 0.1), "lambda": (0.1, 1.0, 0.1)}


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved invocation: command, model, grid and sweep settings."""

    command: str
    params: ModelParams
    t_end: float
    points: int
    h: float
    operator: str
    n_terms: int
    n_max: int
    mode: str
    vary: str | None
    sweep_from: float | None
    sweep_to: float | None
    sweep_step: float | None
    at_t: float
    epsilons: tuple
    output: str | None


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _time_grid(spec: RunSpec) -> np.ndarray:
    return np.linspace(0.0, spec.t_end, spec.points)


def _sweep_values(spec: RunSpec, axis: str) -> list:
    lo_default, hi_default, step_default = _DEFAULT_SWEEPS[axis]
    lo = lo_default if spec.sweep_from is None else spec.sweep_from
    hi = hi_default if spec.sweep_to is None else spec.sweep_to
    step = step_default if spec.sweep_step is None else spec.sweep_step
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if hi < lo:
        raise ValueError(f"sweep range is empty: from {lo} to {hi}")
    count = int(math.floor((hi - lo) / step + 1e-9))
    values = [lo + i * step for i in range(count + 1)]
    if axis == "mu":
        values = [min(v, 1.0) for v in values]
        if any(not 0.0 < v <= 1.0 for v in values):
            raise ValueError("mu sweep values must lie in (0, 1]")
    else:
        if any(not 0.0 <= v <= 1.0 + 1e-12 for v in values):
            raise ValueError("lambda sweep values must lie in [0, 1]")
        values = [min(v, 1.0) for v in values]
    return values


def _cmd_classical(spec: RunSpec):
    rows = [
        f"{_fmt(t)},{_fmt(classical_exact(spec.params, t))}"
        for t in _time_grid(spec)
    ]
    return "t,z", rows


def _cmd_ml_eval(spec: RunSpec):
    lo = 0.0 if spec.sweep_from is None else spec.sweep_from
    hi = spec.t_end if spec.sweep_to is None else spec.sweep_to
    if hi <= lo:
        raise ValueError(f"ml-eval range is empty: from {lo} to {hi}")
    args = np.linspace(lo, hi, spec.points)
    rows = [
        f"{_fmt(x)},{_fmt(mittag_leffler(spec.params.mu, x))}" for x in args
    ]
    return "t,z", rows


def _cmd_exact_lambda0(spec: RunSpec):
    if spec.vary is None:
        rows = [
            f"{_fmt(t)},{_fmt(abc_exact_lambda0(spec.params, t))}"
            for t in _time_grid(spec)
        ]
        return "t,z", rows
    if spec.vary != "mu":
        raise ValueError("exact-lambda0 supports only --vary mu")
    rows = []
    for mu in _sweep_values(spec, "mu"):
        p = replace(spec.params, mu=mu)
        for t in _time_grid(spec):
            rows.append(f"{_fmt(t)},{_fmt(mu)},{_fmt(abc_exact_lambda0(p, t))}")
    return "t,mu,z", rows


def _cmd_hsv(spec: RunSpec):
    sol = hsv_iterate(spec.params, spec.n_terms, spec.mode)
    ts = _time_grid(spec)
    rows = [f"{_fmt(t)},{_fmt(z)}" for t, z in zip(ts, hsv_evaluate(sol, ts).value)]
    return "t,z", rows


def _cmd_closed_form(spec: RunSpec):
    rows = [
        f"{_fmt(t)},{_fmt(geometric_closed_form(spec.params, t).value)}"
        for t in _time_grid(spec)
    ]
    return "t,z", rows


def _solver_config(spec: RunSpec) -> SolveConfig:
    return SolveConfig(operator=spec.operator, t_end=spec.t_end, h=spec.h)


def _cmd_solve(spec: RunSpec):
    traj = solve(spec.params, _solver_config(spec))
    ts = _time_grid(spec)
    zs = np.interp(ts, traj.grid, traj.values)
    rows = [f"{_fmt(t)},{_fmt(z)}" for t, z in zip(ts, zs)]
    return "t,z", rows


def _cmd_compare(spec: RunSpec):
    cfg = SolveConfig(operator=OperatorKind.ABC, t_end=spec.t_end, h=spec.h)
    trio = compare_operators(spec.params, cfg)
    ts = _time_grid(spec)
    sampled = [np.interp(ts, traj.grid, traj.values)
               for traj in (trio.abc, trio.cfc, trio.caputo)]
    rows = [
        f"{_fmt(t)},{_fmt(a)},{_fmt(c)},{_fmt(d)}"
        for t, a, c, d in zip(ts, *sampled)
    ]
    return "t,z_abc,z_cfc,z_caputo", rows


def _cmd_surface(spec: RunSpec):
    if spec.vary is None:
        raise ValueError("surface requires --vary (mu | lambda | both)")
    ts = _time_grid(spec)
    rows = []
    if spec.vary in ("mu", "lambda"):
        field = "mu" if spec.vary == "mu" else "lam"
        for v in _sweep_values(spec, spec.vary):
            sol = hsv_iterate(replace(spec.params, **{field: v}), spec.n_terms, spec.mode)
            for t, z in zip(ts, hsv_evaluate(sol, ts).value):
                rows.append(f"{_fmt(t)},{_fmt(v)},{_fmt(z)}")
        return f"t,{spec.vary},z", rows
    if spec.vary == "both":
        if not (spec.sweep_from is None and spec.sweep_to is None
                and spec.sweep_step is None):
            raise ValueError("custom from/to/step are not supported with --vary both")
        if spec.at_t < 0.0:
            raise ValueError(f"at-t must be >= 0, got {spec.at_t}")
        for mu in _sweep_values(spec, "mu"):
            for lam in _sweep_values(spec, "lambda"):
                p = replace(spec.params, mu=mu, lam=lam)
                sol = hsv_iterate(p, spec.n_terms, spec.mode)
                value = hsv_evaluate(sol, spec.at_t).value
                rows.append(f"{_fmt(mu)},{_fmt(lam)},{_fmt(value)}")
        return "mu,lambda,z", rows
    raise ValueError(f"vary must be one of mu | lambda | both, got {spec.vary!r}")


def _cmd_convergence(spec: RunSpec):
    sol = hsv_iterate(spec.params, spec.n_max, spec.mode)
    ts = _time_grid(spec)
    values = sol.term_values(ts)
    # x_0 = z0 > 0, so these running sums equal sum() from 0 bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        partials = np.cumsum(values, axis=0)
    rows = [f"{n},{_fmt(t)},{_fmt(partial)},{_fmt(abs(term))}"
            for n in range(1, spec.n_max + 1)
            for t, partial, term in zip(ts, partials[n], values[n])]
    return "n_terms,t,partial_sum,last_term_abs", rows


def _cmd_stability(spec: RunSpec):
    cfg = _solver_config(spec)
    eps = sorted(spec.epsilons)
    report = hyers_ulam_probe(spec.params, cfg, eps)
    rows = [
        f"{_fmt(e)},{_fmt(d)},{_fmt(c)}"
        for e, d, c in zip(report.epsilons, report.deviations, report.c_estimates)
    ]
    return "epsilon,max_deviation,c_estimate", rows


_DISPATCH = {
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


def run(spec: RunSpec):
    """Execute one resolved invocation; returns (header, rows)."""
    return _DISPATCH[spec.command](spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclogistic",
        description="Delayed logistic growth with fractional memory: "
                    "closed forms, series solutions and numerical solvers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        sub = subparsers.add_parser(command, help=f"{command} dataset")
        for flag in flags:
            dest, caster, help_text = _FLAGS[flag]
            kwargs = {"dest": dest, "type": caster, "default": None, "help": help_text}
            if flag == "--operator":
                kwargs["choices"] = [kind.value for kind in OperatorKind]
            elif flag == "--mode":
                kwargs["choices"] = ["general", "square"]
            elif flag == "--vary":
                kwargs["choices"] = (
                    ["mu"] if command == "exact-lambda0" else ["mu", "lambda", "both"]
                )
            sub.add_argument(flag, **kwargs)
    return parser


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    resolved = {}
    for key, value in raw.items():
        dest = key.lstrip("-").replace("-", "_")
        dest = _CONFIG_ALIASES.get(dest, dest)
        resolved[dest] = value
    return resolved


def _parse_epsilons(text: str):
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"epsilons must be comma-separated numbers, got {text!r}")
    if not values:
        raise ValueError(f"epsilons must be nonempty, got {text!r}")
    return values


_CASTERS = {dest: caster for dest, caster, _ in _FLAGS.values()}


def _build_spec(ns: argparse.Namespace, config: dict) -> RunSpec:
    # keys the commands do not know are ignored so one config can serve
    # several commands
    config = {k: v for k, v in config.items() if k in _DEFAULTS}

    def resolved(dest):
        value = getattr(ns, dest, None)  # explicit flag wins
        if value is not None:
            return value
        if config.get(dest) is not None:
            return _CASTERS[dest](config[dest])
        return _DEFAULTS[dest]

    params = ModelParams(**{dest: resolved(dest) for dest in _MODEL_DESTS})
    points = int(resolved("points"))
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    t_end = float(resolved("t_end"))
    if t_end <= 0.0:
        raise ValueError(f"t-end must be > 0, got {t_end}")
    n_terms = int(resolved("n_terms"))
    if n_terms < 1:
        raise ValueError(f"n-terms must be >= 1, got {n_terms}")
    n_max = int(resolved("n_max"))
    if n_max < 1:
        raise ValueError(f"n-max must be >= 1, got {n_max}")
    return RunSpec(
        command=ns.command,
        params=params,
        t_end=t_end,
        points=points,
        h=float(resolved("h")),
        operator=str(resolved("operator")),
        n_terms=n_terms,
        n_max=n_max,
        mode=str(resolved("mode")),
        vary=resolved("vary"),
        sweep_from=resolved("sweep_from"),
        sweep_to=resolved("sweep_to"),
        sweep_step=resolved("sweep_step"),
        at_t=float(resolved("at_t")),
        epsilons=_parse_epsilons(str(resolved("epsilons"))),
        output=resolved("output"),
    )


def _emit(header: str, rows, output: str | None) -> None:
    text = "\n".join([header, *rows]) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        config = _load_config(ns.config) if getattr(ns, "config", None) else {}
        spec = _build_spec(ns, config)
        header, rows = run(spec)
    except (SolverError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(header, rows, spec.output)
    return 0
