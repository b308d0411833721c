"""fraclogistic benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solver_fine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # one JSON line per workload

Each workload runs in fresh single-threaded processes (``worker.py``).
Set-up is sampled in ``SETUP_SAMPLES`` processes of its own; the measured
process makes a warm-up pass, then timed passes for ``--seconds``.  Times
are scaled to a reference machine speed by ``calibrate.py``.  The warm-up
outputs are then checked here, outside the timed region, against the
cross-route oracles in ``checks.py``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A full record of the run (context,
every pass time, per-span table) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "err_digits": "digits", "ok_frac": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us") or name.endswith("us_per_step"):
        return "us"
    if name == "cli.bytes":
        return "bytes"
    if name.startswith(("share.", "trace.")) or name.endswith(("_ratio", "_per_step", "order_obs")):
        return "ratio"
    return "count"


def start_worker(argv: list):
    """Start a worker and wait for its ``ready`` line; returns (process, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREAD_PINS})
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def finish(proc) -> str:
    """Wait for a worker (it stops itself after ``worker.TIME_LIMIT_S``)."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def context() -> dict:
    """Machine and toolchain facts that the figures depend on."""
    import mpmath
    import numpy
    import scipy

    caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE"):
        if name in os.sysconf_names:
            caches[name[3:].lower()] = os.sysconf(name)
    pkg = os.path.join(SRC, "fraclogistic")
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "caches_bytes": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "src_lines": src_lines}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the result object and writes the full record."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups, setups_cal = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            before = calibrate.loop_s(rounds=3)
            proc, ready = start_worker(argv + ["--setup-only"])
            finish(proc)
            setups.append(ready)
            setups_cal.append(calibrate.scaled(ready, before, calibrate.loop_s(rounds=3)))
    proc, _ = start_worker(argv)
    report = json.loads(finish(proc).strip().splitlines()[-1])

    import checks

    ops = workloads.build(workload, seed).ops
    verdicts = [checks.verdict(op, code, text)
                for op, code, text in zip(ops, report["codes"], report["outputs"])]
    failed = sum(report["passes"] if not v.ok else n
                 for v, n in zip(verdicts, report["failures"]))
    attempted = report["passes"] * len(ops)

    if trace:
        layers = report["layers"]
        layers["solvers.order_obs"] = checks.observed_order(ops, verdicts)
        layers["cli.rows"] = report["rows"]
        layers["cli.bytes"] = report["bytes"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        values = {"wall_s": statistics.median(report["pass_cal_s"]),
                  "setup_s": statistics.median(setups_cal),
                  "peak_rss_mb": report["peak_rss_mb"],
                  "err_digits": checks.err_digits(verdicts),
                  "ok_frac": (attempted - failed) / attempted}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  context=context(), setup_samples_s=setups, setup_cal_s=setups_cal,
                  pass_s=report["pass_s"], pass_cal_s=report["pass_cal_s"],
                  traced_pass_s=report.get("traced_pass_s"),
                  traced_pass_cal_s=report.get("traced_pass_cal_s"),
                  warmup_s=report["warmup_s"],
                  span_table=report.get("names"),
                  checks=[{"argv": " ".join(op.argv), "ok": v.ok, "worst_rel_err": v.worst}
                          for op, v in zip(ops, verdicts)])
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(workloads.WORKLOADS), "all"],
                        help="one workload, or all of them (one JSON line each)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fraclogistic", "__init__.py")):
        print(f"error: no fraclogistic sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    for name in workloads.WORKLOADS:
        result = run(name, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": name, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
