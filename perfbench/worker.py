"""One fresh benchmark process: set up, run timed passes, report as JSON.

``run.py`` starts this script once per set-up sample and once for the
measured run.  It prints ``ready`` as soon as the package is imported and
every route the workload uses has been called once; the parent times the
process up to that line.  A measured run then makes one warm-up pass and
timed passes until ``--seconds`` have elapsed, timing them raw and
calibrated (``calibrate.py``), and prints one JSON line: pass times, the
warm-up pass's CSV outputs (the parent checks them),
per-operation failure counts and peak resident memory.  Every later pass
must reproduce the warm-up outputs byte for byte.

With ``--trace 1`` half of the time goes to untraced passes and half to
passes under :class:`tracing.Tracer`; the difference is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# A worker that hangs is killed by SIGALRM, so its parent never waits past
# the 180 s a run may take.
TIME_LIMIT_S = 160


def call(cli, argv) -> tuple:
    """Run one command in-process; returns (exit code or None, stdout text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception:  # an escaped exception is a failed operation, not a crash
        traceback.print_exc()
        code = None
    return code, buf.getvalue()


def one_pass(cli, ops) -> tuple:
    """Run every operation once; returns (calibrated clock, results)."""
    gc.collect()
    clock = calibrate.SegmentClock()
    results = []
    for op in ops:
        start = time.perf_counter()
        results.append(call(cli, op.argv))
        clock.lap(time.perf_counter() - start)
    clock.close()
    return clock, results


def timed_passes(cli, ops, reference, failures, seconds, tracer=None):
    """Passes until ``seconds`` elapse; counts outputs that differ from ``reference``.

    Returns the raw pass times, the calibrated pass times and, when tracing,
    each pass's per-layer metrics.
    """
    raw, calibrated, per_pass = [], [], []
    start = time.perf_counter()
    while len(raw) < MIN_PASSES or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        clock, results = one_pass(cli, ops)
        raw.append(clock.raw)
        calibrated.append(clock.calibrated)
        if tracer is not None:
            per_pass.append(tracer.pass_metrics(clock.raw))
        for i, (got, ref) in enumerate(zip(results, reference)):
            if got != ref or got[0] != 0:
                failures[i] += 1
    return raw, calibrated, per_pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    signal.alarm(TIME_LIMIT_S)

    work = workloads.build(args.workload, args.seed)
    import fraclogistic.cli as cli

    for argv in work.setup:
        code, _ = call(cli, argv)
        if code != 0:
            print(f"set-up command failed ({code}): {' '.join(argv)}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = work.ops
    warm, reference = one_pass(cli, ops)
    failures = [int(code != 0) for code, _ in reference]
    report = {"warmup_s": warm.raw,
              "codes": [code for code, _ in reference],
              "outputs": [text for _, text in reference],
              "rows": sum(max(text.count("\n") - 1, 0) for _, text in reference),
              "bytes": sum(len(text.encode()) for _, text in reference)}
    if args.trace:
        import tracing

        untraced, untraced_cal, _ = timed_passes(cli, ops, reference, failures,
                                                 args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_cal, per_pass = timed_passes(cli, ops, reference, failures,
                                                        args.seconds / 2, tracer)
            report["names"] = tracer.name_table()
        finally:
            tracer.uninstall()
        layers = tracing.median_metrics(per_pass)
        base = statistics.median(untraced_cal)
        layers["trace.overhead_frac"] = (statistics.median(traced_cal) - base) / base
        report.update(pass_s=untraced, pass_cal_s=untraced_cal, traced_pass_s=traced,
                      traced_pass_cal_s=traced_cal, layers=layers)
    else:
        report["pass_s"], report["pass_cal_s"], _ = timed_passes(
            cli, ops, reference, failures, args.seconds)
    report["failures"] = failures
    report["passes"] = 1 + len(report["pass_s"]) + len(report.get("traced_pass_s", ()))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
