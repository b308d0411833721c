"""In-memory spans and counters around the package's layers, for traced runs.

The package imports with ``from .x import y``, so a function is wrapped
where it is looked up: the name is replaced in every importing module
(``fraclogistic.cli.solve``, ``fraclogistic.stability.solve`` ...), not in
the module that defines it.  Nothing in ``src/`` changes.

Mid-level calls record a span ``[name, start, end, parent]``; the hot
leaves ``logistic_rhs`` and ``gamma_fn`` only bump counters, since a span
would cost more than the call.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import importlib
import statistics
import time

# Mittag-Leffler arguments below this use the asymptotic tail.
ML_TAIL_EDGE = -50.0

LAYERS = ("cli", "special", "closed_forms", "series", "adomian", "hsv",
          "solvers", "stability")


def _ml_bucket(mu, arg, *rest, **kw) -> str:
    if arg >= 0.0:
        return "pos"
    return "neg" if arg >= ML_TAIL_EDGE else "tail"


class _ReadTracked(list):
    """Adomian result list that counts which polynomials the caller reads."""

    def __init__(self, items, counts):
        super().__init__(items)
        self._counts = counts
        self._read = set()

    def _mark(self, indices):
        for i in indices:
            if i not in self._read:
                self._read.add(i)
                self._counts["adomian.polys_used"] += 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            self._mark(range(*index.indices(len(self))))
        else:
            self._mark([index % len(self)])
        return super().__getitem__(index)

    def __iter__(self):
        self._mark(range(len(self)))
        return super().__iter__()


def _observe_adomian(tracer, polys):
    tracer.counts["adomian.polys_built"] += len(polys)
    return _ReadTracked(polys, tracer.counts)


def _observe_solve(tracer, traj):
    tracer.counts["solvers.steps"] += len(traj.grid) - 1
    return traj


def _observe_iterate(tracer, sol):
    tracer.counts["hsv.terms"] += len(sol.terms)
    return sol


# (span name, defining module, importing modules, bucket, result observer)
SPANS = (
    ("cli.main", "fraclogistic.cli", ("fraclogistic.cli",), None, None),
    ("solvers.solve", "fraclogistic.solvers",
     ("fraclogistic.cli", "fraclogistic.solvers", "fraclogistic.stability"),
     None, _observe_solve),
    ("solvers.compare_operators", "fraclogistic.solvers", ("fraclogistic.cli",),
     None, None),
    ("stability.hyers_ulam_probe", "fraclogistic.stability", ("fraclogistic.cli",),
     None, None),
    ("closed_forms.abc_exact_lambda0", "fraclogistic.closed_forms",
     ("fraclogistic.cli",), None, None),
    ("closed_forms.classical_exact", "fraclogistic.closed_forms",
     ("fraclogistic.cli",), None, None),
    ("special.mittag_leffler", "fraclogistic.special",
     ("fraclogistic.cli", "fraclogistic.closed_forms"), _ml_bucket, None),
    ("hsv.hsv_iterate", "fraclogistic.hsv", ("fraclogistic.cli",), None,
     _observe_iterate),
    ("hsv.hsv_evaluate", "fraclogistic.hsv", ("fraclogistic.cli",), None, None),
    ("hsv.geometric_closed_form", "fraclogistic.hsv", ("fraclogistic.cli",),
     None, None),
    ("adomian.adomian_delayed_product", "fraclogistic.adomian",
     ("fraclogistic.hsv",), None, _observe_adomian),
    *((f"series.{fn}", "fraclogistic.series", ("fraclogistic.hsv",), None, None)
      for fn in ("sumudu_forward", "sumudu_inverse", "kernel_multiply",
                 "series_add", "series_scale", "eval_series")),
    *((f"series.{fn}", "fraclogistic.series", ("fraclogistic.adomian",), None, None)
      for fn in ("series_product", "series_add", "delay_rescale")),
)

# (counter name, defining module, importing modules)
COUNTERS = (
    ("model.logistic_rhs", "fraclogistic.model", ("fraclogistic.solvers",)),
    ("special.gamma_fn", "fraclogistic.special",
     ("fraclogistic.special", "fraclogistic.series", "fraclogistic.hsv",
      "fraclogistic.solvers")),
)


class Tracer:
    """Installs wrappers, records one pass at a time, restores on uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._saved = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _span(self, name, fn, bucket, observe):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if bucket is None else f"{name}.{bucket(*args, **kwargs)}"
            record = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            return result if observe is None else observe(self, result)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, attr, wrapper, importers):
        for module_name in importers:
            module = importlib.import_module(module_name)
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, home, importers, bucket, observe in SPANS:
            attr = name.split(".")[1]
            fn = getattr(importlib.import_module(home), attr)
            self._patch(attr, self._span(name, fn, bucket, observe), importers)
        for name, home, importers in COUNTERS:
            attr = name.split(".")[1]
            fn = getattr(importlib.import_module(home), attr)
            self._patch(attr, self._counter(name, fn), importers)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _per_name(self):
        """Calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.Counter()
        own = collections.Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - inner
        return calls, total, own

    def pass_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the pass just recorded, which took ``wall`` s."""
        calls, total, own = self._per_name()

        def summed(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        c = self.counts
        m = {}
        for bucket in ("pos", "neg", "tail"):
            n = calls[f"special.mittag_leffler.{bucket}"]
            s = total[f"special.mittag_leffler.{bucket}"]
            m[f"special.ml_{bucket}_calls"] = n
            m[f"special.ml_{bucket}_s"] = s
            if bucket != "tail":
                m[f"special.ml_{bucket}_us"] = 1e6 * s / n if n else 0.0
        m["special.gamma_calls"] = c["special.gamma_fn"]
        m["closed_forms.calls"] = summed(calls, "closed_forms.")
        m["closed_forms.self_s"] = summed(own, "closed_forms.")
        m["series.calls"] = summed(calls, "series.")
        m["series.s"] = summed(total, "series.")
        m["adomian.calls"] = calls["adomian.adomian_delayed_product"]
        m["adomian.s"] = total["adomian.adomian_delayed_product"]
        m["adomian.polys_built"] = c["adomian.polys_built"]
        m["adomian.polys_used"] = c["adomian.polys_used"]
        m["adomian.useful_ratio"] = (c["adomian.polys_used"] / c["adomian.polys_built"]
                                     if c["adomian.polys_built"] else 0.0)
        m["hsv.iterate_calls"] = calls["hsv.hsv_iterate"]
        m["hsv.iterate_s"] = total["hsv.hsv_iterate"]
        m["hsv.iterate_self_s"] = own["hsv.hsv_iterate"]
        m["hsv.evaluate_calls"] = calls["hsv.hsv_evaluate"]
        m["hsv.evaluate_s"] = total["hsv.hsv_evaluate"]
        m["hsv.terms"] = c["hsv.terms"]
        steps = c["solvers.steps"]
        m["solvers.solve_calls"] = calls["solvers.solve"]
        m["solvers.steps"] = steps
        m["solvers.solve_s"] = total["solvers.solve"]
        m["solvers.us_per_step"] = 1e6 * total["solvers.solve"] / steps if steps else 0.0
        m["solvers.errors"] = c["solvers.solve.raised.SolverError"]
        m["model.rhs_calls"] = c["model.logistic_rhs"]
        m["model.rhs_per_step"] = c["model.logistic_rhs"] / steps if steps else 0.0
        m["stability.probe_calls"] = calls["stability.hyers_ulam_probe"]
        m["stability.self_s"] = own["stability.hyers_ulam_probe"]
        m["cli.commands"] = calls["cli.main"]
        m["cli.self_s"] = own["cli.main"]
        for layer in LAYERS:
            m[f"share.{layer}"] = summed(own, layer + ".") / wall
        return m

    def name_table(self) -> dict:
        """Calls, inclusive and self seconds per span name, for the pass just recorded."""
        calls, total, own = self._per_name()
        return {name: {"calls": calls[name], "s": total[name], "self_s": own[name]}
                for name in sorted(calls)}


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes (counts stay whole numbers)."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        whole = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if whole else statistics.median)(values)
    return out
