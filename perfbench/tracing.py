"""Outside-in layer tracing: wrappers installed on the package's modules.

The traced run replaces public functions of ``cli``, ``dispersion``,
``flowfield`` and ``verify`` with wrappers, at every module attribute of the
package that holds the original function (``verify`` imports the flowfield
functions by name, so its own attributes are replaced too).  Nothing in the
package's source changes, and ``restore`` puts every original back.

Span targets record (name, start, end, parent span, op) in memory; count
targets only count calls, because timing the ~10^5 scalar field calls of a
verification op would dominate the trace.  A target that the package no
longer has is recorded as absent and skipped.
"""

import inspect
import os
import sys
from collections import Counter
from time import perf_counter

SCALAR_FUNCTIONS = ("position", "velocity", "acceleration", "label_jacobian",
                    "jacobian", "velocity_label_gradient", "dynamic_pressure",
                    "pressure", "pressure_gradient", "vorticity", "sheet_elevation")
PACKAGE = "pollardwaves"
VERIFY_CHECKS = ("check_euler", "check_pressure_consistency", "check_boundary",
                 "check_incompressibility", "check_vorticity")

# (layer, attribute, kind); kind "span" is timed, "count" only counted
TARGETS = (
    ("cli", "main", "span"),
    ("cli", "solve_configured", "span"),
    ("cli", "write_table", "span"),
    ("dispersion", "solve_dispersion", "span"),
    ("dispersion", "solve_equatorial", "span"),
    ("dispersion", "derive_parameters", "span"),
    # private: one call per interface-solver iteration
    ("dispersion", "_interface_map", "count"),
    ("flowfield", "sample_flow", "span"),
    ("flowfield", "invert_map", "span"),
    *(("flowfield", name, "count") for name in SCALAR_FUNCTIONS),
    ("verify", "run_all", "span"),
    *(("verify", name, "span") for name in VERIFY_CHECKS),
)


class Tracer:
    """Spans, call counts and per-layer error counts of one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = Counter()  # calls per target; extra tallies by hook
        self.errors = Counter()  # exceptions leaving a layer, once each
        self.absent = []
        self.op = None
        self._stack = []
        self._seen_errors = {}   # layer -> ids of counted exceptions
        self._keep = []          # counted exceptions, so ids stay unique
        self._patched = []

    # -- wrappers ---------------------------------------------------------
    def _error(self, layer, exc):
        seen = self._seen_errors.setdefault(layer, set())
        if id(exc) not in seen:
            seen.add(id(exc))
            self._keep.append(exc)
            self.errors[layer] += 1

    def _span(self, layer, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks reading results from outside ------------------------------
    def _note_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def _write_table_hook(self, fn):
        signature = inspect.signature(fn)

        def hook(args, kwargs, _result):
            try:
                bound = signature.bind(*args, **kwargs).arguments
                values = len(bound["columns"]) * len(bound["rows"])
                path = bound["path"]
            except (TypeError, KeyError):
                self._note_absent("cli.write_table(path, columns, rows)")
                return
            self.counts["cli.write_table_values"] += values
            if path != "-":
                self.counts["cli.write_table_bytes"] += os.path.getsize(path)
        return hook

    def _run_all_hook(self, _fn):
        def hook(_args, _kwargs, reports):
            try:
                samples = sum(r.n_samples for r in reports)
                failed = sum(not r.passed for r in reports)
            except (TypeError, AttributeError):
                self._note_absent("verify.run_all(reports)")
                return
            self.counts["verify.samples"] += samples
            self.counts["verify.failed_checks"] += failed
        return hook

    # -- install / restore -----------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        hooks = {"cli.write_table": self._write_table_hook,
                 "verify.run_all": self._run_all_hook}
        for layer, attr, kind in TARGETS:
            name = f"{layer}.{attr}"
            owner = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(owner, attr, None)
            if not callable(original):
                self._note_absent(name)
                continue
            if kind == "span":
                hook = hooks[name](original) if name in hooks else None
                wrapper = self._span(layer, name, original, hook)
            else:
                wrapper = self._count(layer, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []


def self_times(spans):
    """Per span: duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (name, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer, n_ops):
    """Per-op means of the layer times and counts recorded by ``tracer``."""
    spans = tracer.spans
    own = self_times(spans)
    busy, self_busy, calls = Counter(), Counter(), Counter()
    for span, self_s in zip(spans, own):
        name, start, end = span[0], span[1], span[2]
        busy[name] += end - start
        self_busy[name] += self_s
        calls[name] += 1
    counts = tracer.counts

    def per_op(value):
        return value / n_ops

    return {
        "cli.self_s": (per_op(self_busy["cli.main"] + self_busy["cli.solve_configured"]), "s"),
        "cli.write_table_s": (per_op(busy["cli.write_table"]), "s"),
        "cli.write_table_values": (per_op(counts["cli.write_table_values"]), "count"),
        "cli.write_table_bytes": (per_op(counts["cli.write_table_bytes"]), "B"),
        "dispersion.solve_s": (per_op(busy["dispersion.solve_dispersion"]
                                      + busy["dispersion.solve_equatorial"]), "s"),
        "dispersion.derive_parameters_s": (per_op(busy["dispersion.derive_parameters"]), "s"),
        "dispersion.calls": (per_op(calls["dispersion.solve_dispersion"]
                                    + calls["dispersion.solve_equatorial"]
                                    + calls["dispersion.derive_parameters"]), "count"),
        "dispersion.interface_map_calls": (per_op(counts["dispersion._interface_map"]), "count"),
        "dispersion.errors": (per_op(tracer.errors["dispersion"]), "count"),
        "flowfield.sample_flow_s": (per_op(busy["flowfield.sample_flow"]), "s"),
        "flowfield.sample_flow_calls": (per_op(calls["flowfield.sample_flow"]), "count"),
        "flowfield.invert_map_s": (per_op(busy["flowfield.invert_map"]), "s"),
        "flowfield.invert_map_calls": (per_op(calls["flowfield.invert_map"]), "count"),
        "flowfield.scalar_calls": (per_op(sum(counts[f"flowfield.{n}"]
                                              for n in SCALAR_FUNCTIONS)), "count"),
        "flowfield.errors": (per_op(tracer.errors["flowfield"]), "count"),
        "verify.run_all_s": (per_op(busy["verify.run_all"]), "s"),
        **{f"verify.{check}_s": (per_op(busy[f"verify.{check}"]), "s")
           for check in VERIFY_CHECKS},
        "verify.samples": (per_op(counts["verify.samples"]), "count"),
        "verify.failed_checks": (per_op(counts["verify.failed_checks"]), "count"),
    }


def span_records(tracer):
    """Spans as plain lists, names interned into a table, for the trace file."""
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    return {"names": names,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [[index[n], start, end, parent, op]
                      for n, start, end, parent, op in tracer.spans]}
