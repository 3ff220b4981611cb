"""Span recorder for the traced benchmark run, installed from outside the package.

`Tracer.install` replaces every public module-level function of the weakkam
layers (and `ActionKernel.at` / `ActionKernel.power`) with a wrapper that
records one span per call: name, layer, parent span, start, end.  The
package binds many imports by name (`from .semigroup import lax_minus`), so
each wrapper is written into every weakkam module that holds the original
function, not only the one that defines it.  `uninstall` puts the originals
back.

Self time of a span is its duration minus the time of the wrapped calls made
inside it; `ActionKernel.power` recurses, so only self time adds up.  The
spans stay in memory and are summarised by `layer_metrics` at the end.

`tracemalloc` runs only inside outermost semigroup calls, for
`semigroup.peak_alloc_mib`: it slows every Python allocation, and left on
for the whole pass it inflated the Python-heavy layers (RK4 flow, label
correction) several times over.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# Modules of src/weakkam, one layer each (errors.py defines no functions).
LAYERS = ("cli", "semigroup", "metric", "aubry", "subsol", "tonelli", "env",
          "hamiltonian", "config", "grid")
METHODS = {"semigroup": {"ActionKernel": ("at", "power")}}

# Function metrics report self time; these groups add several functions up.
SELF_TIME_GROUPS = {
    "semigroup.ladder_s": ("semigroup.ActionKernel.at", "semigroup.ActionKernel.power"),
    "semigroup.build_kernel_s": ("semigroup.build_kernel",),
    "semigroup.lax_minus_s": ("semigroup.lax_minus",),
    "semigroup.lax_plus_s": ("semigroup.lax_plus",),
    "semigroup.orbit_s": ("semigroup.semigroup_orbit",),
    "semigroup.discrete_critical_value_s": ("semigroup.discrete_critical_value",),
    "semigroup.check_corrector_s": ("semigroup.check_corrector",),
    "semigroup.check_monotone_s": ("semigroup.check_monotone_semigroup",),
    "metric.critical_value_free_s": ("metric.critical_value_free",),
    "metric.build_cost_graph_s": ("metric.build_cost_graph", "metric.support_sigma"),
    "metric.semidistance_s": ("metric.semidistance",),
    "aubry.build_library_s": ("aubry.build_library",),
    "aubry.verify_member_s": ("aubry.verify_member",),
    "aubry.detect_aubry_s": ("aubry.detect_aubry",),
    "aubry.classical_aubry_s": ("aubry.classical_aubry",),
    "aubry.lax_extension_s": ("aubry.lax_extension",),
    "subsol.build_strict_s": ("subsol.build_strict_convex",
                              "subsol.build_strict_strictly_convex",
                              "subsol.sup_convolution_time"),
    "subsol.check_strict_s": ("subsol.check_strict",),
    "tonelli.bernard_regularize_s": ("tonelli.bernard_regularize",),
    "tonelli.kernel_semiconcavity_s": ("tonelli.kernel_semiconcavity",),
    "tonelli.regular_window_s": ("tonelli.regular_window",),
    "tonelli.flow_integrate_s": ("tonelli.flow_integrate",),
    "env.sample_realization_s": ("env.sample_realization",),
    "hamiltonian.kappa_s": ("hamiltonian.kappa",),
    "config.load_config_s": ("config.load_config",),
    "grid.save_gridfn_csv_s": ("grid.save_gridfn_csv",),
}
# CLI stages report inclusive time: the stage's whole duration.
STAGES = ("critical", "kernel", "aubry", "strict", "regularize")
CALL_COUNTS = {
    "cli.stage_strict_calls": "cli.stage_strict",
    "semigroup.build_kernel_calls": "semigroup.build_kernel",
    "semigroup.at_calls": "semigroup.ActionKernel.at",
    "semigroup.lax_minus_calls": "semigroup.lax_minus",
    "metric.critical_value_free_calls": "metric.critical_value_free",
    "metric.build_cost_graph_calls": "metric.build_cost_graph",
    "aubry.verify_member_calls": "aubry.verify_member",
    "hamiltonian.kappa_calls": "hamiltonian.kappa",
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child = 0.0


def _count_bisections(counts, args, kwargs, result):
    counts["metric.bisect_iterations"] += int(result.iterations)


def _count_orbit_steps(counts, args, kwargs, result):
    n_steps = kwargs["n_steps"] if "n_steps" in kwargs else args[2]
    counts["semigroup.orbit_steps"] += int(n_steps)


def _count_library(counts, args, kwargs, result):
    counts["aubry.library_members"] += len(result.verified)
    counts["aubry.library_verified"] += sum(bool(v) for v in result.verified)


RESULT_HOOKS = {
    "metric.critical_value_free": _count_bisections,
    "semigroup.semigroup_orbit": _count_orbit_steps,
    "aubry.build_library": _count_library,
}


class Tracer:
    """Wraps the weakkam layers and keeps one span per wrapped call."""

    def __init__(self, error_type):
        self.error_type = error_type   # weakkam.errors.WeakKamError
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.errors = Counter()
        self.semigroup_peak = 0
        self._undo = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "weakkam" or name.startswith("weakkam."))]
        for layer in LAYERS:
            mod = sys.modules[f"weakkam.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if layer == "cli" and attr == "main":
                    continue   # an op is one call of main; the benchmark times it
                wrapper = self._wrap(fn, layer, f"{layer}.{attr}")
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._undo.append((other, name, fn))
                            setattr(other, name, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, layer, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    @contextlib.contextmanager
    def recording(self):
        """Record the calls made inside the block, and only those."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        hook = RESULT_HOOKS.get(name)
        measure_alloc = layer == "semigroup"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, layer, parent)
            outermost_alloc = measure_alloc and not tracemalloc.is_tracing()
            if outermost_alloc:
                tracemalloc.start()
            tracer.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer.error_type:
                if parent is None or parent.layer != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                tracer.spans.append(span)
                if outermost_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.semigroup_peak = max(tracer.semigroup_peak, peak)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- summary -------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: id, parent id, name, layer, times."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else -1
                fh.write(json.dumps({"id": i, "parent": parent, "name": s.name,
                                     "layer": s.layer, "start": s.start,
                                     "end": s.end}) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass (totals divided by the number of passes)."""
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls = Counter()
    stage_time = defaultdict(float)
    for s in tracer.spans:
        own = (s.end - s.start) - s.child
        self_by_name[s.name] += own
        self_by_layer[s.layer] += own
        calls[s.name] += 1
        if s.name.startswith("cli.stage_"):   # stages never nest in themselves
            stage_time[s.name] += s.end - s.start
    out = {}
    for stage in STAGES:
        out[f"cli.stage_{stage}_s"] = stage_time[f"cli.stage_{stage}"]
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = sum(self_by_name[n] for n in names)
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls[name]
    out["semigroup.orbit_steps"] = tracer.counts["semigroup.orbit_steps"]
    out["metric.bisect_iterations"] = tracer.counts["metric.bisect_iterations"]
    members = tracer.counts["aubry.library_members"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
        out[f"{layer}.errors"] = tracer.errors[layer]
    out = {k: v / passes for k, v in out.items()}
    # ratios and peaks are not per-pass totals
    out["aubry.library_verified_ratio"] = (
        tracer.counts["aubry.library_verified"] / members if members else 0.0)
    out["semigroup.peak_alloc_mib"] = tracer.semigroup_peak / 2**20
    return out
