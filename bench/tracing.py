"""Spans around calls into ptspec's layers, recorded from outside the package.

The traced run replaces module attributes such as ``ptspec.solver.discretize``
with timing wrappers.  ``find_bound_states``, ``positive_mass_instability_probe``
and the CLI look these names up at call time, so their inner calls go through
the wrappers; no ``src/`` code changes.  Spans are kept on a stack in memory
only: a layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# The layers a span is recorded for: (module, attribute, layer name).  The
# same function imported into two modules gets one wrapper in each.
TARGETS = (
    ("ptspec.solver", "find_bound_states", "solver.find_bound_states"),
    ("ptspec.solver", "targeted_eigenvalue", "solver.targeted_eigenvalue"),
    ("ptspec.solver", "discretize", "solver.discretize"),
    ("ptspec.solver", "eigenvector_asymptotics", "solver.eigenvector_asymptotics"),
    ("ptspec.solver", "full_spectrum", "solver.full_spectrum"),
    ("ptspec.solver", "evaluate", "contour.evaluate"),
    ("ptspec.solver", "derivatives", "contour.derivatives"),
    ("ptspec.solver", "evaluate_potential", "model.evaluate_potential"),
    ("ptspec.analytic", "spectrum_table", "analytic.spectrum_table"),
    ("ptspec.analytic", "figure3_data", "analytic.figure3_data"),
    ("ptspec.cli", "main", "cli.main"),
    ("ptspec.cli", "evaluate", "contour.evaluate"),
    ("ptspec.cli", "derivatives", "contour.derivatives"),
    ("ptspec.cli", "stability_verdict", "model.stability_verdict"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))
OPERATION = "op"  # root span: the benchmark's call into the program

UNMATCHED_REASONS = ("no_convergence", "off_target", "continuum", "fit_error", "other")


def unmatched_reason(reason: str) -> str:
    """Class of an UnmatchedSeed.reason; FitError messages carry no fixed prefix."""
    text = reason.lower()
    if "convergence" in text:
        return "no_convergence"
    if "off by" in text:
        return "off_target"
    if "continuum" in text or "plane-wave" in text:
        return "continuum"
    if "underflow" in text or "fit" in text:
        return "fit_error"
    return "other"


class Span:
    __slots__ = ("name", "start", "child_s", "seeds")

    def __init__(self, name):
        self.name = name
        self.start = perf_counter()
        self.child_s = 0.0
        self.seeds = []  # (shift, iterations) of targeted_eigenvalue calls below it


class Tracer:
    """Per-layer calls, self time and solver counts from a stack of open spans."""

    def __init__(self):
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def _open(self, name: str) -> Span:
        span = Span(name)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        duration = perf_counter() - span.start
        self.stack.pop()
        self.calls[span.name] += 1
        self.self_s[span.name] += duration - span.child_s
        if self.stack:
            self.stack[-1].child_s += duration

    @contextmanager
    def operation(self):
        """Root span around one benchmark operation."""
        span = self._open(OPERATION)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._close(span)
                if after is not None:
                    after(self, span, args, kwargs, result, exc)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace the TARGETS attributes with wrappers; restore them on exit."""
        saved = []
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _after_targeted(tracer, span, args, kwargs, result, exc):
    if result is not None:
        iterations = result.iterations
    else:  # ConvergenceFailure carries the iterations spent before giving up
        from ptspec.errors import ConvergenceFailure

        iterations = getattr(exc, "iterations", None) or 0
        if isinstance(exc, ConvergenceFailure):
            tracer.counts["solver.targeted_eigenvalue.nonconverged"] += 1
    tracer.counts["solver.targeted_eigenvalue.iterations"] += iterations
    shift = kwargs["shift"] if "shift" in kwargs else args[1]
    if tracer.stack and tracer.stack[-1].name == "solver.find_bound_states":
        tracer.stack[-1].seeds.append((shift, iterations))


def _after_find(tracer, span, args, kwargs, result, exc):
    if result is None:
        return
    tracer.counts["solver.seeds"] += len(result.matched) + len(result.unmatched)
    tracer.counts["solver.matched"] += len(result.matched)
    for u in result.unmatched:
        tracer.counts["solver.unmatched." + unmatched_reason(u.reason)] += 1
    # iterations spent on seeds this call did not match (searches are seeded
    # at the closed-form energy, so the shift identifies the level)
    unclaimed = Counter(m.level.energy for m in result.matched)
    for shift, iterations in span.seeds:
        if unclaimed[shift] > 0:
            unclaimed[shift] -= 1
        else:
            tracer.counts["solver.wasted_iterations"] += iterations


def _after_full_spectrum(tracer, span, args, kwargs, result, exc):
    op = kwargs["op"] if "op" in kwargs else args[0]
    tracer.counts["solver.full_spectrum.n3_computed"] += op.size ** 3


_AFTER = {
    "solver.targeted_eigenvalue": _after_targeted,
    "solver.find_bound_states": _after_find,
    "solver.full_spectrum": _after_full_spectrum,
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer counts and self times, and each self time's share of op time.

    Values are totals over the traced passes divided by the number of passes,
    so counts are exact per-pass integers when every pass does the same work.
    The base of every ``.share`` is ``trace.op_time_s``.
    """
    op_time = tracer.self_s[OPERATION] + sum(tracer.self_s[layer] for layer in LAYERS)
    out = {"trace.op_time_s": (op_time / passes, "s"),
           "trace.ops": (tracer.calls[OPERATION] / passes, "count")}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer] / passes, "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / passes, "s")
        out[f"{layer}.share"] = (ratio(tracer.self_s[layer], op_time), "frac")
    out["trace.unattributed.share"] = (ratio(tracer.self_s[OPERATION], op_time), "frac")

    counts = tracer.counts
    iterations = counts["solver.targeted_eigenvalue.iterations"]
    for name in ("solver.targeted_eigenvalue.iterations",
                 "solver.targeted_eigenvalue.nonconverged",
                 "solver.seeds", "solver.matched", "solver.full_spectrum.n3_computed",
                 *(f"solver.unmatched.{r}" for r in UNMATCHED_REASONS)):
        out[name] = (counts[name] / passes, "count")
    out["solver.iterations_per_seed"] = (
        ratio(iterations, tracer.calls["solver.targeted_eigenvalue"]), "iter/seed")
    out["solver.wasted_iter_frac"] = (ratio(counts["solver.wasted_iterations"], iterations), "frac")
    return out


def ratio(num, den) -> float:
    return num / den if den else 0.0
