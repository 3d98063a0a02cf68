"""Span tracing of cyclicphase from outside the package.

A :class:`Tracer` replaces every public module-level function of the five
layers (``cli``, ``experiments``, ``model``, ``trigpoly``, ``hilbert``) with a
wrapper that records a span: name, parent span, command id, start and end.
The wrapper is installed in every module namespace that holds the function,
because callers look names up where they imported them (``hilbert`` calls its
own ``polynomial_roots`` binding, ``experiments`` calls
``trigpoly.root_check``).  Spans stay in memory until the run ends.

A few wrappers also count work at the same boundary (samples, steps,
polynomial degrees, written bytes), and numpy ``RuntimeWarning``s are counted
per layer with ``warnings.simplefilter("always")`` so that repeats are not
collapsed.
"""

from __future__ import annotations

import importlib
import inspect
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "cyclicphase"
LAYERS = ("cli", "experiments", "model", "trigpoly", "hilbert")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    command: int
    start: float
    end: float = 0.0


def _count_emit(tracer, a, result):
    tracer.counts["experiments.emit_outputs.rows"] += a["dataset"].n_rows
    tracer.counts["experiments.emit_outputs.bytes"] += sum(
        Path(p).stat().st_size for p in result)


def _count_ode(tracer, a, result):
    tracer.counts["model.integrate_ode.steps"] += len(result.s) - 1


def _count_model(tracer, a, result):
    tracer.counts["model.evaluate_model.samples"] += a["m_samples"]


def _count_roots(tracer, a, result):
    tracer.counts["trigpoly.polynomial_roots.degree_sum"] += len(result)
    c = np.ascontiguousarray(a["c"], dtype=float)
    tracer.series.add((tracer.command, c.tobytes()))


def _count_log_coefficients(tracer, a, result):
    # computed, not measured: the dense cos and sin analysis matrices
    tracer.counts["hilbert.log_coefficients.analysis_cells"] += (
        2 * (a["n_max"] + 1) * a["grid_size"])


def _count_hilbert(tracer, a, result):
    tracer.counts["hilbert.periodic_hilbert.samples"] += len(result)


def _count_unwrap(tracer, a, result):
    tracer.counts["hilbert.unwrap.samples"] += len(result.phase)


#: per-function work counters, keyed by span name
COUNTERS = {
    "experiments.emit_outputs": _count_emit,
    "model.integrate_ode": _count_ode,
    "model.evaluate_model": _count_model,
    "trigpoly.polynomial_roots": _count_roots,
    "hilbert.log_coefficients": _count_log_coefficients,
    "hilbert.periodic_hilbert": _count_hilbert,
    "hilbert.unwrap": _count_unwrap,
}


def public_functions() -> dict:
    """{'layer.name': function} for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Records spans and counts while installed; restores the package on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.series: set = set()   # (command id, helicity coefficients) seen by root finding
        self.command = 0
        self._stack: list[Span] = []
        self._restore: list = []
        self._warnings = None

    def begin_command(self) -> None:
        """Start a new command id; spans opened from now on carry it."""
        self.command += 1

    def __enter__(self) -> "Tracer":
        targets = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        namespaces = [vars(importlib.import_module(PACKAGE))] + [
            vars(importlib.import_module(f"{PACKAGE}.{layer}")) for layer in LAYERS]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    ns[attr] = wrapper
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning
        return self

    def __exit__(self, *exc) -> None:
        self._warnings.__exit__(*exc)
        for ns, attr, value in reversed(self._restore):
            ns[attr] = value
        self._restore.clear()

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning):
            layer = self._stack[-1].name.split(".")[0] if self._stack else "none"
            self.counts[f"{layer}.runtime_warnings"] += 1

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        split_by_method = name == "hilbert.periodic_hilbert"

        def traced(*args, **kwargs):
            bound = None
            span_name = name
            if counter is not None or split_by_method:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if split_by_method:
                    span_name = f"{name}.{bound.arguments['method']}"
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None,
                        span_name, tracer.command, perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, bound.arguments, result)
            return result

        return traced

    def self_times(self, spans=None) -> dict:
        """{span name: (calls, total self seconds)} of ``spans`` (default: all).

        Self time is the span's duration minus the time its child spans
        cover; children of one span never overlap (single thread).  A slice
        of :attr:`spans` taken between commands holds every child of its
        spans.
        """
        spans = self.spans if spans is None else spans
        covered = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out = defaultdict(lambda: [0, 0.0])
        for span in spans:
            entry = out[span.name]
            entry[0] += 1
            entry[1] += (span.end - span.start) - covered[span.id]
        return {name: tuple(v) for name, v in out.items()}

    def roots_per_series(self) -> float:
        """Root-finding calls per distinct helicity polynomial within a command."""
        calls = sum(1 for s in self.spans if s.name == "trigpoly.polynomial_roots")
        return calls / len(self.series) if self.series else 0.0
