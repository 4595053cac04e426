"""Outside-in span tracer for ordinalsr.

The tracer replaces each layer-boundary function of ordinalsr with a timing
wrapper in every module namespace that binds it.  ``sr``, ``evaluate`` and
``varselect`` bind solver and kernel functions through ``from .x import name``,
so patching only the defining module would miss those calls; ``sr._fit_step``
imports ``cv_tune``, ``screen_for_subproblem`` and ``fit_two_stage`` lazily,
which reads the patched module attribute at call time.

Spans are kept in memory as (name, start, end, parent, counts).  Counts are
computed from the arguments and return values of the wrapped call only; the
program is not modified and runs unwrapped outside ``Tracer.installed()``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "ordinalsr"

# The layer boundaries the benchmark reports on.  Helpers inside a layer
# (screen_stepwise, expand_second_order and the Newton loops of the screen)
# stay unwrapped, so their time counts as that layer's self time.
LAYER_FUNCTIONS = (
    ("sr", "fit_sr"),
    ("sr", "predict_ordinal"),
    ("aol", "build_subproblem"),
    ("aol", "fit_aol_l2"),
    ("aol", "fit_aol_l1_linear"),
    ("aol", "fit_l2_from_gram"),
    ("solvers", "ols_fit"),
    ("solvers", "wsvm_dual_solve"),
    ("solvers", "simplex_solve"),
    ("kernels", "gram_matrix"),
    ("kernels", "median_bandwidth"),
    ("varselect", "screen_for_subproblem"),
    ("varselect", "fit_two_stage"),
    ("evaluate", "cv_tune"),
    ("simgen", "generate"),
)


def _lp_argument(args, kwargs):
    return args[0] if args else kwargs["lp"]


# Computed work counts: functions of (args, kwargs, result) only.
COUNTERS = {
    "solvers.wsvm_dual_solve": lambda args, kwargs, sol: {
        "gram_entries": sol.alphas.size ** 2,
        "kkt_violation": sol.kkt_violation,
    },
    "solvers.simplex_solve": lambda args, kwargs, sol: {
        "tableau_cells": _lp_argument(args, kwargs).G.size,
    },
    "kernels.gram_matrix": lambda args, kwargs, gram: {"entries": gram.size},
    "aol.build_subproblem": lambda args, kwargs, sub: {"rows": sub.m},
    "varselect.screen_for_subproblem": lambda args, kwargs, screen: {
        "moves": len(screen.trace) - 1,
        "selected": len(screen.selected_monomials),
    },
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per call of a layer function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every layer function; restore them on exit."""
        for module_name, _ in LAYER_FUNCTIONS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ]
        patches = []
        for module_name, fn_name in LAYER_FUNCTIONS:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapper = self._wrap(name, original)
            sites = [
                (mod, attr)
                for mod in modules
                for attr, value in vars(mod).items()
                if value is original
            ]
            self.bindings[name] = [f"{mod.__name__}.{attr}" for mod, attr in sites]
            patches.extend((mod, attr, original, wrapper) for mod, attr in sites)
        try:
            for mod, attr, _, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original, _ in patches:
                setattr(mod, attr, original)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls nest on one thread, so direct children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - covered for span, covered in zip(spans, child_time)]


def roots(spans):
    """Index of the outermost ancestor of each span."""
    out = []
    for i, span in enumerate(spans):
        out.append(i if span.parent is None else out[span.parent])
    return out


def has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
