"""Spans around pgframes functions, installed from outside the package.

``Tracer`` replaces each target function by a timing wrapper at every module
attribute of ``pgframes`` that holds it, so ``from .opnorm import
operator_norm_bounds`` copies in ``frames``, ``operators`` and
``perturbation`` are traced along with ``opnorm`` itself.  Calls are recorded
as spans (function, parent span, start, end) in flat in-memory columns and
summarised only when the run ends; leaving the ``with`` block puts every
original function back.

A few targets also record counts taken from their return values (terms
summed, grid samples drawn, closed-form hits, upper/lower gaps), so ratios
are measured where the work happens.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs wrapped by the traced run.
TARGETS = (
    ("spaces", "pnorm_many"),
    ("spaces", "holder_witness_many"),
    ("opnorm", "upper_certificate_only"),
    ("opnorm", "operator_norm_bounds"),
    ("opnorm", "matrix_opnorm"),
    ("opnorm", "min_ratio_estimate"),
    ("gridsearch", "certified_min_ratio"),
    ("gridsearch", "sphere_samples"),
    ("operators", "analysis_opnorm"),
    ("frames", "classify"),
    ("frames", "dual_riesz_basis"),
    ("frames", "riesz_equivalences_check"),
    ("multipliers", "assemble"),
    ("multipliers", "norm_bounds"),
    ("multipliers", "invert"),
    ("perturbation", "continuity_suite"),
    ("perturbation", "perturbation_check"),
    ("generate", "gen"),
    ("instances", "serialize"),
    ("instances", "parse"),
    ("checks", "run_checks"),
)


def _observe_bounds(result, counts, gaps):
    counts["opnorm.exact_hits"] += result.upper.kind == "exact"
    if result.lower.value > 0.0:
        gaps.append(result.upper.value / result.lower.value)


def _observe_grid_min(result, counts, gaps):
    counts["gridsearch.certified_positive"] += result[0] > 0.0


def _observe_samples(result, counts, gaps):
    counts["gridsearch.sphere_samples.samples"] += len(result[0])


def _observe_assemble(result, counts, gaps):
    counts["multipliers.assemble.terms"] += len(result.symbol) * result.matrix.size


def _observe_continuity(result, counts, gaps):
    counts["perturbation.continuity_suite.steps"] += len(result)


OBSERVERS = {
    "opnorm.operator_norm_bounds": _observe_bounds,
    "gridsearch.certified_min_ratio": _observe_grid_min,
    "gridsearch.sphere_samples": _observe_samples,
    "multipliers.assemble": _observe_assemble,
    "perturbation.continuity_suite": _observe_continuity,
}


class Tracer:
    """Context manager that traces ``TARGETS`` while it is active."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.gaps: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, original):
        name = self.names[index]
        observe = OBSERVERS.get(name)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(fn)
            fn.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result, self.counts, self.gaps)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        importlib.import_module("pgframes")
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "pgframes" or k.startswith("pgframes."))
        ]
        try:
            for index, (mod, name) in enumerate(TARGETS):
                original = getattr(importlib.import_module(f"pgframes.{mod}"), name)
                wrapper = self._wrap(index, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-function calls, total seconds and self seconds, plus the counts.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        fn = np.asarray(self.fn, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(fn, minlength=k)
        total = np.bincount(fn, weights=dur, minlength=k)
        own = np.bincount(fn, weights=self_time, minlength=k)
        out = {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        parent_fn = np.where(has_parent, fn[np.maximum(parent, 0)], -1)
        gen_i, classify_i = self.names.index("generate.gen"), self.names.index("frames.classify")
        out["generate.gen"]["classify_calls"] = int(
            ((fn == classify_i) & (parent_fn == gen_i)).sum()
        )
        return out
