"""In-memory spans and counters recorded around calls into sievar.

The tracer wraps sievar's public functions at every place they are looked
up (``sievar.study.simulate``, ``sievar.irf.iterate_paths``, ...), so no
file under ``src/`` changes. A span holds a name, start, end, parent span
and thread. A span opened on a worker thread with nothing open on that
thread takes the main thread's innermost open span as its parent: the
benchmark's calls come from the main thread, so that span is the one that
started the worker pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

import program
import sievar

LAYER_METRICS = program.metrics("per_layer")
# Counts must repeat exactly between traced calls and runs with the same seed.
EXACT_COUNTS = tuple(m["name"] for m in LAYER_METRICS if m["unit"] == "count")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None


# Attribute readers get out=None when the call raised.
def _iterate_attrs(args, kwargs, out) -> dict:
    eps = np.shape(kwargs["eps_path"] if "eps_path" in kwargs else args[2])
    batch = eps[0] if len(eps) == 3 else 1
    return {"batch": int(batch), "steps": int(eps[-2]), "clamped": int(out[1]) if out is not None else 0}


def _points_attrs(args, kwargs, out) -> dict:
    return {"points": int(np.size(kwargs["x"] if "x" in kwargs else args[1]))}


def _fit_attrs(args, kwargs, out) -> dict:
    return {"regularized": bool(out is not None and out.regularized)}


# (span name, modules the function is looked up in, attributes read from the call)
TRACED_FUNCTIONS = (
    ("model.iterate_paths", ("model", "irf", "diagnostics"), _iterate_attrs),
    ("model.simulate", ("study",), None),
    ("model.draw_innovations", ("model",), None),
    ("basis.bspline_matrix", ("model", "basis"), _points_attrs),
    ("basis.build_design", ("estimator",), None),
    ("estimator.fit_two_step", ("study",), _fit_attrs),
    ("estimator.fit_parametric", ("study",), _fit_attrs),
    ("irf.check_compatibility", ("study", "irf"), None),
    ("irf.population_irf", ("study", "irf"), None),
    ("irf.estimated_irf", ("study",), None),
    ("study.run_study", ("study",), None),
    ("diagnostics.estimate_delta_r", ("diagnostics",), None),
    ("diagnostics.find_h_star", ("diagnostics",), None),
)


class Tracer:
    """Records spans and per-thread counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread().ident
        self._counters: list[dict[str, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        try:
            return stack[-1]
        except IndexError:
            pass
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def count(self, name: str) -> None:
        try:
            counts = self._local.counts
        except AttributeError:
            counts = self._local.counts = defaultdict(int)
            self._counters.append(counts)
        counts[name] += 1

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for counts in self._counters:
            for name, value in counts.items():
                total[name] += value
        return dict(total)

    def reset(self) -> None:
        self.spans = []
        for counts in self._counters:
            counts.clear()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            stack.append(span_id)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = observe(args, kwargs, out) if observe is not None else None
                tracer.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), attrs))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, modules, observe in TRACED_FUNCTIONS:
            fn_name = name.rsplit(".", 1)[1]
            for module_name in modules:
                module = getattr(sievar, module_name)
                self._patch(module, fn_name, self.wrap(name, getattr(module, fn_name), observe))
        call = sievar.NonlinFn.__call__
        tracer = self

        def counted_call(term, x):
            tracer.count("model.nonlin.calls")
            return call(term, x)

        self._patch(sievar.NonlinFn, "__call__", counted_call)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def dump_spans(path, spans: list[Span]) -> None:
    """Write one JSON object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[Span], counters: dict[str, int], timings: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced call, except study.failed and trace.overhead,
    which the caller fills in from the call's result and timings. The study's
    replication phase comes from the call's own ``timings``."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(
            (s.end - s.start) - _covered([(c.start, c.end) for c in children[s.id]], s.start, s.end)
            for s in by_name[name]
        )

    def ratio(total: float, base: float, scale: float = 1.0) -> float:
        return scale * total / base if base else 0.0

    iterate = by_name["model.iterate_paths"]
    b1 = [s for s in iterate if s.attrs["batch"] == 1]
    batched = [s for s in iterate if s.attrs["batch"] > 1]
    b1_steps = sum(s.attrs["steps"] for s in b1)
    b1_s = sum(s.end - s.start for s in b1)
    row_steps = sum(s.attrs["batch"] * s.attrs["steps"] for s in batched)
    batched_s = sum(s.end - s.start for s in batched)
    bspline = by_name["basis.bspline_matrix"]
    points = sum(s.attrs["points"] for s in bspline)
    fits = by_name["estimator.fit_two_step"] + by_name["estimator.fit_parametric"]

    population = by_name["irf.population_irf"]
    population_s = busy("irf.population_irf")
    population_inner = sum(
        c.end - c.start for s in population for c in children[s.id] if c.name == "model.iterate_paths"
    )

    # the study's phase split comes from StudyDgp7.run's own timer
    phase_s = timings.get("replication_phase_s", 0.0)
    study_self = study_busy = 0.0
    for s in by_name["study.run_study"]:
        phase_start = timings["replication_phase_start"]
        phase_kids = [(c.start, c.end) for c in children[s.id] if c.start >= phase_start]
        study_self += (s.end - phase_start) - _covered(phase_kids, phase_start, s.end)
        study_busy += sum(b - a for a, b in phase_kids)

    return {
        "model.iterate_paths.b1.steps": b1_steps,
        "model.iterate_paths.b1.s": b1_s,
        "model.iterate_paths.b1.us_per_step": ratio(b1_s, b1_steps, 1e6),
        "model.iterate_paths.batched.row_steps": row_steps,
        "model.iterate_paths.batched.s": batched_s,
        "model.iterate_paths.batched.ns_per_row_step": ratio(batched_s, row_steps, 1e9),
        "model.nonlin.calls": counters.get("model.nonlin.calls", 0),
        "model.draw_innovations.s": busy("model.draw_innovations"),
        "model.clamped": sum(s.attrs["clamped"] for s in iterate),
        "basis.bspline_matrix.calls": len(bspline),
        "basis.bspline_matrix.points": points,
        "basis.bspline_matrix.s": busy("basis.bspline_matrix"),
        "basis.bspline_matrix.ns_per_point": ratio(busy("basis.bspline_matrix"), points, 1e9),
        "basis.build_design.s": busy("basis.build_design"),
        "estimator.fits": len(fits),
        "estimator.fit_two_step.s": busy("estimator.fit_two_step"),
        "estimator.fit_parametric.s": busy("estimator.fit_parametric"),
        "estimator.regularized": sum(s.attrs["regularized"] for s in fits),
        "irf.population_irf.s": population_s,
        "irf.population_irf.self_s": self_time("irf.population_irf"),
        "irf.population_irf.concurrency": ratio(population_inner, population_s),
        "irf.estimated_irf.s": busy("irf.estimated_irf"),
        "irf.estimated_irf.self_s": self_time("irf.estimated_irf"),
        "irf.check_compatibility.s": busy("irf.check_compatibility"),
        "study.replication_phase.s": phase_s,
        "study.self_s": study_self,
        "study.concurrency": ratio(study_busy, phase_s),
        "diagnostics.estimate_delta_r.s": busy("diagnostics.estimate_delta_r"),
        "diagnostics.find_h_star.s": busy("diagnostics.find_h_star"),
        "diagnostics.self_s": self_time("diagnostics.estimate_delta_r") + self_time("diagnostics.find_h_star"),
    }
