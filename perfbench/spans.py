"""Outside-in span recorder for the traced benchmark run.

``SpanRecorder.install`` replaces library functions *in place* (module
attributes and kernel ``values`` methods) with wrappers that record one
span per call: name, start, end, parent span, thread id, call id and the
element counts of that layer.  The library sources are not touched.

The root span of a call is the public entry point the benchmark invokes.
Worker threads of the estimator's chunk pool start with an empty stack,
so their spans take the current root as parent; the benchmark is a closed
loop, so at most one root is open at a time.

Spans stay in memory and are written as JSON lines when the run ends.  A
span's self time is its duration minus the part of its interval that its
children cover (children in several threads may overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    call: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _estimate_counts(args, result):
    # the EstimatorConfig is the last positional argument of both estimators
    return {
        "replicates": result.replicates_used,
        "workers": args[-1].effective_workers,
        "k0": result.per_order.get(0, (0.0, 0.0, 0))[2],
        "ess": result.diagnostics.get("effective_sample_size", 0.0),
        "redraws": result.diagnostics.get("singular_hits", 0),
    }


def _tuples(args, result):
    return {"tuples": max(int(np.size(a)) for a in args)}


def _kernel_evals(args, result):
    x = np.asarray(args[1])
    return {"evals": int(x.size // x.shape[-1]) if x.ndim else 1}


# (module, attribute, span name, counts(args, result) or None)
_FUNCTIONS = (
    ("fkmoments", "estimate_second_moment_fractional", "mc_engine.estimate_second_moment_fractional", _estimate_counts),
    ("fkmoments", "estimate_second_moment_white", "mc_engine.estimate_second_moment_white", _estimate_counts),
    ("fkmoments", "second_moment_series", "chaos_oracle.second_moment_series", None),
    ("fkmoments.mc_engine", "sample_eta_tilted", "point_process.sample_eta_tilted", lambda a, r: {"points": int(a[3])}),
    (
        "fkmoments.mc_engine",
        "brownian_batch_nd",
        "gaussian_paths.brownian_batch_nd",
        lambda a, r: {"normals": int(a[0].size) * int(a[1])},
    ),
    ("fkmoments.mc_engine", "initial_field", "kernels.initial_field", None),
    ("fkmoments.chaos_oracle", "alpha_n_quadrature", "chaos_oracle.alpha_n_quadrature", lambda a, r: {"n": int(a[0])}),
    ("fkmoments.chaos_oracle", "eta_pair_rule", "quadrature.eta_pair_rule", lambda a, r: {"nodes": int(r[2].size)}),
    ("fkmoments.chaos_oracle", "det_qsum_2", "gaussian_paths.det_qsum_2", _tuples),
    ("fkmoments.chaos_oracle", "det_qsum_3", "gaussian_paths.det_qsum_3", _tuples),
)


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._calls = itertools.count(1)
        self._local = threading.local()
        self._root: tuple[int, int] | None = None  # (span id, call id)
        self._saved: list = []

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            is_root = not stack and self._root is None
            if is_root:
                self._root = (span_id, next(self._calls))
            parent = stack[-1] if stack else (None if is_root else self._root[0])
            call_id = self._root[1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
            span = Span(span_id, name, start, end, parent, threading.get_ident(), call_id)
            if counts is not None:
                span.counts = counts(args, result)
            self.spans.append(span)
            return result

        return wrapper

    def install(self, kernel_classes) -> None:
        """Wrap the layer boundaries in place; ``uninstall`` restores them."""
        import importlib

        for module_name, attr, name, counts in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self._wrap(name, getattr(module, attr), counts))
        for cls in kernel_classes:
            self._replace(cls, "values", self._wrap("kernels.values", cls.values, _kernel_evals))

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def covered(span: Span, children) -> float:
    """Length of the union of the children's intervals within the span."""
    total = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, kids: dict) -> float:
    return span.duration - covered(span, kids.get(span.id, ()))


LAYER_METRICS = {
    # name: (unit, better)
    "mc_engine.self_s": ("s", "lower"),
    "mc_engine.replicates": ("count", "higher"),
    "mc_engine.k0_share": ("ratio", "lower"),
    "mc_engine.ess_ratio": ("ratio", "higher"),
    "mc_engine.redraws": ("count", "lower"),
    "mc_engine.busy_share": ("ratio", "higher"),
    "point_process.sample_eta_tilted.s": ("s", "lower"),
    "point_process.sample_eta_tilted.calls": ("count", "lower"),
    "point_process.sample_eta_tilted.points": ("count", "lower"),
    "gaussian_paths.brownian_batch_nd.s": ("s", "lower"),
    "gaussian_paths.brownian_batch_nd.calls": ("count", "lower"),
    "gaussian_paths.brownian_batch_nd.normals": ("count", "lower"),
    "gaussian_paths.det_qsum_3.s": ("s", "lower"),
    "gaussian_paths.det_qsum_3.calls": ("count", "lower"),
    "gaussian_paths.det_qsum_3.tuples": ("count", "lower"),
    "gaussian_paths.det_qsum_2.s": ("s", "lower"),
    "gaussian_paths.det_qsum_2.calls": ("count", "lower"),
    "gaussian_paths.det_qsum_2.tuples": ("count", "lower"),
    "kernels.values.s": ("s", "lower"),
    "kernels.values.evals": ("count", "lower"),
    "kernels.initial_field.s": ("s", "lower"),
    "kernels.initial_field.calls": ("count", "lower"),
    "quadrature.eta_pair_rule.s": ("s", "lower"),
    "quadrature.eta_pair_rule.calls": ("count", "lower"),
    "quadrature.eta_pair_rule.nodes": ("count", "lower"),
    "chaos_oracle.order1.s": ("s", "lower"),
    "chaos_oracle.order2.s": ("s", "lower"),
    "chaos_oracle.order3.s": ("s", "lower"),
    "chaos_oracle.rungs.order1": ("count", "lower"),
    "chaos_oracle.rungs.order2": ("count", "lower"),
    "chaos_oracle.rungs.order3": ("count", "lower"),
    "chaos_oracle.m.order3": ("count", "lower"),
    "chaos_oracle.self_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# leaf layers: span name -> the count recorded with each span, if any
_LEAF_LAYERS = {
    "point_process.sample_eta_tilted": "points",
    "gaussian_paths.brownian_batch_nd": "normals",
    "gaussian_paths.det_qsum_3": "tuples",
    "gaussian_paths.det_qsum_2": "tuples",
    "kernels.values": "evals",
    "kernels.initial_field": None,
    "quadrature.eta_pair_rule": "nodes",
}


def layer_metrics(spans, n_calls: int) -> dict:
    """Per-layer figures from the spans of ``n_calls`` traced calls.

    Seconds and counts are per traced call; ratios are over the Monte Carlo
    calls; rungs and ``m`` are per order computation.  A layer the workload
    never reaches reads 0.
    """
    kids = children_of(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out = {}

    def per_call(x):
        return x / n_calls

    for layer, count in _LEAF_LAYERS.items():
        group = by_name.get(layer, [])
        out[f"{layer}.s"] = per_call(sum(s.duration for s in group))
        out[f"{layer}.calls"] = per_call(len(group))
        if count:
            out[f"{layer}.{count}"] = per_call(sum(s.counts[count] for s in group))

    roots = [s for s in spans if s.parent is None and s.name.startswith("mc_engine.")]
    replicates = sum(r.counts["replicates"] for r in roots)
    out["mc_engine.self_s"] = per_call(sum(self_time(r, kids) for r in roots))
    out["mc_engine.replicates"] = per_call(replicates)
    out["mc_engine.k0_share"] = sum(r.counts["k0"] for r in roots) / replicates if roots else 0.0
    out["mc_engine.ess_ratio"] = sum(r.counts["ess"] for r in roots) / replicates if roots else 0.0
    out["mc_engine.redraws"] = per_call(sum(r.counts["redraws"] for r in roots))
    # the share of the pool's capacity spent inside wrapped leaf calls; chunk
    # work outside them (eta, products, masking) counts as idle, so this is
    # below 1 even with one worker
    capacity = sum(r.duration * r.counts["workers"] for r in roots)
    busy = sum(c.duration for r in roots for c in kids.get(r.id, ()))
    out["mc_engine.busy_share"] = busy / capacity if roots else 0.0

    oracle = [s for s in spans if s.name.startswith("chaos_oracle.")]
    out["chaos_oracle.self_s"] = per_call(sum(self_time(s, kids) for s in oracle))
    alphas = {a.id: a for a in by_name.get("chaos_oracle.alpha_n_quadrature", [])}
    # pair rules built by one alpha_n_quadrature span, in order: its ladder
    ladders: dict = {}
    for rule in sorted(by_name.get("quadrature.eta_pair_rule", []), key=lambda r: r.start):
        ladders.setdefault(rule.parent, []).append(rule)
    for n in (1, 2, 3):
        # the outermost span of each order; a swapped query nests a second one
        outer = [a for a in alphas.values() if a.counts["n"] == n and a.parent not in alphas]
        out[f"chaos_oracle.order{n}.s"] = per_call(sum(a.duration for a in outer))
        mine = [ladder for parent, ladder in ladders.items() if alphas[parent].counts["n"] == n]
        out[f"chaos_oracle.rungs.order{n}"] = statistics.fmean(map(len, mine)) if mine else 0.0
    # m at the accepted rung, the last of a ladder
    last = [ladder[-1].counts["nodes"] for ladder in mine]
    out["chaos_oracle.m.order3"] = statistics.median(last) if last else 0.0
    return out
