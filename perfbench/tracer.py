"""Spans and counters around the public functions of every lbxmod layer.

The tracer is installed from outside: it replaces each public function, and
the listed methods, with a wrapper, in every module that bound the name.
``from .linalg import nullspace`` copies the function into ``lbxmod.bider``,
so patching ``lbxmod.linalg.nullspace`` alone would miss bider's calls.

Coarse entry points get a span (label, parent, start, end), kept in memory.
Fine-grained calls (the vector helpers and the scalar dunders on
``Fraction`` and ``FpElement``) are only counted, which keeps the tracing
overhead bounded.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import gzip
import json
import time
from fractions import Fraction
from typing import Any, Callable, Optional

LAYERS = ("linalg", "algebra", "action", "xmod", "bider", "xaction", "serialize", "catalog", "cli")
COUNTED = ("add_vectors", "sub_vectors", "scale_vector", "zero_vector", "unit_vector")
METHODS = {
    "linalg": {
        "Matrix": ("__add__", "__sub__", "__neg__", "__matmul__", "apply", "scale", "transpose",
                   "hstack", "vstack"),
        "Subspace": ("from_rows", "reduce", "contains", "coords_of", "linear_combination",
                     "sum_with", "perp_generators", "intersect", "is_subspace_of",
                     "complement_indices", "projection_matrix"),
    },
    "algebra": {"LeibnizAlgebra": ("bracket", "left_operator", "right_operator")},
    "action": {"ActionData": ("act_left", "act_right", "left_operator", "right_operator")},
    "bider": {"MapSpace": ("flatten", "unflatten", "basis_maps", "coords_of_maps",
                           "member_from_coords")},
    "xaction": {"XModActionData": ("pair_mq", "pair_qm")},
}
Q_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__")
FP_DUNDERS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")
# Spans whose exclusive time forms the per-stage breakdown of actor jobs.
STAGES = {
    "bider.bider_qn": "bider_qn",
    "bider.bider_xmod": "bider_xmod",
    "bider.actor": "actor",
    "bider.canonical_morphism": "canonical_morphism",
    "xmod.center": "center",
    "bider.outer_xmod": "outer_xmod",
}
JOB = "bench.job"
STATS = "trace.rref_stats"


class Tracer:
    def __init__(self, modules: list, extra_modules: list) -> None:
        self.modules = {m.__name__: m for m in modules}
        self.bind_modules = list(modules) + list(extra_modules)
        self.labels: list[str] = []
        self._label_idx: dict[str, int] = {}
        self.spans: list[Optional[tuple]] = []
        self.stack = [-1]
        self.counts = {k: [0] for k in ("q_ops", "fp_ops", "vector_ops")}
        self.rref = {"cells": 0, "nonzeros": 0, "rank": 0, "rows": 0}
        self.solved_dim = 0
        self._solved: dict[tuple, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.last_s = 0.0

    # -- wrappers ----------------------------------------------------------

    def _label(self, label: str) -> int:
        if label not in self._label_idx:
            self._label_idx[label] = len(self.labels)
            self.labels.append(label)
        return self._label_idx[label]

    def span_fn(self, label: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        idx = self._label(label)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, parent, t0, t1)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    @staticmethod
    def count_fn(cell: list, fn: Callable) -> Callable:
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def call(self, label: str, fn: Callable) -> Any:
        """Run fn under a root span; its duration is left in ``last_s``."""
        idx = self._label(label)
        i = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[i] = (idx, parent, t0, t1)
            self.last_s = t1 - t0

    def _rref_wrapper(self, fn: Callable) -> Callable:
        stats_idx = self._label(STATS)
        spans, stack, clock, acc = self.spans, self.stack, time.perf_counter, self.rref
        spanned = self.span_fn("linalg.rref", fn)

        def wrapper(m):
            t0 = clock()
            nnz = sum(1 for row in m.entries for x in row if x)
            spans.append((stats_idx, stack[-1], t0, clock()))
            out = spanned(m)
            acc["cells"] += m.rows * m.cols
            acc["nonzeros"] += nnz
            acc["rank"] += out.rank
            acc["rows"] += m.rows
            return out

        return wrapper

    def _record_solved(self, label: str) -> Callable:
        def after(args, out) -> None:
            self._solved[(label, id(args[0]))] = out.dim
        return after

    # -- install / uninstall ---------------------------------------------------

    def _rebind(self, original: Any, wrapper: Any) -> None:
        for mod in self.bind_modules:
            for name, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, original))

    def _patch_attr(self, owner: Any, name: str, wrapper: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def span_attr(self, owner: Any, name: str, label: str) -> None:
        """Span a benchmark-side helper as part of a layer."""
        self._patch_attr(owner, name, self.span_fn(label, owner.__dict__[name]))

    def install(self) -> None:
        from lbxmod.fields import FpElement

        # Names that later versions drop or rename are skipped, not errors.
        for layer in LAYERS:
            mod = self.modules.get(f"lbxmod.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if name in COUNTED:
                    wrapper = self.count_fn(self.counts["vector_ops"], obj)
                elif layer == "linalg" and name == "rref":
                    wrapper = self._rref_wrapper(obj)
                elif layer == "bider" and name in ("bider_qn", "bider_xmod"):
                    wrapper = self.span_fn(f"{layer}.{name}", obj, self._record_solved(name))
                else:
                    wrapper = self.span_fn(f"{layer}.{name}", obj)
                self._rebind(obj, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    raw = getattr(cls, "__dict__", {}).get(meth)
                    if raw is None:
                        continue
                    label = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        self._patch_attr(cls, meth, classmethod(self.span_fn(label, raw.__func__)))
                    else:
                        self._patch_attr(cls, meth, self.span_fn(label, raw))
        for cls, names, key in ((Fraction, Q_DUNDERS, "q_ops"), (FpElement, FP_DUNDERS, "fp_ops")):
            for name in names:
                if name in cls.__dict__:
                    self._patch_attr(cls, name, self.count_fn(self.counts[key], cls.__dict__[name]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def end_job(self) -> None:
        self.solved_dim += sum(self._solved.values())
        self._solved.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time and call count per label, and the total of job spans."""
        n = len(self.spans)
        child = [0.0] * n
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        self_t = [0.0] * len(self.labels)
        calls = [0] * len(self.labels)
        job_idx = self._label_idx.get(JOB)
        jobs_total = 0.0
        for i, (idx, parent, t0, t1) in enumerate(self.spans):
            self_t[idx] += (t1 - t0) - child[i]
            calls[idx] += 1
            if idx == job_idx:
                jobs_total += t1 - t0
        return (dict(zip(self.labels, self_t)), dict(zip(self.labels, calls)), jobs_total)

    def stage_times(self) -> dict[str, float]:
        """Exclusive time of each stage: its spans minus nested stage spans."""
        stage_of = {self._label_idx[k]: v for k, v in STAGES.items() if k in self._label_idx}
        excl = {v: 0.0 for v in STAGES.values()}
        for s in self.spans:
            if s[0] not in stage_of:
                continue
            excl[stage_of[s[0]]] += s[3] - s[2]
            parent = s[1]
            while parent >= 0 and self.spans[parent][0] not in stage_of:
                parent = self.spans[parent][1]
            if parent >= 0:
                excl[stage_of[self.spans[parent][0]]] -= s[3] - s[2]
        return excl

    def dump(self, path) -> None:
        """Write every span, times in microseconds from the first one."""
        t_base = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "labels": self.labels,
            "fields": ["label", "parent", "start_us", "end_us"],
            "spans": [[s[0], s[1], round((s[2] - t_base) * 1e6, 1), round((s[3] - t_base) * 1e6, 1)]
                      for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
