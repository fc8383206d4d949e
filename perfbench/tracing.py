"""Spans and counters for the benchmark's traced run.

factlab modules import each other's functions by name (for instance
``factlab.sing_locus.common_zeros``), so a function is wrapped at every
module attribute that refers to it, not only where it is defined.  Spans are
kept in memory as (name, start, end, parent) and written out when the run
ends.  Functions called very often are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Tuple

# (module, attribute, kind): "span" times every call, "count" only counts
# calls, "iter" counts the items a generator yields.
TARGETS = [
    ("factlab.scan", "coords_table", "span"),
    ("factlab.scan", "common_zeros", "span"),
    ("factlab.scan", "eval_on_points", "span"),
    ("factlab.sing_locus", "singular_points", "span"),
    ("factlab.sing_locus", "ci_singular_points", "span"),
    ("factlab.sing_locus", "verify_nodal", "span"),
    ("factlab.poly", "eval_poly_horner", "count"),
    ("factlab.poly", "hessian_rank_at", "span"),
    ("factlab.poly", "parse_poly", "span"),
    ("factlab.families", "generate", "span"),
    ("factlab.families", "_curve_smooth_points", "span"),
    ("factlab.projgeom", "enumerate_projective", "iter"),
    ("factlab.projgeom", "span_dim", "count"),
    ("factlab.linalg", "nullspace", "span"),
    ("factlab.linalg", "rank_and_dependents", "span"),
    ("factlab.linalg", "RowSpace.contains", "count"),
    ("factlab.linalg", "RowSpace.add", "count"),
    ("factlab.lincond", "max_on_lines", "span"),
    ("factlab.lincond", "max_on_conics", "span"),
    ("factlab.lincond", "bese_check", "span"),
    ("factlab.lincond", "defect", "span"),
    ("factlab.lincond", "separator", "span"),
    ("factlab.lincond", "swap_combine", "span"),
    ("factlab.lincond", "evaluation_matrix", "span"),
    ("factlab.criteria", "theorem_main_certify", "span"),
    ("factlab.criteria", "hong_park_classify", "span"),
    ("factlab.criteria", "detect_nodal_surface_form", "span"),
    ("factlab.cli", "main", "span"),
]

LAYERS = ("scan", "sing_locus", "poly", "families", "linalg", "lincond", "criteria", "cli")

# Work counters, added to by _count_result and by the worker; zero when no
# call made them.
COUNTERS = ("scan.points", "scan.table_bytes", "scan.common_zeros.rows", "scan.survivors",
            "scan.eval_rows", "scan.term_rows", "sing_locus.sing_points",
            "sing_locus.nodes_checked", "families.accepted", "cli.stdout_bytes")


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Work counters taken where the work happens."""
    if name == "scan.coords_table":
        counts["scan.points"] += result.shape[0]
        counts["scan.table_bytes"] += result.shape[0] * result.shape[1] * 8
    elif name == "scan.common_zeros":
        counts["scan.common_zeros.rows"] += args[1].shape[0]
        counts["scan.survivors"] += result.shape[0]
    elif name == "scan.eval_on_points":
        rows = args[1].shape[0]
        counts["scan.eval_rows"] += rows
        counts["scan.term_rows"] += len(args[0].terms) * rows
    elif name in ("sing_locus.singular_points", "sing_locus.ci_singular_points"):
        counts["sing_locus.sing_points"] += len(result)
    elif name == "sing_locus.verify_nodal":
        counts["sing_locus.nodes_checked"] += len(result.sing)
    elif name == "families.generate":
        counts["families.accepted"] += 1


class Tracer:
    """Wraps the TARGETS while installed; records only while ``enabled``."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._local.stack = self._main_stack
        self._patches: List[Tuple[object, str, object]] = []

    # --- installing the wrappers ------------------------------------------

    def install(self) -> None:
        for module_name, attr, kind in TARGETS:
            module = importlib.import_module(module_name)
            name = module_name.split(".", 1)[1] + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, kind, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, kind, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "factlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    with tracer._lock:
                        tracer.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "iter":
            @functools.wraps(fn)
            def iterated(*args, **kwargs):
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    if tracer.enabled:
                        with tracer._lock:
                            tracer.counts[name + ".points"] += n
            return iterated

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: attribute its spans to the call that made the pool
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            record = [name, time.perf_counter(), None, parent]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            with tracer._lock:
                _count_result(tracer.counts, name, args, result)
            return result
        return timed

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --- results -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                 "counts": dict(self.counts)},
                fh,
            )

    def metrics(self, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
        """Every per-layer metric from the spans and counts of one traced
        pass, zero for a target that was never called."""
        children: Dict[int, List[int]] = {}
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(i)
        agg: Counter = Counter()
        for module_name, attr, kind in TARGETS:
            name = module_name.split(".", 1)[1] + "." + attr
            suffixes = {"span": (".s", ".self_s", ".calls"), "count": (".calls",),
                        "iter": (".points",)}[kind]
            agg.update(dict.fromkeys((name + x for x in suffixes), 0))
        layer_self: Counter = Counter()
        roots = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            kids = [(self.spans[j][1], self.spans[j][2]) for j in children.get(i, ())]
            self_s = dur - _covered(kids, start, end)
            agg[name + ".s"] += dur
            agg[name + ".self_s"] += self_s
            agg[name + ".calls"] += 1
            layer_self[name.split(".")[0]] += self_s
            if parent is None:
                roots.append((start, end))
        values: Dict[str, float] = dict(agg)
        values.update(self.counts)
        rows_in = self.counts["scan.common_zeros.rows"]
        values["scan.survivor_ratio"] = self.counts["scan.survivors"] / rows_in if rows_in else 0.0
        attempts = sum(
            1 for name, _, _, parent in self.spans
            if name in ("sing_locus.singular_points", "sing_locus.ci_singular_points")
            and self._has_ancestor(parent, "families.generate")
        )
        values["families.scan_attempts"] = attempts
        values["families.accept_ratio"] = self.counts["families.accepted"] / attempts if attempts else 0.0
        for layer in LAYERS:
            values[f"{layer}.self_share"] = layer_self[layer] / traced_wall
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.uncovered_s"] = traced_wall - _covered(roots, float("-inf"), float("inf"))
        return values

    def _has_ancestor(self, index, name: str) -> bool:
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
