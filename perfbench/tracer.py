"""Per-layer spans recorded from outside the package.

``Tracer.install(pkg)`` wraps each traced public function of the
package and rebinds the wrapper under every name that any loaded
``divatlas`` module binds to the original, so calls between modules
(``rank`` is bound in ``linalg``, ``tensors`` and ``subspaces``) are
seen as well as the benchmark's own calls.  ``uninstall`` puts every
original back.  One tracer can be installed on several packages in
turn (one per round) and keeps its spans across them.  A traced name
that the package no longer has is skipped and reports zero calls.

Spans are kept in memory as compact arrays (name, parent span, op,
start, end, self time) and written out once, at the end.  A span's self
time is its duration minus the durations of its direct child spans,
less the wrapper's own cost, which has two parts (``call_overhead``):

* outside: the bookkeeping of a child's wrapper that lies outside the
  child's timed interval (array appends, argument forwarding), which
  the parent's interval still holds.  It is subtracted from the parent
  once per direct child.
* inside: the part of a wrapper that lies within its own interval (the
  timer reads and the start append).  It is subtracted from every span.

Both are measured on a wrapped function of two positional arguments
that does nothing, against a bare call and an empty loop.  The
machine's speed drifts, so ``calibrate`` measures them afresh at every
install and whenever the caller asks (the benchmark does so at each of
its speed probes), and each stretch of spans is corrected with the
figures measured at its start.  Wrappers of functions with keyword
arguments or a result observer cost a little more, so the corrected
self times still carry a small share of tracing.
Per-layer metrics are normalized per op of the traced phase.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

# (module, public function) pairs, each reported under "<module>.<function>"
TARGETS = (
    ("cli", "main"),
    ("tensors", "tensor_from_json"),
    ("tensors", "enc"),
    ("tensors", "enclosing_space"),
    ("tensors", "contraction_matrix"),
    ("tensors", "is_in_power_of"),
    ("tensors", "complete_basis"),
    ("tensors", "apply_linear_map"),
    ("linalg", "rank"),
    ("linalg", "image_basis"),
    ("linalg", "inverse"),
    ("linalg", "int_det"),
    ("linalg", "exact_det"),
    ("subspaces", "sub_dim_tangent"),
    ("atlas", "atlas_report"),
    ("atlas", "components"),
    ("atlas", "intersections"),
    ("atlas", "component_count"),
    ("atlas", "canonical_analysis"),
)
# modules whose public functions are all reported together under the module name
GROUPS = ("brill_noether",)

LABELS = tuple(f"{m}.{f}" for m, f in TARGETS) + GROUPS

# a few milliseconds per calibration, taken every 0.1 s of a traced phase
CALIBRATION_BATCHES = 3
CALIBRATION_CALLS = 300


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for label in LABELS:
        units[f"{label}.calls"] = "1/op"
        units[f"{label}.self_s"] = "s/op"
        if label == "linalg.rank":
            units["linalg.rank.entries"] = "entries/op"
            units["linalg.rank.max_entries"] = "entries"
            units["linalg.rank.full_frac"] = "fraction"
        elif label == "subspaces.sub_dim_tangent":
            units["subspaces.sub_dim_tangent.rank_calls_per_eval"] = "calls/eval"
        elif label == "tensors.is_in_power_of":
            units["tensors.is_in_power_of.true_frac"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "divatlas" or name.startswith("divatlas.")]


def call_overhead() -> tuple:
    """(outside, inside) seconds of tracing per call, each the median over
    ``CALIBRATION_BATCHES`` loops of ``CALIBRATION_CALLS`` calls (see the
    module docstring)."""

    def empty(a, b):
        return None

    calls = CALIBRATION_CALLS
    outside, inside = [], []
    for _ in range(CALIBRATION_BATCHES):
        scratch = Tracer()
        wrapped = scratch._wrap(empty, 0)
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(0, 1)
        t1 = perf_counter()
        for _ in range(calls):
            empty(0, 1)
        t2 = perf_counter()
        for _ in range(calls):
            pass
        t3 = perf_counter()
        spans = sum(e - s for s, e in zip(scratch.start, scratch.end))
        loop = t3 - t2
        outside.append((t1 - t0 - loop - spans) / calls)
        inside.append((spans - (t2 - t1 - loop)) / calls)
    return statistics.median(outside), statistics.median(inside)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.labels = tuple(f"{m}.{f}" for m, f in targets) + GROUPS
        self.op_index = -1
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack = []  # open span ids
        self._child = []  # child time accumulated by each open span
        self.rank_entries = 0
        self.rank_max_entries = 0
        self.rank_full = 0
        self.member_true = 0
        self._restore = []
        # (first span index, outside, inside call overhead in seconds),
        # one entry per calibration
        self._overheads = []

    # -- wrapping -----------------------------------------------------------

    def _originals(self, pkg) -> dict:
        """id(original function) -> (original, label index)."""
        out = {}
        for i, (module, func) in enumerate(self.targets):
            fn = getattr(getattr(pkg, module), func, None)
            if fn is not None:
                out[id(fn)] = (fn, i)
        for j, module in enumerate(GROUPS):
            mod = getattr(pkg, module)
            for fname, fn in vars(mod).items():
                if not fname.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out[id(fn)] = (fn, len(self.targets) + j)
        return out

    def calibrate(self) -> None:
        """Measure the call overhead for the spans recorded from now on."""
        self._overheads.append((len(self.name),) + call_overhead())

    def install(self, pkg) -> None:
        self.calibrate()
        wrappers = {key: self._wrap(fn, i) for key, (fn, i) in self._originals(pkg).items()}
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and val is wrapper.__wrapped__:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    def _observe(self, label: str):
        if label == "linalg.rank":

            def observe(args, result):
                rows, cols = args[0].rows, args[0].cols
                self.rank_entries += rows * cols
                self.rank_max_entries = max(self.rank_max_entries, rows * cols)
                self.rank_full += result == min(rows, cols)

            return observe
        if label == "tensors.is_in_power_of":

            def observe(args, result):
                self.member_true += result is True

            return observe
        return None

    def _wrap(self, fn, index: int):
        observe = self._observe(self.labels[index])
        stack, child = self._stack, self._child
        name, parent, op, start, end, self_time = (
            self.name, self.parent, self.op, self.start, self.end, self.self_time
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_index)
            end.append(0.0)
            self_time.append(0.0)
            stack.append(span)
            child.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                end[span] = t1
                self_time[span] = dur - child.pop()
                if child:
                    child[-1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def corrected_self_times(self) -> list:
        """Each span's self time less its own inside call overhead and the
        outside call overhead of its direct children (see the module
        docstring)."""
        out = array("d", self.self_time)
        stops = [entry[0] for entry in self._overheads[1:]] + [len(self.name)]
        for (first, outside, inside), stop in zip(self._overheads, stops):
            for span in range(first, stop):
                out[span] -= inside
                p = self.parent[span]
                if p >= 0:
                    out[p] -= outside
        return out

    def metrics(self, ops: int, op_scales=None) -> dict:
        """Per-layer metrics, normalized per op; zero for names never called.
        Self times are corrected for call overhead, and each is multiplied
        by ``op_scales[op]`` of its op when given."""
        n_labels = len(self.labels)
        calls = [0] * n_labels
        self_s = [0.0] * n_labels
        for i, op, t in zip(self.name, self.op, self.corrected_self_times()):
            calls[i] += 1
            self_s[i] += t * op_scales[op] if op_scales else t
        out = {}
        for i, label in enumerate(self.labels):
            out[f"{label}.calls"] = calls[i] / ops
            out[f"{label}.self_s"] = self_s[i] / ops
        if "linalg.rank" in self.labels:
            rank_calls = calls[self.labels.index("linalg.rank")]
            out["linalg.rank.entries"] = self.rank_entries / ops
            out["linalg.rank.max_entries"] = self.rank_max_entries
            out["linalg.rank.full_frac"] = self.rank_full / rank_calls if rank_calls else 0.0
        if "subspaces.sub_dim_tangent" in self.labels and "linalg.rank" in self.labels:
            evals = calls[self.labels.index("subspaces.sub_dim_tangent")]
            out["subspaces.sub_dim_tangent.rank_calls_per_eval"] = (
                self._ranks_under("subspaces.sub_dim_tangent") / evals if evals else 0.0
            )
        if "tensors.is_in_power_of" in self.labels:
            tests = calls[self.labels.index("tensors.is_in_power_of")]
            out["tensors.is_in_power_of.true_frac"] = self.member_true / tests if tests else 0.0
        return out

    def _ranks_under(self, label: str) -> int:
        """Number of rank spans with an ancestor span of the given label."""
        rank_i = self.labels.index("linalg.rank")
        target = self.labels.index(label)
        count = 0
        for span, i in enumerate(self.name):
            if i != rank_i:
                continue
            p = self.parent[span]
            while p >= 0 and self.name[p] != target:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path: str) -> None:
        """Write the spans, gzip-compressed: a JSON header naming the columns
        and labels, then one tab-separated line per span (line i is span i),
        times in integer nanoseconds from the first span's start, self
        times corrected for call overhead."""
        t0 = self.start[0] if len(self.start) else 0.0
        self_time = self.corrected_self_times()
        header = {
            "columns": ["parent", "op", "label", "start_ns", "duration_ns", "self_ns"],
            "labels": list(self.labels),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for lo in range(0, len(self.name), 65536):
                hi = min(lo + 65536, len(self.name))
                fh.write(
                    "".join(
                        f"{self.parent[i]}\t{self.op[i]}\t{self.name[i]}\t{round((self.start[i] - t0) * 1e9)}\t"
                        f"{round((self.end[i] - self.start[i]) * 1e9)}\t{round(self_time[i] * 1e9)}\n"
                        for i in range(lo, hi)
                    )
                )
