"""Span tracing from outside the program.

The tracer replaces a layer's public function at the place it is imported
into the calling module (``nodehead.model.solve_fixed_batch``,
``nodehead.solvers.eval_dynamics_batch``, ...) with a wrapper that records a
span: name, owning module, start, end and parent. Spans stay in memory and
are written out when the run ends. Nothing in ``src/`` is edited, and the
wrappers pass arguments and results through untouched, so traced outputs
are bitwise those of an untraced run.

Very frequent leaf calls (the per-row ``dynamics`` functions) are recorded
as a count plus total time per parent span instead of one span each.

A span's self time is its duration minus the part of it that its child
spans (and aggregated leaves) cover.
"""

import importlib
import json
import os
import time

# (calling module, attribute, owning layer). The owning layer is the module
# that defines the function; the calling module is where it is looked up.
SITES = [
    ("nodehead.cli", "main", "cli"),
    ("nodehead.cli", "cmd_train", "cli"),
    ("nodehead.cli", "cmd_compare", "cli"),
    ("nodehead.cli", "load_cifar10_bin", "data"),
    ("nodehead.cli", "FrozenExtractor", "data"),
    ("nodehead.cli", "extract_features", "data"),
    ("nodehead.cli", "load_feature_file", "data"),
    ("nodehead.cli", "train", "train"),
    ("nodehead.cli", "read_metrics_csv", "train"),
    ("nodehead.cli", "write_metrics_csv", "train"),
    ("nodehead.cli", "stability_stats", "train"),
    ("nodehead.cli", "evaluate", "model"),
    ("nodehead.cli", "load_checkpoint", "model"),
    ("nodehead.cli", "save_checkpoint", "model"),
    ("nodehead.train", "train", "train"),
    ("nodehead.train", "adam_update", "train"),
    ("nodehead.train", "sgd_update", "train"),
    ("nodehead.train", "split_train_val", "data"),
    ("nodehead.train", "train_step", "model"),
    ("nodehead.train", "evaluate", "model"),
    ("nodehead.train", "head_from_flat", "model"),
    ("nodehead.train", "head_to_flat", "model"),
    ("nodehead.train", "init_node_head", "model"),
    ("nodehead.train", "init_baseline_head", "model"),
    ("nodehead.model", "solve_fixed_batch", "solvers"),
    ("nodehead.model", "rk4_terminal_batch", "solvers"),
    ("nodehead.model", "solve_adaptive", "solvers"),
    ("nodehead.model", "solve", "solvers"),
    ("nodehead.model", "backprop_rk4_batch", "adjoint"),
    ("nodehead.model", "adjoint_solve", "adjoint"),
    ("nodehead.model", "unflatten", "dynamics"),
    ("nodehead.model", "init_params", "dynamics"),
    ("nodehead.solvers", "integrate_adaptive", "solvers"),
    ("nodehead.adjoint", "integrate_adaptive", "solvers"),
]

# Leaf calls aggregated per parent span as (count, total seconds).
LEAF_SITES = [
    ("nodehead.solvers", "eval_dynamics", "dynamics"),
    ("nodehead.solvers", "eval_dynamics_batch", "dynamics"),
    ("nodehead.adjoint", "eval_dynamics", "dynamics"),
    ("nodehead.adjoint", "vjp_state", "dynamics"),
    ("nodehead.adjoint", "vjp_params", "dynamics"),
    ("nodehead.adjoint", "vjp_batch", "dynamics"),
]

MODULES = ("dynamics", "solvers", "adjoint", "model", "train", "data", "cli")

# Loaders whose first argument is a file path; the tracer counts its bytes.
READERS = ("load_cifar10_bin", "load_feature_file")

ROOT = -1  # parent index of a top-level span


class Tracer:
    """In-memory span recorder; ``install`` patches the sites, ``uninstall`` restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, module, start, end, parent]
        self.leaves = {}  # (parent, name, module) -> [count, total_s]
        self.bytes_read = 0
        self._stack = [ROOT]
        self._saved = []

    def span(self, name, module, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, module, clock(), None, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def leaf(self, name, module, fn):
        leaves, stack, clock = self.leaves, self._stack, self.clock

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry = leaves.setdefault((stack[-1], name, module), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return traced

    def counting_reads(self, fn):
        def read(path, *args, **kwargs):
            self.bytes_read += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return read

    def install(self):
        for sites, wrap in ((SITES, self.span), (LEAF_SITES, self.leaf)):
            for mod_name, attr, layer in sites:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                fn = self.counting_reads(original) if attr in READERS else original
                setattr(mod, attr, wrap(f"{layer}.{attr}", layer, fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path):
        """Write spans and aggregated leaves as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, module, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "module": module,
                                     "start": start, "end": end, "parent": parent}) + "\n")
            for (parent, name, module), (count, total) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "module": module, "parent": parent,
                                     "count": count, "total_s": total}) + "\n")


def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, leaves):
    """Self seconds of each span: duration minus the time its children cover.

    ``spans`` holds [name, module, start, end, parent] records; ``leaves``
    maps (parent, name, module) to (count, total_s). Aggregated leaves of one
    parent ran one after another inside it, so their totals add to the
    covered time. Returns a list aligned with ``spans``.
    """
    children = [[] for _ in spans]
    leaf_cover = [0.0] * len(spans)
    for name, module, start, end, parent in spans:
        if parent != ROOT:
            children[parent].append((start, end))
    for (parent, _, _), (_, total) in leaves.items():
        if parent != ROOT:
            leaf_cover[parent] += total
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = _union_length(children[i], start, end) + leaf_cover[i]
        out.append(max(0.0, (end - start) - covered))
    return out


def module_self_times(spans, leaves):
    """Total self seconds per owning module, leaves included."""
    totals = {}
    for rec, self_s in zip(spans, self_times(spans, leaves)):
        totals[rec[1]] = totals.get(rec[1], 0.0) + self_s
    for (_, _, module), (_, total) in leaves.items():
        totals[module] = totals.get(module, 0.0) + total
    return totals
