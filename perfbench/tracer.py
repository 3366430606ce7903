"""In-memory span tracer that wraps public hiercl functions from outside.

`from .x import y` copies a function reference into the importing
module, so patching only the defining module misses those calls. The
tracer therefore rebinds every attribute of every loaded `hiercl.*`
module that is the target function, and patches ReplayBuffer methods on
the class. Each binding counts its own calls, which lets the benchmark
check its coverage.

A span is (name, start, end, parent span, cell id). A cell is one call
of a cell function (`run_pipeline`, `run_baseline_seq`,
`fed_compare_run`) that is not nested in another span. Spans stay in
memory until the caller writes them out. An `after_cell(cell id,
seconds)` callback, if given, runs after each cell span has closed.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter

CELL_ROOTS = {
    "pipeline.run_pipeline": "hier",
    "experiment.run_baseline_seq": "seq",
    "federated.fed_compare_run": "fed",
}

# metric name -> (defining module, attribute or Class.method)
_ORIGINS = {
    "model.loss_and_grad": ("hiercl.model", "loss_and_grad"),
    "model.per_sample_grads": ("hiercl.model", "per_sample_grads"),
    "model.accuracy_eval": ("hiercl.model", "accuracy_eval"),
    "learners.train_seq": ("hiercl.learners", "train_seq"),
    "learners.train_on_task": ("hiercl.learners", "train_on_task"),
    "learners.replay_sample": ("hiercl.learners", "ReplayBuffer.sample"),
    "learners.replay_insert_many": ("hiercl.learners", "ReplayBuffer.insert_many"),
    "learners.replay_clone": ("hiercl.learners", "ReplayBuffer.clone"),
    "learners.replay_as_batch": ("hiercl.learners", "ReplayBuffer.as_batch"),
    "curvature.estimate_gradient": ("hiercl.curvature", "estimate_gradient"),
    "curvature.estimate_diag_curvature": ("hiercl.curvature", "estimate_diag_curvature"),
    "curvature.regularized_solve": ("hiercl.curvature", "regularized_solve"),
    "consolidation.multi_level_consolidate": ("hiercl.consolidation",
                                              "multi_level_consolidate"),
    "consolidation.catch_up": ("hiercl.consolidation", "catch_up"),
    "pipeline.run_pipeline": ("hiercl.pipeline", "run_pipeline"),
    "pipeline.explore_group": ("hiercl.pipeline", "explore_group"),
    "pipeline.selection_audit": ("hiercl.pipeline", "selection_audit"),
    "federated.fed_compare_run": ("hiercl.federated", "fed_compare_run"),
    "federated.fedavg_aggregate": ("hiercl.federated", "fedavg_aggregate"),
    "experiment.run_baseline_seq": ("hiercl.experiment", "run_baseline_seq"),
    "tasks.make_tasks": ("hiercl.experiment", "make_tasks"),
}


def _trie_min(k: int) -> int:
    """Distinct ordering prefixes of a k-group: sum_j k!/(k-j)!."""
    return sum(math.factorial(k) // math.factorial(k - j) for j in range(1, k + 1))


def _count_psg_bytes(counts, args, result):
    n, p = result.shape
    counts["model.per_sample_grads.bytes_computed"] += n * p * 8


def _count_insert_items(counts, args, result):
    counts["learners.replay_insert_many.items"] += len(args[1])


def _count_exploration(counts, args, result):
    counts["pipeline.orderings_scored"] += len(result.per_perm_scores)
    counts["pipeline.trie_min_trainings"] += _trie_min(result.group.size)


_PROBES = {
    "model.per_sample_grads": _count_psg_bytes,
    "learners.replay_insert_many": _count_insert_items,
    "pipeline.explore_group": _count_exploration,
}


class Tracer:
    """Patches the named hiercl functions while installed (a context
    manager) and records one span per call."""

    def __init__(self, names, after_cell=None):
        unknown = set(names) - set(_ORIGINS)
        if unknown:
            raise ValueError(f"no traceable function named {sorted(unknown)}")
        self.names = tuple(names)
        self.after_cell = after_cell
        self.span_name: list[str] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_cell: list[int] = []
        self.cell_results: list = []      # return value of each cell, by cell id
        self.site_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name in self.names:
            module_name, attr = _ORIGINS[name]
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, name, f"{module_name}.{attr}")
                continue
            target = getattr(module, attr)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("hiercl.") or mod is None:
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, binding, name, f"{mod_name}.{binding}")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, name, site):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        self.site_calls[site] += 0
        setattr(owner, attr, self._wrap(original, name, site))

    def _wrap(self, fn, name, site):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, cells, stack = self.span_parent, self.span_cell, self._stack
        site_calls, counts, cell_results = self.site_calls, self.counts, self.cell_results
        probe = _PROBES.get(name)
        is_root = name in CELL_ROOTS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            if stack:
                parent = stack[-1]
                cell = cells[parent]
            else:
                parent = -1
                cell = len(cell_results) if is_root else -1
                if is_root:
                    cell_results.append(None)
            names.append(name)
            parents.append(parent)
            cells.append(cell)
            ends.append(math.nan)
            site_calls[site] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            if parent < 0 and is_root:
                cell_results[cell] = result
                if self.after_cell is not None:
                    self.after_cell(cell, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- read-out -------------------------------------------------------

    def cells(self):
        """(cell id, kind, seconds) for every cell root span, in call order."""
        out = []
        for i, name in enumerate(self.span_name):
            if self.span_parent[i] < 0 and name in CELL_ROOTS:
                out.append((self.span_cell[i], CELL_ROOTS[name],
                            self.span_end[i] - self.span_start[i]))
        return out

    def layer_summary(self) -> dict:
        """calls and self time per traced name, plus the counts taken at
        layer boundaries."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        under_explore = [False] * n
        trainings = 0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_explore[i] = under_explore[p] or self.span_name[p] == "pipeline.explore_group"
            if under_explore[i] and self.span_name[i] == "learners.train_on_task":
                trainings += 1
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += dur[i] - child[i]
        counts = dict(self.counts)
        counts["pipeline.task_trainings"] = trainings
        return {
            "calls": {name: calls[name] for name in self.names},
            "self_s": {name: self_s[name] for name in self.names},
            "counts": counts,
            "site_calls": dict(self.site_calls),
        }

    def write_spans(self, fh, pass_index: int):
        """One JSON array per span: [pass, name, start, end, parent, cell]."""
        for i, name in enumerate(self.span_name):
            fh.write(json.dumps([pass_index, name, self.span_start[i], self.span_end[i],
                                 self.span_parent[i], self.span_cell[i]]) + "\n")
