"""Per-cell reference for the seq and fed arrival tries.

`run_baseline_seq` and `fed_compare_run` are the earlier per-cell
runners, kept verbatim: each cell resumes from the deepest arrival prefix
a PrefixMemo holds, then trains the rest of its order one task at a time
through the library's one-row calls (train_seq from a (p,) init,
fedprox_train_local) and offers the memo each prefix it ends. Called
without a memo, a cell trains its whole order alone. The library's trie,
which trains each depth of all planned orders as (P, p) stacks, must match
them bit for bit, cell by cell.
"""

from __future__ import annotations

import numpy as np

from hiercl.federated import FedConfig, fedavg_aggregate, fedprox_train_local
from hiercl.learners import LearnerConfig, LearnerState, settle, train_seq
from hiercl.memo import PrefixMemo
from hiercl.metrics import AccuracyMatrix
from hiercl.model import ModelSpec, init_params
from hiercl.pipeline import FED_STREAM, SEQ_STREAM, derive_seed
from hiercl.tasks import Permutation, TaskDataset, task_accuracies


def arrival_prefixes(order) -> list[tuple[int, ...]]:
    """Seq and fed keys: the arrival order up to and including each task."""
    order = tuple(int(t) for t in order)
    return [order[: i + 1] for i in range(len(order))]


def run_baseline_seq(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    lcfg: LearnerConfig,
    spec: ModelSpec,
    seed: int,
    init: np.ndarray,
    memo: PrefixMemo | None = None,
) -> AccuracyMatrix:
    """Plain continual learner over the arrival order, no grouping and no
    consolidation; one accuracy row per finished task. Resumes from the
    longest arrival prefix stored in `memo` and offers it each later one.
    Every state but the last is settled (its EWC Fisher estimated) before
    it is stored, so a resume trains on from a settled state and the
    order's final Fisher is never estimated."""
    order = list(full_perm)
    keys = arrival_prefixes(order)
    memo = PrefixMemo() if memo is None else memo
    depth, node = memo.resume(keys)
    # train_seq gives er its buffer at the first task
    state, accs = (LearnerState(init), ()) if node is None else node
    shared = node is not None  # train_seq writes its buffers; a memo's buffer is copied
    for i in range(depth, len(order)):
        buffer = state.buffer.clone() if shared and state.buffer is not None else state.buffer
        state = train_seq([Permutation((order[i],))], tasks, state.params, lcfg, spec,
                          [derive_seed(seed, SEQ_STREAM, i)], buffers=[buffer],
                          anchors=state.anchors)[0]
        accs += (task_accuracies(state.params, tasks, spec),)
        if i < len(order) - 1:
            state = settle(state, spec)
        shared = memo.store(keys[i], (state, accs))
    return AccuracyMatrix(np.stack(accs)[:, order])


def fed_compare_run(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    fed_cfg: FedConfig,
    learner_cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    init: np.ndarray | None = None,
    memo: PrefixMemo | None = None,
) -> tuple[np.ndarray, AccuracyMatrix]:
    """Sequential federated consolidation over the arrival order; returns
    the final global weights and the per-stage accuracy matrix. Resumes
    from the longest arrival prefix stored in `memo` and offers it each
    later one."""
    order = list(full_perm)
    if sorted(order) != list(range(len(tasks))):
        raise ValueError("full permutation must cover every task exactly once")
    keys = arrival_prefixes(order)
    memo = PrefixMemo() if memo is None else memo
    depth, node = memo.resume(keys)
    if node is None:
        global_w = np.array(init if init is not None else init_params(spec, base_seed),
                            dtype=np.float64)
        node = (global_w, (), ())
    global_w, locals_, accs = node  # tuples, so a stored node is never written
    mu = fed_cfg.prox_mu if fed_cfg.kind == "fedprox" else 0.0
    for i in range(depth, len(order)):
        local = fedprox_train_local(tasks[order[i]], global_w, learner_cfg, mu, spec,
                                    derive_seed(base_seed, FED_STREAM, i))
        if fed_cfg.aggregate == "running":
            locals_ += (local,)
            global_w = fedavg_aggregate(locals_)
        else:
            global_w = fedavg_aggregate([global_w, local])
        accs += (task_accuracies(global_w, tasks, spec),)
        memo.store(keys[i], (global_w, locals_, accs))
    return global_w, AccuracyMatrix(np.stack(accs)[:, order])
