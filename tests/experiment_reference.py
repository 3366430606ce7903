"""Per-cell reference for the seq and fed arrival tries.

`run_baseline_seq` and `fed_compare_run` are the earlier per-cell
runners: each cell trains its whole order alone, one task at a time,
through the serial learners (train_seq from learners_reference.py, one rng
per task, and fedprox_train_local from federated_reference.py). The
library's trie, which trains each depth of all planned orders as (P, p)
stacks, must match them bit for bit, cell by cell.

`sweep_init` gives the initial weights that run_experiment hands every
cell of a data seed, for tests that call a runner directly.
"""

from __future__ import annotations

import numpy as np
from federated_reference import fedprox_train_local
from learners_reference import train_seq

from hiercl.federated import fedavg_aggregate
from hiercl.learners import LearnerConfig, LearnerState
from hiercl.metrics import AccuracyMatrix
from hiercl.model import ModelSpec, init_params
from hiercl.pipeline import FED_STREAM, INIT_STREAM, SEQ_STREAM, derive_seed
from hiercl.tasks import Permutation, TaskDataset, task_accuracies


def sweep_init(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    """The initial weights of every cell of data seed `seed` in a sweep."""
    return init_params(spec, derive_seed(seed, INIT_STREAM))


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
) -> AccuracyMatrix:
    """Plain continual learner over the arrival order, no grouping and no
    consolidation; one accuracy row per finished task. The serial learner
    estimates each task's EWC Fisher as soon as the task ends."""
    order = list(full_perm)
    # train_seq gives er its buffer at the first task
    state, accs = LearnerState(init), ()
    for i, task in enumerate(order):
        state = train_seq(Permutation((task,)), tasks, state.params, lcfg, spec,
                          derive_seed(seed, SEQ_STREAM, i), shared_buffer=state.buffer,
                          ewc=state.ewc)
        accs += (task_accuracies(state.params, tasks, spec),)
    return AccuracyMatrix(np.stack(accs)[:, order])


def fed_compare_run(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    mu: float,
    learner_cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    init: np.ndarray,
) -> tuple[np.ndarray, AccuracyMatrix]:
    """Sequential federated consolidation over the arrival order; returns
    the final global weights and the per-stage accuracy matrix."""
    order = list(full_perm)
    if sorted(order) != list(range(len(tasks))):
        raise ValueError("full permutation must cover every task exactly once")
    global_w, locals_, accs = np.array(init, dtype=np.float64), [], []
    for i, task in enumerate(order):
        local = fedprox_train_local(tasks[task], global_w, learner_cfg, mu, spec,
                                    derive_seed(base_seed, FED_STREAM, i))
        locals_.append(local)
        global_w = fedavg_aggregate(locals_)
        accs.append(task_accuracies(global_w, tasks, spec))
    return global_w, AccuracyMatrix(np.stack(accs)[:, order])
