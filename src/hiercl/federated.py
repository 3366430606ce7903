"""Federated-style aggregation baselines over a task sequence.

Each arriving task plays the role of a client: a local model trains from
the current global weights (FedProx adds a proximal pull back toward
them), then the global model is refreshed by parameter averaging: a
running average over all locals seen so far. Fed cells share their
arrival prefixes through the plan that every method uses
(memo.ArrivalPlan): a sweep's first fed cell of each data seed and method
trains the arrival trie of every planned order, so its wall time carries
the whole trie, and each later cell takes its leaf; fedavg and fedprox
never share one.
"""

from __future__ import annotations

import numpy as np

from .learners import LearnerConfig, train_on_task
from .memo import ArrivalPlan
from .metrics import AccuracyMatrix
from .model import ModelSpec
from .pipeline import FED_STREAM, derive_seed
from .tasks import Permutation, TaskDataset, arrival_order, task_accuracies


def fedavg_aggregate(models) -> np.ndarray:
    """Uniform mean of parameter vectors."""
    if not models:
        raise ValueError("nothing to aggregate")
    return np.stack([np.asarray(m, dtype=np.float64) for m in models]).mean(axis=0)


def fed_compare_run(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    mu: float,
    learner_cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    init: np.ndarray,
    plan: ArrivalPlan | None = None,
) -> tuple[np.ndarray, AccuracyMatrix]:
    """Sequential federated consolidation over the arrival order; returns
    the final global weights and the per-stage accuracy matrix. `mu` is
    the coefficient of the proximal pull, 0 for none.

    The first cell of `plan` trains the arrival trie of every planned order
    (see memo.train_trie): each depth's clients train as one (P, p) stack
    through train_on_task, every row from its parent's global weights,
    which are also its proximal anchor, with the seed
    derive_seed(base_seed, FED_STREAM, depth); each row is then averaged
    into its own new global weights, and the stack's new global weights
    are scored on every test set in one task_accuracies call. A leaf keeps
    only the global weights and accuracies that the cell's result reads."""
    order = arrival_order(full_perm, len(tasks))
    last = len(order) - 1

    def train_stack(depth, prefixes, parents):
        anchor = np.stack([global_w for global_w, _, _ in parents])
        seed = derive_seed(base_seed, FED_STREAM, depth)
        rngs = [np.random.default_rng(seed) for _ in prefixes]
        locals_ = train_on_task(anchor, [tasks[p[-1]] for p in prefixes], learner_cfg, spec,
                                rngs, pull=(mu, mu * anchor) if mu != 0.0 else None)
        seens = [seen + (local,) for (_, seen, _), local in zip(parents, locals_)]
        globals_ = np.stack([fedavg_aggregate(seen) for seen in seens])
        scores = task_accuracies(globals_, tasks, spec)
        return [(globals_[row], seen if depth < last else (), accs + (scores[row],))
                for row, (seen, (_, _, accs)) in enumerate(zip(seens, parents))]

    def make_root():
        return np.array(init, dtype=np.float64), (), ()

    global_w, _, accs = (ArrivalPlan() if plan is None else plan).take(
        tuple(order), make_root, train_stack)
    return global_w, AccuracyMatrix(np.stack(accs)[:, order])
