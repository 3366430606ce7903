"""Federated-style aggregation baselines over a task sequence.

Each arriving task plays the role of a client: a local model trains from
the current global weights (FedProx adds a proximal pull back toward
them), then the global model is refreshed by parameter averaging. The
default keeps a running average over all locals seen so far; a pairwise
mode averages just (previous global, new local). Fed cells share their
arrival prefixes through the plan that every method uses
(memo.ArrivalPlan): a sweep's first fed cell of each data seed and method
trains the arrival trie of every planned order, so its wall time carries
the whole trie, and each later cell takes its leaf; fedavg and fedprox
never share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .learners import LearnerConfig, train_on_task
from .memo import ArrivalPlan
from .metrics import AccuracyMatrix
from .model import ModelSpec, init_params
from .pipeline import FED_STREAM, INIT_STREAM, derive_seed
from .tasks import Permutation, TaskDataset, arrival_order, task_accuracies

FED_KINDS = ("fedavg", "fedprox")
AGG_MODES = ("running", "pairwise")


@dataclass
class FedConfig:
    kind: str = "fedavg"
    prox_mu: float = 0.0
    aggregate: str = "running"

    def __post_init__(self):
        if self.kind not in FED_KINDS:
            raise ValueError(f"unknown federated kind {self.kind!r}")
        if not (math.isfinite(self.prox_mu) and self.prox_mu >= 0):
            raise ValueError(f"prox_mu must be nonnegative and finite, got {self.prox_mu}")
        if self.kind == "fedavg" and self.prox_mu != 0:
            raise ValueError("fedavg does not take a proximal coefficient")
        if self.aggregate not in AGG_MODES:
            raise ValueError(f"aggregate must be one of {AGG_MODES}, got {self.aggregate!r}")


def fedavg_aggregate(models) -> np.ndarray:
    """Uniform mean of parameter vectors."""
    if not models:
        raise ValueError("nothing to aggregate")
    return np.stack([np.asarray(m, dtype=np.float64) for m in models]).mean(axis=0)


def fed_compare_run(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    fed_cfg: FedConfig,
    learner_cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    init: np.ndarray | None = None,
    plan: ArrivalPlan | None = None,
) -> tuple[np.ndarray, AccuracyMatrix]:
    """Sequential federated consolidation over the arrival order; returns
    the final global weights and the per-stage accuracy matrix.

    The first cell of `plan` trains the arrival trie of every planned order
    (see memo.train_trie): each depth's clients train as one (P, p) stack
    through train_on_task, every row from its parent's global weights,
    which are also its proximal anchor, with the seed
    derive_seed(base_seed, FED_STREAM, depth); each row is then averaged
    into its own new global weights. A leaf keeps only the global weights
    and accuracies that the cell's result reads."""
    order = arrival_order(full_perm, len(tasks))
    mu = fed_cfg.prox_mu if fed_cfg.kind == "fedprox" else 0.0
    last = len(order) - 1

    def train_stack(depth, prefixes, parents):
        anchor = np.stack([global_w for global_w, _, _ in parents])
        seed = derive_seed(base_seed, FED_STREAM, depth)
        rngs = [np.random.default_rng(seed) for _ in prefixes]
        locals_ = train_on_task(anchor, [tasks[p[-1]] for p in prefixes], learner_cfg, spec,
                                rngs, pull=(mu, mu * anchor) if mu != 0.0 else None)
        nodes = []
        for (global_w, seen, accs), local in zip(parents, locals_):
            if fed_cfg.aggregate == "running":
                seen += (local,)
                global_w = fedavg_aggregate(seen)
            else:
                global_w = fedavg_aggregate([global_w, local])
            nodes.append((global_w, seen if depth < last else (),
                          accs + (task_accuracies(global_w, tasks, spec),)))
        return nodes

    def make_root():
        w = init_params(spec, derive_seed(base_seed, INIT_STREAM)) if init is None else init
        return np.array(w, dtype=np.float64), (), ()

    global_w, _, accs = (ArrivalPlan() if plan is None else plan).take(
        tuple(order), make_root, train_stack)
    return global_w, AccuracyMatrix(np.stack(accs)[:, order])
