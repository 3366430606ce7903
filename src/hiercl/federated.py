"""Federated-style aggregation baselines over a task sequence.

Each arriving task plays the role of a client: a local model trains from
the current global weights (FedProx adds a proximal pull back toward
them), then the global model is refreshed by parameter averaging. The
default keeps a running average over all locals seen so far; a pairwise
mode averages just (previous global, new local).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import LearnerConfig, train_on_task
from .memo import PrefixMemo, arrival_prefixes
from .metrics import AccuracyMatrix
from .model import ModelSpec, init_params
from .pipeline import FED_STREAM, derive_seed
from .tasks import Permutation, TaskDataset, task_accuracies

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
        if not self.prox_mu >= 0:
            raise ValueError(f"prox_mu must be nonnegative, got {self.prox_mu}")
        if self.kind == "fedavg" and self.prox_mu != 0:
            raise ValueError("fedavg does not take a proximal coefficient")
        if self.aggregate not in AGG_MODES:
            raise ValueError(f"aggregate must be one of {AGG_MODES}, got {self.aggregate!r}")


def fedavg_aggregate(models) -> np.ndarray:
    """Uniform mean of parameter vectors."""
    if not models:
        raise ValueError("nothing to aggregate")
    return np.stack([np.asarray(m, dtype=np.float64) for m in models]).mean(axis=0)


def fedprox_train_local(
    task: TaskDataset,
    anchor: np.ndarray,
    cfg: LearnerConfig,
    prox_mu: float,
    spec: ModelSpec,
    seed: int,
) -> np.ndarray:
    """Train one client task from (and proximally tied to) the anchor.

    prox_mu = 0 follows the exact unmodified optimizer path, so it is
    bitwise-identical to plain training with the same seed.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    return train_on_task(anchor[None], [task], cfg, spec, [np.random.default_rng(seed)],
                         prox=(anchor, prox_mu))[0]


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
