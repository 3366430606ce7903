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
from .metrics import AccuracyMatrix
from .model import ModelSpec, accuracy_eval, init_params
from .pipeline import derive_seed
from .tasks import Permutation, TaskDataset

FED_KINDS = ("fedavg", "fedprox")
AGG_MODES = ("running", "pairwise")

_FED_STREAM = 2  # seed-stream tag for per-client rngs


@dataclass
class FedConfig:
    kind: str = "fedavg"
    prox_mu: float = 0.0
    aggregate: str = "running"

    def __post_init__(self):
        if self.kind not in FED_KINDS:
            raise ValueError(f"unknown federated kind {self.kind!r}")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be nonnegative")
        if self.kind == "fedavg" and self.prox_mu != 0:
            raise ValueError("fedavg does not take a proximal coefficient")
        if self.aggregate not in AGG_MODES:
            raise ValueError(f"aggregate must be one of {AGG_MODES}")


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
) -> np.ndarray:
    """Train one client task from (and proximally tied to) the anchor.

    prox_mu = 0 follows the exact unmodified optimizer path, so it is
    bitwise-identical to plain training with the same seed.
    """
    rng = np.random.default_rng(cfg.seed)
    return train_on_task(anchor, task, cfg, spec, rng, buffer=None,
                         prox=(np.asarray(anchor, dtype=np.float64), prox_mu))


def fed_compare_run(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    fed_cfg: FedConfig,
    learner_cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, AccuracyMatrix]:
    """Sequential federated consolidation over the arrival order; returns
    the final global weights and the per-stage accuracy matrix."""
    order = list(full_perm)
    if sorted(order) != list(range(len(tasks))):
        raise ValueError("full permutation must cover every task exactly once")
    global_w = np.array(init if init is not None else init_params(spec, base_seed),
                        dtype=np.float64)
    mu = fed_cfg.prox_mu if fed_cfg.kind == "fedprox" else 0.0
    matrix = np.zeros((len(order), len(order)))
    locals_: list[np.ndarray] = []
    for i, tid in enumerate(order):
        child = learner_cfg.reseeded(derive_seed(base_seed, _FED_STREAM, i))
        local = fedprox_train_local(tasks[tid], global_w, child, mu, spec)
        if fed_cfg.aggregate == "running":
            locals_.append(local)
            global_w = fedavg_aggregate(locals_)
        else:
            global_w = fedavg_aggregate([global_w, local])
        matrix[i] = [accuracy_eval(global_w, tasks[t].test, spec) for t in order]
    return global_w, AccuracyMatrix(matrix)
