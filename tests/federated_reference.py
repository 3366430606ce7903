"""One-client FedProx trainer, for tests.

The library's fed trie trains every client of a depth as one (P, p) stack
through `learners.train_on_task`; `fedprox_train_local` is the one-row
call, which the federated tests and acceptance criterion 13 use to check
that mu = 0 follows the plain optimizer path and to replay the protocol by
hand. Its proximal gradient mu*(w - anchor) is the pull (mu, mu*anchor),
formed only when mu != 0.
"""

import numpy as np

from hiercl.learners import LearnerConfig, train_on_task
from hiercl.model import ModelSpec
from hiercl.tasks import TaskDataset


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
                         pull=(prox_mu, prox_mu * anchor) if prox_mu != 0.0 else None)[0]
