"""Local sequential learners: plain SGD, experience replay, and EWC.

A learner trains one flat parameter vector through an ordered sequence of
tasks. The replay buffer uses single-draw reservoir sampling so that after
N offers every past item survives with probability capacity/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import estimate_diag_curvature
from .model import Batch, ModelSpec, loss_and_grad
from .tasks import Permutation, TaskDataset

LEARNER_KINDS = ("sgd", "er", "ewc")


class ReplayBuffer:
    """Bounded sample memory with reservoir eviction.

    `inputs`, `targets` and `task_ids` are arrays holding exactly the
    stored items, in slot order. The first `capacity` offers always land;
    offer N > capacity lands with probability capacity/N, evicting a
    uniformly random slot.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        self.capacity = int(capacity)
        self.inputs, self.targets = np.empty((0, 0)), np.empty(0)
        self.task_ids = np.empty(0, dtype=np.int64)
        self.seen_count = 0

    def __len__(self):
        return self.task_ids.size

    def insert_many(self, inputs, targets, task_id: int, rng: np.random.Generator):
        """Offer a batch of same-task items, in row order; the eviction
        draws for the items past the fill phase are vectorized."""
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets)
        n = inputs.shape[0]
        k = min(self.capacity - len(self), n)  # fill phase: these always land
        if k > 0:
            if not len(self):  # the first items fix the row shape and target dtype
                self.inputs, self.targets = inputs[:0], targets[:0]
            self.inputs = np.concatenate([self.inputs, inputs[:k]])
            self.targets = np.concatenate([self.targets, targets[:k]])
            self.task_ids = np.concatenate([self.task_ids, np.full(k, int(task_id))])
            self.seen_count += k
        m = n - k
        if m == 0:
            return
        # item j (0-based among the rest) is candidate number seen_count+j+1
        draws = rng.integers(0, self.seen_count + 1 + np.arange(m))
        # in offer order, so a slot hit twice keeps the later item
        for j in np.nonzero(draws < self.capacity)[0].tolist():
            slot, row = int(draws[j]), k + j
            self.inputs[slot], self.targets[slot] = inputs[row], targets[row]
            self.task_ids[slot] = task_id
        self.seen_count += m

    def sample(self, size: int, rng: np.random.Generator):
        """Uniform draw of `size` stored items -> (inputs, targets, task_ids).
        Samples without replacement when the buffer is large enough."""
        if not len(self):
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(len(self), size=size, replace=len(self) < size)
        return self.inputs[idx], self.targets[idx], self.task_ids[idx]

    def as_batch(self) -> Batch:
        """All stored items in slot order."""
        if not len(self):
            raise ValueError("buffer is empty")
        return Batch(self.inputs.copy(), self.targets.copy())

    def clone(self) -> "ReplayBuffer":
        out = ReplayBuffer(self.capacity)
        out.inputs, out.targets = self.inputs.copy(), self.targets.copy()
        out.task_ids = self.task_ids.copy()
        out.seen_count = self.seen_count
        return out


@dataclass
class LearnerConfig:
    kind: str = "sgd"
    learning_rate: float = 0.1
    epochs_per_task: int = 3
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4
    grad_clip: float | None = None
    buffer_capacity: int = 50
    ewc_strength: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.kind == "er" and self.buffer_capacity < 1:
            raise ValueError("er needs a positive buffer capacity")

    def reseeded(self, seed: int) -> "LearnerConfig":
        return replace(self, seed=int(seed))


@dataclass
class LearnerState:
    params: np.ndarray
    buffer: ReplayBuffer | None = None
    # one (weights, fisher diagonal) anchor per completed task, ewc only
    anchors: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def ewc_penalty(params: np.ndarray, anchors, strength: float) -> float:
    """Quadratic retention penalty (strength/2) * sum_a sum_i F_i (w_i - w*_i)^2."""
    total = 0.0
    for w_star, fisher in anchors:
        d = params - w_star
        total += float(fisher @ (d * d))
    return 0.5 * strength * total


def _ewc_penalty_grad(params, anchors, strength):
    g = np.zeros_like(params)
    for w_star, fisher in anchors:
        g += fisher * (params - w_star)
    return strength * g


def _sgd_step(params, grad, velocity, cfg: LearnerConfig):
    g = grad + cfg.weight_decay * params
    if cfg.grad_clip is not None:
        norm = float(np.linalg.norm(g))
        if norm > cfg.grad_clip:
            g = g * (cfg.grad_clip / norm)
    velocity = cfg.momentum * velocity - cfg.learning_rate * g
    return params + velocity, velocity


def _minibatch_indices(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def train_on_task(
    params: np.ndarray,
    task: TaskDataset,
    cfg: LearnerConfig,
    spec: ModelSpec,
    rng: np.random.Generator,
    buffer: ReplayBuffer | None = None,
    anchors=None,
    prox: tuple[np.ndarray, float] | None = None,
) -> np.ndarray:
    """Epochs of momentum SGD on one task. Returns fresh params.

    When a buffer is given, every training sample is offered to it exactly
    once (during the first epoch); replay minibatches are mixed in only for
    kind="er". `prox` = (anchor, mu) adds (mu/2)||w - anchor||^2; mu == 0
    takes the exact unmodified code path.
    """
    params = np.array(params, dtype=np.float64)
    velocity = np.zeros_like(params)
    data = task.train
    for epoch in range(cfg.epochs_per_task):
        for step, idx in enumerate(_minibatch_indices(data.n, cfg.batch_size, rng)):
            xb = data.inputs[idx]
            yb = data.targets[idx]
            mb = Batch(xb, yb)
            if cfg.kind == "er" and buffer is not None and len(buffer) > 0:
                # half current task, half replayed
                rx, ry, _ = buffer.sample(len(idx), rng)
                mb = Batch(np.concatenate([xb, rx]), np.concatenate([yb, ry]))
            loss, grad = loss_and_grad(params, mb, spec)
            if not math.isfinite(loss):
                raise ValueError(f"task {task.task_id}: epoch {epoch}, step {step}: "
                                 f"minibatch loss is {loss}; training diverged")
            if anchors:
                grad = grad + _ewc_penalty_grad(params, anchors, cfg.ewc_strength)
            if prox is not None:
                anchor, mu = prox
                if mu != 0.0:
                    grad = grad + mu * (params - anchor)
            params, velocity = _sgd_step(params, grad, velocity, cfg)
            if buffer is not None and epoch == 0:
                buffer.insert_many(xb, yb, task.task_id, rng)
    return params


def train_seq(
    perm: Permutation,
    tasks: list[TaskDataset],
    init: np.ndarray,
    cfg: LearnerConfig,
    spec: ModelSpec,
    shared_buffer: ReplayBuffer | None = None,
    anchors=None,
) -> LearnerState:
    """Train through the tasks selected by `perm`, in that order.

    Deterministic given identical inputs and cfg.seed. The passed buffer is
    mutated in place (reservoir offers for every visited sample); all other
    inputs stay untouched.
    """
    if not tasks:
        raise ValueError("no tasks to train on")
    rng = np.random.default_rng(cfg.seed)
    buffer = shared_buffer
    if buffer is None and cfg.kind == "er":
        buffer = ReplayBuffer(cfg.buffer_capacity)
    state = LearnerState(np.array(init, dtype=np.float64), buffer, list(anchors or []))
    for t in perm:
        task = tasks[t]
        state.params = train_on_task(
            state.params, task, cfg, spec, rng,
            buffer=state.buffer,
            anchors=state.anchors if cfg.kind == "ewc" else None,
        )
        if cfg.kind == "ewc":
            fisher = estimate_diag_curvature(state.params, task.train, spec).diag
            state.anchors.append((state.params.copy(), fisher))
    return state
