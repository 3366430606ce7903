"""Serial reference for the lockstep learner.

`train_on_task` and `train_seq` (with their helpers) are the earlier
one-ordering learner: one parameter vector, one loss and gradient call per
minibatch, one ordering per call. They are kept verbatim but for two edits:
`train_seq` takes its seed as an argument instead of reading `cfg.seed`;
and the quadratic penalty is one pull, as in the library. `train_on_task`
takes `pull` = (a, b) and adds a*w - b to the gradient where it took an
EWC anchor list and FedProx's (anchor, mu), and `train_seq` keeps the EWC
state as the sums (SigmaF, SigmaF*w*), passing (lambda*SigmaF,
lambda*SigmaF*w*). Its loss and gradient come from
`model_reference.ref_loss_and_grad`, so it shares no stacked code with the
library. The library's lockstep engine must match a loop of these calls bit
for bit, row by row. `ewc_penalty_grad` is the earlier list-form penalty,
which the summed pull must match within a rounding bound.
"""

from __future__ import annotations

import math

import numpy as np
from model_reference import ref_loss_and_grad as loss_and_grad

from hiercl.curvature import estimate_diag_curvature
from hiercl.learners import LearnerConfig, LearnerState, ReplayBuffer
from hiercl.model import Batch, ModelSpec, sample_factors
from hiercl.tasks import Permutation, TaskDataset


def ewc_penalty_grad(params, anchors, strength):
    g = np.zeros_like(params)
    for w_star, fisher in anchors:
        g += fisher * (params - w_star)
    return strength * g


def _sgd_step(params, grad, velocity, cfg: LearnerConfig):
    g = grad + cfg.weight_decay * params
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
    pull=None,
) -> np.ndarray:
    """Epochs of momentum SGD on one task. Returns fresh params.

    When a buffer is given, every training sample is offered to it exactly
    once (during the first epoch); replay minibatches are mixed in only for
    kind="er". `pull` = (a, b) adds a*w - b to the gradient; None takes
    the exact unmodified code path.
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
                rx, ry = buffer.sample(len(idx), rng)
                mb = Batch(np.concatenate([xb, rx]), np.concatenate([yb, ry]))
            loss, grad = loss_and_grad(params, mb, spec)
            if not math.isfinite(loss):
                raise ValueError(f"task {task.task_id}: epoch {epoch}, step {step}: "
                                 f"minibatch loss is {loss}; training diverged")
            if pull is not None:
                grad += pull[0] * params - pull[1]
            params, velocity = _sgd_step(params, grad, velocity, cfg)
            if buffer is not None and epoch == 0:
                buffer.insert_many(xb, yb, rng)
    return params


def train_seq(
    perm: Permutation,
    tasks: list[TaskDataset],
    init: np.ndarray,
    cfg: LearnerConfig,
    spec: ModelSpec,
    seed: int,
    shared_buffer: ReplayBuffer | None = None,
    ewc=None,
) -> LearnerState:
    """Train through the tasks selected by `perm`, in that order.

    Deterministic given identical inputs and seed. The passed buffer is
    mutated in place (reservoir offers for every visited sample); all other
    inputs stay untouched.
    """
    if not tasks:
        raise ValueError("no tasks to train on")
    rng = np.random.default_rng(seed)
    buffer = shared_buffer
    if buffer is None and cfg.kind == "er":
        buffer = ReplayBuffer(cfg.buffer_capacity)
    state = LearnerState(np.array(init, dtype=np.float64), buffer, ewc)
    for t in perm:
        task = tasks[t]
        state.params = train_on_task(
            state.params, task, cfg, spec, rng,
            buffer=state.buffer,
            pull=None if cfg.kind != "ewc" or state.ewc is None else
            (cfg.ewc_strength * state.ewc[0], cfg.ewc_strength * state.ewc[1]),
        )
        if cfg.kind == "ewc":
            fisher = estimate_diag_curvature(sample_factors(state.params, task.train, spec)[1],
                                             spec).diag
            sum_f, sum_fw = state.ewc or (0.0, 0.0)
            state.ewc = (sum_f + fisher, sum_fw + fisher * state.params)
    return state
