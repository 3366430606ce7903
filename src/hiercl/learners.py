"""Local sequential learners: plain SGD, experience replay, and EWC.

A learner trains a (P, p) stack of flat parameter vectors through P
equal-length task orderings in lockstep (P = 1 for a lone ordering): each
step runs one loss and gradient over the whole stack, while every ordering
keeps its own seed, random stream, replay buffer and EWC anchors.
The replay buffer uses single-draw reservoir sampling so that after N
offers every past item survives with probability capacity/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive when set, got {self.grad_clip}")
        if not self.ewc_strength >= 0:
            raise ValueError(f"ewc_strength must be nonnegative, got {self.ewc_strength}")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.kind == "er" and self.buffer_capacity < 1:
            raise ValueError("er needs a positive buffer capacity")


@dataclass
class LearnerState:
    params: np.ndarray
    buffer: ReplayBuffer | None = None
    # one (weights, fisher diagonal) anchor per settled task, ewc only
    anchors: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    # ewc only: the last task trained, whose Fisher `settle` has yet to add
    pending: TaskDataset | None = None


class TrainingDiverged(ValueError):
    """A minibatch loss, the params a task ends with, or the EWC Fisher
    later estimated from them went nonfinite. `index` is the stack row (the
    ordering) that the message names."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _ewc_penalty_grad(params, anchors, strength):
    """Anchor arrays are (p,), shared by every row of a (P, p) params
    stack, or (P, p); they are summed in list order."""
    g = np.zeros_like(params)
    for w_star, fisher in anchors:
        g += fisher * (params - w_star)
    return strength * g


def _sgd_step(params, grad, velocity, cfg: LearnerConfig):
    """One momentum step for every row of a (P, p) stack; clipping scales
    each row by its own norm."""
    g = grad + cfg.weight_decay * params
    if cfg.grad_clip is not None:
        norm = np.array([np.linalg.norm(row) for row in g])
        scale = np.divide(cfg.grad_clip, norm, out=np.ones_like(norm),
                          where=norm > cfg.grad_clip)
        g = g * scale[:, None]
    velocity = cfg.momentum * velocity - cfg.learning_rate * g
    return params + velocity, velocity


def _minibatch_indices(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def _stacked(group) -> Batch:
    """One Batch stacking the (row, inputs, targets) minibatches of a group;
    a lone minibatch just gains the leading axis, without a copy."""
    if len(group) == 1:
        return Batch(group[0][1][None], group[0][2][None])
    return Batch(np.stack([x for _, x, _ in group]), np.stack([y for _, _, y in group]))


def train_on_task(
    params: np.ndarray,
    task,
    cfg: LearnerConfig,
    spec: ModelSpec,
    rng,
    buffer=None,
    anchors=None,
    prox: tuple[np.ndarray, float] | None = None,
) -> np.ndarray:
    """Epochs of momentum SGD on one task. Returns a fresh (P, p) stack.

    `params` is a (P, p) stack of P orderings stepped in lockstep; `task`,
    `rng` and `buffer` (when given) hold one entry per row. Each stacked
    step makes one loss_and_grad call per minibatch shape (rows differ when
    their tasks differ in size, or when only some replay buffers are
    empty), and rows whose epoch has run out of minibatches sit the step
    out. Every row draws from its own rng in the order a lone run does: a
    permutation at each epoch start, then per step the replay sample and
    the buffer offer.
    Arrays in `anchors` and `prox` are (p,), shared by all rows, or (P, p).

    When a buffer is given, every training sample is offered to it exactly
    once (during the first epoch); replay minibatches are mixed in only for
    kind="er". `prox` = (anchor, mu) adds (mu/2)||w - anchor||^2; mu == 0
    takes the exact unmodified code path. A nonfinite minibatch loss raises
    TrainingDiverged at the first stacked step where one occurs, naming the
    first row whose loss it is; so do nonfinite params at the end of the
    task, naming the first row that holds them.
    """
    params = np.array(params, dtype=np.float64)
    if params.ndim != 2:
        raise ValueError(f"params must be a (P, p) stack, got shape {params.shape}")
    rows = len(params)
    buffer = [None] * rows if buffer is None else buffer
    velocity = np.zeros_like(params)
    for epoch in range(cfg.epochs_per_task):
        plans = [_minibatch_indices(t.train.n, cfg.batch_size, r) for t, r in zip(task, rng)]
        for step in range(max(map(len, plans))):
            active = [i for i in range(rows) if step < len(plans[i])]
            fresh, by_shape = {}, {}
            for i in active:
                data, idx = task[i].train, plans[i][step]
                xb, yb = fresh[i] = data.inputs[idx], data.targets[idx]
                if cfg.kind == "er" and buffer[i] is not None and len(buffer[i]) > 0:
                    # half current task, half replayed
                    rx, ry, _ = buffer[i].sample(len(idx), rng[i])
                    xb, yb = np.concatenate([xb, rx]), np.concatenate([yb, ry])
                by_shape.setdefault((xb.shape, yb.shape), []).append((i, xb, yb))
            groups = list(by_shape.values())
            if len(groups[0]) == rows:  # every row on one minibatch shape
                loss, grad = loss_and_grad(params, _stacked(groups[0]), spec)
            else:
                loss, grad = np.zeros(rows), np.zeros_like(params)
                for group in groups:
                    sel = [i for i, _, _ in group]
                    loss[sel], grad[sel] = loss_and_grad(params[sel], _stacked(group), spec)
            losses = loss.tolist()
            if not all(map(math.isfinite, losses)):
                i = next(i for i, v in enumerate(losses) if not math.isfinite(v))
                raise TrainingDiverged(f"task {task[i].task_id}: epoch {epoch}, step {step}: "
                                       f"minibatch loss is {losses[i]}; training diverged", i)
            if anchors:
                grad = grad + _ewc_penalty_grad(params, anchors, cfg.ewc_strength)
            if prox is not None:
                anchor, mu = prox
                if mu != 0.0:
                    grad = grad + mu * (params - anchor)
            stepped, moved = _sgd_step(params, grad, velocity, cfg)
            if len(active) == rows:
                params, velocity = stepped, moved
            else:
                params[active], velocity[active] = stepped[active], moved[active]
            if epoch == 0:
                for i in active:
                    if buffer[i] is not None:
                        buffer[i].insert_many(*fresh[i], task[i].task_id, rng[i])
    _check_rows(params, task, "params are")
    return params


def _check_rows(stack, tasks, what: str):
    """Raise TrainingDiverged naming the first row of the (P, p) stack that
    holds a nonfinite value."""
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise TrainingDiverged(f"task {tasks[i].task_id}: {what} not finite after "
                               f"training; training diverged", i)


def _fishers(params, tasks, spec: ModelSpec) -> np.ndarray:
    """The EWC Fisher diagonal of each row of the (P, p) stack on its
    row's task; TrainingDiverged names the first nonfinite one."""
    fishers = np.stack([estimate_diag_curvature(w, t.train, spec).diag
                        for w, t in zip(params, tasks)])
    _check_rows(fishers, tasks, "EWC Fisher is")
    return fishers


def settle(state: LearnerState, spec: ModelSpec) -> LearnerState:
    """`state` with its pending task's EWC anchor added, which estimates
    that Fisher; `state` itself when nothing is pending. A caller settles a
    state once, before training on from it or storing it, and never writes
    either state. A nonfinite Fisher raises TrainingDiverged (index 0)."""
    if state.pending is None:
        return state
    fisher = _fishers(state.params[None], [state.pending], spec)[0]
    return LearnerState(state.params, state.buffer, state.anchors + [(state.params, fisher)])


def train_seq(
    perms: list[Permutation],
    tasks: list[TaskDataset],
    init: np.ndarray,
    cfg: LearnerConfig,
    spec: ModelSpec,
    seeds: list[int],
    buffers=None,
    anchors=None,
) -> list[LearnerState]:
    """Train P equal-length orderings in lockstep from `init` and incoming
    (settled) `anchors`; returns one state per ordering.

    `init` is one (p,) vector that every ordering starts from, or a (P, p)
    stack with one start per ordering; each (weights, Fisher) pair in
    `anchors` holds (p,) arrays shared by every ordering or (P, p) stacks,
    whose row i is ordering i's anchor. Ordering i draws from an rng seeded
    with seeds[i] and keeps its own buffer (buffers[i] when given) and
    anchor list, so its state is bitwise the one a lone call on its own
    start and anchors gives. Under EWC, task j's Fishers are estimated
    just before task j+1 trains, since its penalty reads them; the last
    task's Fisher is left pending in each returned state, for `settle` by
    whichever caller continues from that state.

    Deterministic given identical inputs and seeds. The passed buffers are
    mutated in place (reservoir offers for every visited sample); all other
    inputs stay untouched. A nonfinite loss raises TrainingDiverged at the
    first stacked step where one occurs; its `index` is the first ordering
    in the list that diverged there. Nonfinite params at the end of a task,
    or a nonfinite Fisher estimated here, raise it too, naming the first
    such ordering.
    """
    buffers = list(buffers) if buffers is not None else [None] * len(perms)
    if not perms or not len(perms[0]):
        raise ValueError("no tasks to train on")
    if len(seeds) != len(perms) or len(buffers) != len(perms):
        raise ValueError("lockstep training needs one seed and one buffer slot per ordering")
    if any(len(p) != len(perms[0]) for p in perms):
        raise ValueError("orderings trained in lockstep must have equal length")
    rngs = [np.random.default_rng(s) for s in seeds]
    if cfg.kind == "er":
        buffers = [ReplayBuffer(cfg.buffer_capacity) if b is None else b for b in buffers]
    ewc = cfg.kind == "ewc"
    shared = list(anchors or [])
    own = []  # one (P, p) weight stack and Fisher stack per settled task
    init = np.asarray(init, dtype=np.float64)
    params = init if init.ndim == 2 else np.repeat(init[None], len(perms), axis=0)
    if len(params) != len(perms):
        raise ValueError(f"a stacked init needs one row per ordering, got {len(params)} "
                         f"rows for {len(perms)} orderings")
    for pos in range(len(perms[0])):
        if ewc and pos:  # train_on_task never writes its input
            own.append((params, _fishers(params, step_tasks, spec)))
        step_tasks = [tasks[p.order[pos]] for p in perms]
        params = train_on_task(params, step_tasks, cfg, spec, rngs, buffer=buffers,
                               anchors=shared + own if ewc else None)
    return [LearnerState(params[i].copy(), buffers[i],
                         [(_row(w, i), _row(f, i)) for w, f in shared + own],
                         step_tasks[i] if ewc else None)
            for i in range(len(perms))]


def _row(array, i):
    """Row i of a (P, p) stack as its own array; a shared (p,) array as is."""
    return array[i].copy() if array.ndim == 2 else array
