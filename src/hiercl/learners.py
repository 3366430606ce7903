"""Local sequential learners: plain SGD, experience replay, and EWC.

A learner trains a (P, p) stack of flat parameter vectors in lockstep,
one task per row (P = 1 for a lone state): each step runs one loss and
gradient over the rows that share a schedule, while every row keeps its
own seed, random stream, replay buffer and online-EWC sums SigmaF,
SigmaF*w* (Schwarz et al. 2018, gamma = 1), which make its penalty one
pull a*w - b, as FedProx's is.
The replay buffer uses single-draw reservoir sampling so that after N
offers every past item survives with probability capacity/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curvature import estimate_diag_curvature
from .model import Batch, ModelSpec, loss_and_grad
from .tasks import TaskDataset

LEARNER_KINDS = ("sgd", "er", "ewc")


class ReplayBuffer:
    """Bounded sample memory with reservoir eviction.

    `inputs` and `targets` are arrays holding exactly the stored items, in
    slot order. The first `capacity` offers always land; offer N > capacity
    lands with probability capacity/N, evicting a uniformly random slot.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        self.capacity = int(capacity)
        self.inputs, self.targets = np.empty((0, 0)), np.empty(0)
        self.seen_count = 0

    def __len__(self):
        return len(self.targets)

    def _draws(self, n: int, rng: np.random.Generator):
        """(k, draws) for an offer of n items, from len and seen_count only:
        the first k fill free slots; item k + j evicts slot draws[j] if it is < capacity."""
        k = min(self.capacity - len(self), n)
        draws = (rng.integers(0, self.seen_count + k + 1 + np.arange(n - k)) if n > k
                 else np.arange(0))
        self.seen_count += n
        return k, draws

    def insert_many(self, inputs, targets, rng: np.random.Generator):
        """Offer a batch of items, in row order; the eviction draws for the
        items past the fill phase are vectorized."""
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets)
        k, draws = self._draws(inputs.shape[0], rng)
        if k > 0:
            if not len(self):  # the first items fix the row shape and target dtype
                self.inputs, self.targets = inputs[:0], targets[:0]
            self.inputs = np.concatenate([self.inputs, inputs[:k]])
            self.targets = np.concatenate([self.targets, targets[:k]])
        # in offer order, so a slot hit twice keeps the later item
        for j in np.flatnonzero(draws < self.capacity).tolist():
            slot, row = int(draws[j]), k + j
            self.inputs[slot], self.targets[slot] = inputs[row], targets[row]

    def offer(self, batch: Batch, order, rng: np.random.Generator):
        """insert_many of `batch`'s rows, taken in `order`."""
        self.insert_many(batch.inputs[order], batch.targets[order], rng)

    def sample(self, size: int, rng: np.random.Generator):
        """Uniform draw of `size` stored items -> (inputs, targets).
        Samples without replacement when the buffer is large enough."""
        if not len(self):
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(len(self), size=size, replace=len(self) < size)
        return self.inputs[idx], self.targets[idx]

    def as_batch(self) -> Batch:
        """All stored items in slot order."""
        if not len(self):
            raise ValueError("buffer is empty")
        return Batch(self.inputs.copy(), self.targets.copy())

    def clone(self) -> "ReplayBuffer":
        out = ReplayBuffer(self.capacity)
        out.inputs, out.targets = self.inputs.copy(), self.targets.copy()
        out.seen_count = self.seen_count
        return out


class ReplayCounts(ReplayBuffer):
    """A buffer's counts, not its items, for a prefix that never reads its
    buffer: its offers make the same rng draws and store nothing."""

    def __init__(self, buffer: ReplayBuffer):
        self.capacity, self.seen_count = buffer.capacity, buffer.seen_count

    def __len__(self):  # a reservoir holds every offer until it is full
        return min(self.capacity, self.seen_count)

    def offer(self, batch: Batch, order, rng: np.random.Generator):  # copies no rows
        self._draws(len(order), rng)

    def _no_items(self, *args):
        raise ValueError("a counts-only buffer holds no items")

    insert_many = sample = as_batch = _no_items

    def clone(self) -> "ReplayCounts":
        return ReplayCounts(self)


@dataclass
class LearnerConfig:
    kind: str = "sgd"
    learning_rate: float = 0.1
    epochs_per_task: int = 3
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4
    buffer_capacity: int = 50
    ewc_strength: float = 10.0

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"learner.kind must be one of {LEARNER_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learner.learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"learner.momentum must lie in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"learner.weight_decay must be nonnegative and finite, "
                             f"got {self.weight_decay}")
        if not (math.isfinite(self.ewc_strength) and self.ewc_strength >= 0):
            raise ValueError(f"learner.ewc_strength must be nonnegative and finite, "
                             f"got {self.ewc_strength}")
        if self.epochs_per_task < 1:
            raise ValueError(f"learner.epochs_per_task must be at least 1, "
                             f"got {self.epochs_per_task}")
        if self.batch_size < 1:
            raise ValueError(f"learner.batch_size must be at least 1, got {self.batch_size}")
        if self.buffer_capacity < 1:  # hier's consolidation pool holds a buffer for every kind
            raise ValueError(f"learner.buffer_capacity must be at least 1, "
                             f"got {self.buffer_capacity}")


@dataclass
class LearnerState:
    params: np.ndarray
    buffer: ReplayBuffer | None = None
    # ewc only: (SigmaF, SigmaF*w*) over the settled tasks, None before any
    ewc: tuple[np.ndarray, np.ndarray] | None = None
    # ewc only: the last task trained, whose Fisher `settle` has yet to add
    pending: TaskDataset | None = None


class TrainingDiverged(ValueError):
    """A minibatch loss, the params a task ends with, or the EWC Fisher
    later estimated from them went nonfinite. `index` is the stack row (the
    ordering) that the message names."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _sgd_step(params, grad, velocity, cfg: LearnerConfig):
    """One momentum step, in place, for every row of a (P, p) stack of
    params and its velocity."""
    g = params * cfg.weight_decay
    g += grad
    velocity *= cfg.momentum
    g *= cfg.learning_rate
    velocity -= g
    params += velocity


def epoch_plan(task: TaskDataset, rng, buffer=None):
    """An epoch's sample order: one permutation of the task's training set
    drawn from `rng`; a given `buffer` is offered the whole task in that
    order right after the draw, as a non-replay learner's epoch 0 does."""
    order = rng.permutation(task.train.n)
    if buffer is not None:
        buffer.offer(task.train, order, rng)
    return order


def _train_schedule(params, task, cfg: LearnerConfig, spec: ModelSpec, rng, buffer, pull):
    """train_on_task, in place, for the rows of `params` that share one
    schedule: each step makes one loss_and_grad call and one SGD update
    over them all.

    The rows' training sets are stacked once, and each step's fresh
    minibatch is one gather from that stack by the rows' epoch orders.
    Under er, a row's replay draw is written after its fresh half in one
    (P, 2b, ...) minibatch, and its offer is its own slice of the gather.
    """
    inputs = np.stack([t.train.inputs for t in task])
    targets = np.stack([t.train.targets for t in task])
    rows = np.arange(len(task))[:, None]
    velocity = np.zeros_like(params)
    replay = cfg.kind == "er"
    for epoch in range(cfg.epochs_per_task):
        offer = [None] * len(buffer) if replay or epoch else buffer
        order = np.stack([epoch_plan(t, r, b) for t, r, b in zip(task, rng, offer)])
        for step, lo in enumerate(range(0, order.shape[1], cfg.batch_size)):
            idx = order[:, lo : lo + cfg.batch_size]
            x, y = inputs[rows, idx], targets[rows, idx]
            mixed = x, y
            if replay and buffer[0] is not None and len(buffer[0]) > 0:
                # half current task, half replayed; row 0's buffer is empty when all are
                b = idx.shape[1]
                mixed = (np.empty((len(task), 2 * b, *x.shape[2:])),
                         np.empty((len(task), 2 * b, *y.shape[2:]), y.dtype))
                mixed[0][:, :b], mixed[1][:, :b] = x, y
                for i, (buf, r) in enumerate(zip(buffer, rng)):
                    mixed[0][i, b:], mixed[1][i, b:] = buf.sample(b, r)
            loss, grad = loss_and_grad(params, Batch(*mixed), spec)
            losses = loss.tolist()
            if not all(map(math.isfinite, losses)):
                i = next(i for i, v in enumerate(losses) if not math.isfinite(v))
                raise TrainingDiverged(f"task {task[i].task_id}: epoch {epoch}, step {step}: "
                                       f"minibatch loss is {losses[i]}; training diverged", i)
            if pull is not None:
                term = pull[0] * params
                term -= pull[1]
                grad += term
            _sgd_step(params, grad, velocity, cfg)
            if replay and epoch == 0:
                for i, (buf, r) in enumerate(zip(buffer, rng)):
                    if buf is not None:
                        buf.insert_many(x[i], y[i], r)
    bad = np.flatnonzero(~np.isfinite(params).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise TrainingDiverged(f"task {task[i].task_id}: params are not finite after "
                               f"training; training diverged", i)


def train_on_task(
    params: np.ndarray,
    task,
    cfg: LearnerConfig,
    spec: ModelSpec,
    rng,
    buffer=None,
    pull=None,
) -> np.ndarray:
    """Epochs of momentum SGD on one task. Returns a fresh (P, p) stack.

    `params` is a (P, p) stack of P orderings stepped in lockstep; `task`,
    `rng` and `buffer` (when given) hold one entry per row. A row's
    schedule is its task's training-set size and, under er only, whether
    its buffer is absent, empty or filled. Rows are grouped by schedule in
    first-appearance order, and each group trains on its own: every step
    makes one loss_and_grad call and one SGD update over the group's rows.
    Every row draws from its own rng in the order a lone run does: a
    permutation at each epoch start; then under er, per step the replay
    sample and the offer; otherwise the epoch-0 offer of the whole task
    right after its permutation.

    When a buffer is given, every training sample is offered to it exactly
    once (during the first epoch); replay minibatches are mixed in only for
    kind="er". `pull` = (a, b) adds a*w - b to every gradient, a and b each
    a scalar, a (p,) array shared by all rows or a (P, p) stack; None takes
    the exact unmodified code path. A nonfinite minibatch loss raises
    TrainingDiverged at the first step of its group where one occurs; its
    `index` is the row of `params` that is the group's first with such a
    loss. So do nonfinite params at the end of the task, naming the
    group's first row that holds them. When schedules are mixed, the first
    group in first-appearance order that diverges raises, whatever step
    the others would diverge at.
    """
    # row-major whatever the caller's layout, so the stacked products give
    # the bits of rows trained alone
    params = np.array(params, dtype=np.float64, order="C")
    if params.ndim != 2:
        raise ValueError(f"params must be a (P, p) stack, got shape {params.shape}")
    buffer = [None] * len(params) if buffer is None else buffer
    schedules = {}
    for i, (t, b) in enumerate(zip(task, buffer)):
        replay = None if cfg.kind != "er" or b is None else len(b) > 0
        schedules.setdefault((t.train.n, replay), []).append(i)
    for rows in schedules.values():
        group_pull = None if pull is None else tuple(x[rows] if np.ndim(x) == 2 else x
                                                     for x in pull)
        own = params[rows]
        try:
            _train_schedule(own, [task[i] for i in rows], cfg, spec, [rng[i] for i in rows],
                            [buffer[i] for i in rows], group_pull)
        except TrainingDiverged as err:
            err.index = rows[err.index]
            raise
        params[rows] = own
    return params


def settle(state: LearnerState, spec: ModelSpec, row: int = 0) -> LearnerState:
    """`state` with its pending task's Fisher F estimated and added into new
    EWC sums (SigmaF + F, SigmaF*w* + F*w); `state` itself when nothing is
    pending. A caller settles a state once, before training on from it or
    storing it, and never writes either state. A nonfinite Fisher raises
    TrainingDiverged with index `row`, the state's row in the caller's stack."""
    if state.pending is None:
        return state
    fisher = estimate_diag_curvature(state.params, state.pending.train, spec).diag
    if not np.isfinite(fisher).all():
        raise TrainingDiverged(f"task {state.pending.task_id}: EWC Fisher is not finite "
                               f"after training; training diverged", row)
    sum_f, sum_fw = state.ewc or (0.0, 0.0)
    return replace(state, ewc=(sum_f + fisher, sum_fw + fisher * state.params), pending=None)


def train_seq(
    parents: list[LearnerState],
    tasks: list[TaskDataset],
    cfg: LearnerConfig,
    spec: ModelSpec,
    seeds: list[int],
) -> list[LearnerState]:
    """Train row i on tasks[i] from the settled state parents[i], every row
    in one (P, p) train_on_task call; returns one child state per row.

    Row i draws from an rng seeded with seeds[i] and offers its samples to
    a clone of its parent's buffer (a new buffer under er when the parent
    has none; a ReplayCounts parent gives a ReplayCounts). Under EWC the
    call's one pull is lambda times the (P, p) stack of the rows' sums
    (SigmaF, SigmaF*w*).
    Each child keeps its parent's sums and leaves its task's Fisher
    pending, for `settle` by whichever caller continues from it. So child
    i is bitwise the state a lone call on parents[i] gives.

    Deterministic given identical inputs and seeds; no parent is written.
    A divergence raises TrainingDiverged as train_on_task does.
    """
    if not parents:
        raise ValueError("no tasks to train on")
    if len(tasks) != len(parents) or len(seeds) != len(parents):
        raise ValueError("train_seq needs one task and one seed per parent")
    if any(parent.pending is not None for parent in parents):
        raise ValueError("train_seq trains on from settled parents only")
    if len({parent.ewc is None for parent in parents}) > 1:
        raise ValueError("every parent needs EWC sums, or none does")
    buffers = [parent.buffer.clone() if parent.buffer is not None else
               ReplayBuffer(cfg.buffer_capacity) if cfg.kind == "er" else None
               for parent in parents]
    ewc = cfg.kind == "ewc"
    pull = None
    if ewc and parents[0].ewc is not None:
        pull = tuple(cfg.ewc_strength * np.stack(sums)
                     for sums in zip(*(parent.ewc for parent in parents)))
    params = train_on_task(np.stack([parent.params for parent in parents]), tasks, cfg, spec,
                           [np.random.default_rng(s) for s in seeds], buffer=buffers, pull=pull)
    return [LearnerState(params[i].copy(), buffers[i], parent.ewc, tasks[i] if ewc else None)
            for i, parent in enumerate(parents)]
