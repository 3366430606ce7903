"""Synthetic task streams, group partitioning and permutation enumeration.

Tasks share one global output head (all class labels live in a single
space of size C_total and task identity is hidden at evaluation time).
Every generator is a pure function of its seed. Each task carries three
disjoint splits drawn from the same distribution: train, val (used for
permutation selection) and test (used for reporting).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Batch, ModelSpec, accuracy_eval

# a group of k has k! orderings, trained as a prefix trie of
# sum_j k!/(k-j)! task trainings; enumeration warns beyond WARN_GROUP_SIZE
# and is refused beyond MAX_GROUP_SIZE
MAX_GROUP_SIZE = 6
WARN_GROUP_SIZE = 4

# bytes of layer outputs that one task_accuracies product may hold: a row
# scoring T test sets of n samples holds T * n * (sum of layer widths after
# the input) floats, 6 rows on sweep-er-k2's net (5 test sets of 80, widths
# 16 and 10). There, 24 rows in one process took 2.08 ms one call per row,
# 1.20 ms at this size and 1.04 ms as one stack; over 30 s perfbench runs
# (2-core x86 Linux, 1 BLAS thread) peak RSS read a median of 47.4 MB one
# call per row, 47.9 MB at this size, 48.2 MB at 1 MiB and 49.0 MB as whole
# 24-row stacks, which ran the sweep only about 2% faster than this size
SCORE_STACK_BYTES = 1 << 19

# the range a sine task's amplitude is drawn from
SINE_AMPLITUDES = (0.5, 2.0)


@dataclass
class TaskDataset:
    task_id: int
    train: Batch
    val: Batch
    test: Batch
    class_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class TaskGroup:
    group_index: int
    task_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "task_ids", tuple(int(t) for t in self.task_ids))

    @property
    def size(self) -> int:
        return len(self.task_ids)


@dataclass(frozen=True)
class Permutation:
    """An ordering of task indices; each index appears exactly once."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(t) for t in self.order)
        object.__setattr__(self, "order", order)
        if len(set(order)) != len(order):
            raise ValueError(f"permutation repeats an index: {order}")

    def __iter__(self):
        return iter(self.order)

    def label(self) -> str:
        return "-".join(str(t) for t in self.order)


def arrival_order(full_perm, num_tasks: int) -> list[int]:
    """The task ids of a cell's arrival order, which must name each of the
    stream's `num_tasks` tasks exactly once."""
    order = [int(t) for t in full_perm]
    if sorted(order) != list(range(num_tasks)):
        raise ValueError(f"full permutation {order} must cover every task of the "
                         f"{num_tasks}-task stream exactly once")
    return order


def _three_splits(rng, make_split, n_train, n_val, n_test):
    train = make_split(rng, n_train)
    val = make_split(rng, n_val)
    test = make_split(rng, n_test)
    return train, val, test


def _gaussian_split(means, class_ids, dim, rng, per_class):
    xs, ys = [], []
    for c in class_ids:
        xs.append(rng.normal(size=(per_class, dim)) + means[c])
        ys.append(np.full(per_class, c, dtype=np.intp))
    return Batch(np.concatenate(xs), np.concatenate(ys))


def gen_split_gaussians(
    num_classes: int,
    classes_per_task: int,
    dim: int,
    samples_per_class: int,
    spread: float,
    seed: int,
    val_per_class: int,
    test_per_class: int,
) -> list[TaskDataset]:
    """Split protocol on Gaussian clusters: one unit-covariance cluster per
    class, class means at radius `spread`, consecutive classes grouped into
    tasks. The final task absorbs any remainder classes."""
    if min(num_classes, classes_per_task, dim, samples_per_class, val_per_class,
           test_per_class) < 1:
        raise ValueError("class/task/dim/sample counts must be positive")
    if not (math.isfinite(spread) and spread >= 0):
        raise ValueError(f"spread must be nonnegative and finite, got {spread}")

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(num_classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = spread * dirs

    num_tasks = num_classes // classes_per_task
    tasks = []
    for t in range(num_tasks):
        lo = t * classes_per_task
        hi = lo + classes_per_task if t < num_tasks - 1 else num_classes
        class_ids = tuple(range(lo, hi))
        make = lambda r, n: _gaussian_split(means, class_ids, dim, r, n)
        train, val, test = _three_splits(
            rng, make, samples_per_class, val_per_class, test_per_class
        )
        tasks.append(TaskDataset(t, train, val, test, class_ids))
    return tasks


def gen_permuted_features(
    num_tasks: int,
    num_classes: int,
    dim: int,
    samples_per_class: int,
    spread: float,
    seed: int,
    val_per_class: int,
    test_per_class: int,
) -> list[TaskDataset]:
    """Each task is the same Gaussian classification problem with a fixed
    random coordinate permutation applied; task 0 keeps the identity."""
    if num_tasks < 1:
        raise ValueError("need at least one task")
    base = gen_split_gaussians(
        num_classes, num_classes, dim, samples_per_class, spread, seed,
        val_per_class, test_per_class,
    )[0]
    rng = np.random.default_rng(seed)
    all_classes = tuple(range(num_classes))
    tasks = []
    for t in range(num_tasks):
        perm = np.arange(dim) if t == 0 else rng.permutation(dim)
        pick = lambda b: Batch(b.inputs[:, perm], b.targets.copy())
        tasks.append(TaskDataset(t, pick(base.train), pick(base.val), pick(base.test), all_classes))
    return tasks


def gen_sine_tasks(
    num_tasks: int,
    seed: int,
    samples_per_task: int = 100,
    noise_std: float = 0.0,
) -> list[TaskDataset]:
    """Regression stream: task i fits y = A_i sin(x + phi_i) on x in [-pi, pi],
    A_i drawn uniformly from SINE_AMPLITUDES.

    With the default noise_std of 0 the targets are bounded by the drawn
    amplitude exactly.
    """
    if num_tasks < 1 or samples_per_task < 1:
        raise ValueError("need positive task and sample counts")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be nonnegative and finite, got {noise_std}")
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(num_tasks):
        amp = rng.uniform(*SINE_AMPLITUDES)
        phase = rng.uniform(0.0, 2.0 * math.pi)

        def make(r, n, amp=amp, phase=phase):
            x = r.uniform(-math.pi, math.pi, size=(n, 1))
            y = amp * np.sin(x + phase)
            if noise_std > 0:
                y = y + r.normal(scale=noise_std, size=y.shape)
            return Batch(x, y)

        train, val, test = _three_splits(
            rng, make, samples_per_task, max(8, samples_per_task // 4), samples_per_task
        )
        tasks.append(TaskDataset(t, train, val, test))
    return tasks


def task_accuracies(params: np.ndarray, tasks: list[TaskDataset], spec: ModelSpec) -> np.ndarray:
    """accuracy_eval of a parameter vector on each task's test set, in list
    order: (T,) scores for a (p,) vector, (P, T) for a (P, p) stack. The
    test sets of one shape are scored as one (T, n, d) stack against the
    rows as (P, 1, p), so each layer's weights broadcast as
    (P, 1, fan_in, fan_out) and np.matmul runs one (n x d)(d x h) product
    per (row, test set) slice: each entry has the bits of a lone call on
    that row and test set. The rows go SCORE_STACK_BYTES of layer outputs
    at a time."""
    params = np.asarray(params, dtype=np.float64)
    rows = params.reshape(-1, params.shape[-1])[:, None, :]
    by_shape: dict = {}
    for i, t in enumerate(tasks):
        by_shape.setdefault((t.test.inputs.shape, t.test.targets.shape), []).append(i)
    out = np.empty((len(rows), len(tasks)))
    for idx in by_shape.values():
        stack = Batch(np.stack([tasks[i].test.inputs for i in idx]),
                      np.stack([tasks[i].test.targets for i in idx]))
        row_bytes = 8 * len(idx) * stack.n * sum(spec.layer_widths[1:])
        step = max(1, SCORE_STACK_BYTES // row_bytes)
        for lo in range(0, len(rows), step):
            out[lo : lo + step, idx] = accuracy_eval(rows[lo : lo + step], stack, spec)
    return out.reshape(*params.shape[:-1], len(tasks))


def partition_into_groups(num_tasks: int, k: int) -> list[TaskGroup]:
    """Split arrival positions 0..num_tasks-1 into floor(num_tasks/k)
    consecutive groups; the last group absorbs the remainder."""
    if k < 1:
        raise ValueError("group size must be at least 1")
    if num_tasks < 1:
        raise ValueError("need at least one task")
    if k > num_tasks:
        raise ValueError(f"group size {k} exceeds the number of tasks {num_tasks}")
    m = num_tasks // k
    groups = []
    for j in range(m):
        lo = j * k
        hi = lo + k if j < m - 1 else num_tasks
        groups.append(TaskGroup(j, tuple(range(lo, hi))))
    return groups


def enumerate_intra_group_perms(group: TaskGroup) -> list[Permutation]:
    """All (size)! orderings of the group's task ids, lexicographically.

    Enumeration sorts the ids first, so the result depends only on the
    group's membership, never on arrival order within it.
    """
    if group.size > MAX_GROUP_SIZE:
        raise ValueError(
            f"group of size {group.size} would need {math.factorial(group.size)} "
            f"orderings; the cap is {MAX_GROUP_SIZE}"
        )
    if group.size > WARN_GROUP_SIZE:
        warnings.warn(
            f"group size {group.size} costs "
            f"{sum(math.perm(group.size, j) for j in range(1, group.size + 1))} "
            f"task trainings, one per ordering prefix",
            stacklevel=2,
        )
    return [Permutation(p) for p in itertools.permutations(sorted(group.task_ids))]


def sample_full_permutations(
    num_tasks: int,
    how_many: int,
    seed: int,
) -> list[Permutation]:
    """Full-sequence orderings: exhaustive when the budget covers all
    num_tasks! of them, otherwise distinct uniform samples."""
    if num_tasks < 1 or how_many < 1:
        raise ValueError("need positive task and permutation counts")
    total = math.factorial(num_tasks)
    if total <= how_many:
        return [Permutation(p) for p in itertools.permutations(range(num_tasks))]
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    while len(out) < how_many:
        cand = tuple(int(i) for i in rng.permutation(num_tasks))
        if cand not in seen:
            seen.add(cand)
            out.append(Permutation(cand))
    return out


def dump_tasks(tasks: list[TaskDataset], path: str):
    """Columnar text dump: one sample per line (features..., label), with
    `# task <id> <split>` section markers. For reproducibility audits."""
    with open(path, "w") as fh:
        for task in tasks:
            for split_name in ("train", "val", "test"):
                batch = getattr(task, split_name)
                cls = ",".join(str(c) for c in task.class_ids)
                t = batch.targets
                t2 = t[:, None] if t.ndim == 1 else t
                fh.write(
                    f"# task {task.task_id} {split_name} classes={cls} ydim={t2.shape[1]}\n"
                )
                # tolist gives Python floats, or ints for integer labels, whose
                # str is repr(float(v)) or str(int(v))
                for x, y in zip(batch.inputs.tolist(), t2.tolist()):
                    fh.write(f"{' '.join(map(str, x))} {' '.join(map(str, y))}\n")

