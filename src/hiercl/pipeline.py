"""End-to-end grouped continual learning.

Arrival order is cut into groups of k tasks. Within a group every ordering
is trained from the same weight and buffer snapshot, all k! of them in
lockstep as one parameter stack; the best-scoring ordering wins and its
local model is consolidated into the slow hierarchy.
After the last group a short catch-up phase re-applies the consolidation
toward the final local model.

Anything that feeds float arithmetic is assembled in task-id order, and
per-ordering training seeds depend only on (base seed, group index, task
ids), so two arrival sequences with the same group membership produce
bitwise-identical hierarchies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .consolidation import (HierarchyState, catch_up, init_hierarchy,
                            initialize_from_local, lambda_schedule,
                            multi_level_consolidate)
from .curvature import (estimate_diag_curvature, estimate_gradient,
                        estimate_lowrank_curvature, exact_dense_hessian_oracle,
                        parse_curvature_spec)
from .learners import LearnerConfig, LearnerState, ReplayBuffer, TrainingDiverged, train_seq
from .metrics import AccuracyMatrix
from .model import Batch, ModelSpec, accuracy_eval, init_params
from .tasks import (Permutation, TaskDataset, TaskGroup,
                    enumerate_intra_group_perms, partition_into_groups)

EVAL_POLICIES = ("group_val", "seen_test")

# uniform cap on samples fed to the estimators; keeps cost bounded
DEFAULT_SAMPLE_CAP = 512


def derive_seed(*parts) -> int:
    """Collision-resistant child seed from a tuple of nonnegative ints."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class PipelineConfig:
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    group_size: int = 2
    levels: int = 2
    lam: float = 1.0
    lambda_factor: float = 1.0
    eta: float = 0.9
    clip: float | None = 1.0
    n_catch: int = 2
    curvature: str = "diag"
    eval_policy: str = "group_val"
    sample_cap: int | None = DEFAULT_SAMPLE_CAP
    audit_draws: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError("group_size must be at least 1")
        if self.levels < 1:
            raise ValueError("need at least one hierarchy level")
        if self.n_catch < 0:
            raise ValueError("n_catch must be nonnegative")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.eval_policy not in EVAL_POLICIES:
            raise ValueError(f"eval_policy must be one of {EVAL_POLICIES}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        parse_curvature_spec(self.curvature)  # fail fast on typos


@dataclass
class GroupExplorationResult:
    group: TaskGroup
    best_perm: Permutation
    per_perm_scores: list[tuple[Permutation, float]]
    best_state: LearnerState


@dataclass
class RunResult:
    hierarchy: HierarchyState
    matrix: AccuracyMatrix
    group_results: list[GroupExplorationResult]
    update_norms: list[list[float]]  # one row per consolidation event
    audit: dict
    log: list[dict]


class SelectionAuditError(AssertionError):
    pass


def _concat_batches(batches: list[Batch]) -> Batch:
    return Batch(np.concatenate([b.inputs for b in batches]),
                 np.concatenate([b.targets for b in batches]))


def _eval_batch(tasks, group: TaskGroup, policy: str, seen_task_ids) -> Batch:
    if policy == "group_val":
        ids = sorted(group.task_ids)
        return _concat_batches([tasks[i].val for i in ids])
    ids = sorted(seen_task_ids)
    return _concat_batches([tasks[i].test for i in ids])


def explore_group(
    group: TaskGroup,
    tasks: list[TaskDataset],
    init: np.ndarray,
    cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    eval_policy: str = "group_val",
    buffer: ReplayBuffer | None = None,
    anchors=None,
    seen_task_ids=None,
) -> GroupExplorationResult:
    """Train every ordering of the group from identical snapshots and pick
    the best score; ties go to the lexicographically smallest ordering.

    The k! orderings step in lockstep through one train_seq call and are
    scored by one accuracy_eval call on the finished stack. Each ordering
    keeps the seed derive_seed(base_seed, group index, *ordering) and its
    own rng stream, buffer clone and anchors, so its result does not depend
    on the others. A nonfinite loss stops training at the first stacked
    step where one occurs, and the error names the lexicographically first
    ordering whose loss is nonfinite there; nonfinite params or EWC Fisher
    at the end of a task stop it the same way."""
    perms = enumerate_intra_group_perms(group)
    eval_batch = _eval_batch(tasks, group, eval_policy,
                             seen_task_ids or group.task_ids)
    children = [cfg.reseeded(derive_seed(base_seed, group.group_index, *perm.order))
                for perm in perms]
    where = f"group {group.group_index}: ordering"
    try:
        states = train_seq(
            perms, tasks, init, children, spec,
            shared_buffer=[buffer.clone() for _ in perms] if buffer is not None else None,
            anchors=anchors,
        )
    except TrainingDiverged as err:
        raise ValueError(f"{where} {perms[err.index].label()}: {err}") from err
    scores = accuracy_eval(np.stack([state.params for state in states]), eval_batch, spec)
    for perm, score in zip(perms, scores):
        if not math.isfinite(score):
            raise ValueError(f"{where} {perm.label()} scored {score}; training diverged")
    best = int(np.argmax(scores))  # the first maximum
    return GroupExplorationResult(
        group=group,
        best_perm=perms[best],
        per_perm_scores=[(perm, float(score)) for perm, score in zip(perms, scores)],
        best_state=states[best],
    )


def consolidation_pool(buffer: ReplayBuffer, group_batches: list[Batch],
                       cap: int | None, seed: int) -> Batch:
    """The one sample set behind g and H for a group: the buffer's items
    (slot order) then the group's batches, thinned to `cap` by a seeded
    uniform draw that keeps their order."""
    pool = _concat_batches(([buffer.as_batch()] if len(buffer) else []) + group_batches)
    if cap is not None and pool.n > cap:
        keep = np.sort(np.random.default_rng(seed).choice(pool.n, size=cap, replace=False))
        pool = Batch(pool.inputs[keep], pool.targets[keep])
    return pool


def _estimators(cfg: PipelineConfig, pool: Batch, spec):
    variant, rank = parse_curvature_spec(cfg.curvature)

    def grad_fn(w):
        return estimate_gradient(w, pool, spec)

    def curv_fn(w):
        if variant == "diagonal":
            return estimate_diag_curvature(w, pool, spec)
        if variant == "lowrank":
            return estimate_lowrank_curvature(w, pool, spec, rank)
        return exact_dense_hessian_oracle(w, pool, spec)

    return grad_fn, curv_fn


def run_pipeline(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    cfg: PipelineConfig,
    spec: ModelSpec,
    init: np.ndarray | None = None,
) -> RunResult:
    order = list(full_perm)
    t_count = len(order)
    if sorted(order) != list(range(len(tasks))):
        raise ValueError("full permutation must cover every task exactly once")
    if cfg.group_size > t_count:
        raise ValueError("group size exceeds the number of tasks")

    if init is None:
        init = init_params(spec, cfg.seed)
    hier = init_hierarchy(init, lambda_schedule(cfg.lam, cfg.levels, cfg.lambda_factor))
    buffer = ReplayBuffer(cfg.learner.buffer_capacity)
    anchors: list = []
    seen: list[int] = []

    matrix = np.zeros((t_count, t_count))
    group_results: list[GroupExplorationResult] = []
    update_norms: list[list[float]] = []
    log: list[dict] = []
    grad_fn = curv_fn = None
    last_local = None

    def eval_row():
        return np.array([accuracy_eval(hier.top, tasks[tid].test, spec)
                         for tid in order])

    pos = 0
    slot_groups = partition_into_groups(t_count, cfg.group_size)
    for slot_group in slot_groups:
        # slots hold arrival positions; the group itself is a set of task ids
        group = TaskGroup(slot_group.group_index,
                          tuple(order[s] for s in slot_group.task_ids))
        seen.extend(group.task_ids)
        res = explore_group(
            group, tasks, hier.levels[0], cfg.learner, spec, cfg.seed,
            cfg.eval_policy, buffer=buffer, anchors=anchors,
            seen_task_ids=tuple(seen),
        )
        group_results.append(res)
        buffer = res.best_state.buffer
        anchors = res.best_state.anchors
        last_local = res.best_state.params

        # group 0 only copies the local model; its pool is needed only
        # when it is also the last group, for the catch-up passes
        if group.group_index > 0 or len(slot_groups) == 1:
            pool = consolidation_pool(buffer, [tasks[i].train for i in sorted(group.task_ids)],
                                      cfg.sample_cap, cfg.seed)
            grad_fn, curv_fn = _estimators(cfg, pool, spec)
        if group.group_index == 0:
            hier = initialize_from_local(hier, last_local)
            norms = None
        else:
            hier, norms = multi_level_consolidate(hier, last_local, grad_fn, curv_fn,
                                                  eta=cfg.eta, clip=cfg.clip)
            update_norms.append(norms)
        row = eval_row()
        matrix[pos : pos + group.size] = row
        pos += group.size
        log.append({
            "event": "group", "group_index": group.group_index,
            "task_ids": [int(i) for i in group.task_ids],
            "scores": [[p.label(), float(s)] for p, s in res.per_perm_scores],
            "selected": res.best_perm.label(),
            "update_norms": norms,
        })

    hier, catch_norms = catch_up(hier, last_local, grad_fn, curv_fn,
                                 cfg.n_catch, eta=cfg.eta, clip=cfg.clip)
    update_norms.extend(catch_norms)
    for i, norms in enumerate(catch_norms):
        log.append({"event": "catch_up", "iteration": i, "update_norms": norms})
    matrix[t_count - 1] = eval_row()

    audit = selection_audit(group_results, n_draws=cfg.audit_draws,
                            seed=derive_seed(cfg.seed, 3))
    log.append({"event": "audit", **audit})
    return RunResult(hier, AccuracyMatrix(matrix), group_results,
                     update_norms, audit, log)


def selection_audit(group_results, n_draws: int = 1000, seed: int = 0) -> dict:
    """Check that the scores of the *recorded* winners dominate random
    intra-group selections, the exhaustive per-group maxima, and the
    per-group means. Any violation raises.

    Every comparison is computed in difference form: each per-group term
    best - s_i is a correctly-rounded difference of two floats with the
    sign of the exact result, so when the recorded winner really is the
    argmax no amount of summation rounding can flip an inequality that
    holds in exact arithmetic (e.g. all-equal scores give gap 0, not an
    ulp-sized negative).
    """
    score_lists = []
    best_scores = []
    for res in group_results:
        scores = [s for _, s in res.per_perm_scores]
        if not all(math.isfinite(s) for s in scores):
            raise SelectionAuditError(
                f"group {res.group.group_index} has a nonfinite score")
        match = [s for p, s in res.per_perm_scores if p.order == res.best_perm.order]
        if len(match) != 1:
            raise SelectionAuditError("selected ordering missing from the score table")
        score_lists.append(scores)
        best_scores.append(match[0])
    violations = 0
    for best, scores in zip(best_scores, score_lists):
        if best < max(scores):
            violations += 1  # this group kept a non-argmax ordering
    rng = np.random.default_rng(seed)
    picks = [rng.integers(0, len(scores), size=n_draws) for scores in score_lists]
    for d in range(n_draws):
        gap = math.fsum(
            best - scores[int(p[d])]
            for best, scores, p in zip(best_scores, score_lists, picks)
        )
        if gap < 0:
            violations += 1
    if violations:
        raise SelectionAuditError(
            f"{violations} selection-audit violations over {n_draws} random draws"
        )
    gap_vs_mean = math.fsum(
        math.fsum(best - s for s in scores) / len(scores)
        for best, scores in zip(best_scores, score_lists)
    )
    if gap_vs_mean < 0:
        raise SelectionAuditError("summed best scores fell below the summed means")
    sum_best = math.fsum(best_scores)
    return {
        "groups": len(score_lists),
        "draws": int(n_draws),
        "violations": 0,
        "sum_best": sum_best,
        "sum_mean": sum_best - gap_vs_mean,
        "gap_vs_mean": gap_vs_mean,
    }


def write_run_log(path: str, log: list[dict]):
    with open(path, "w") as fh:
        for entry in log:
            fh.write(json.dumps(entry) + "\n")
