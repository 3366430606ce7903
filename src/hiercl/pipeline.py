"""End-to-end grouped continual learning.

Arrival order is cut into groups of k tasks. Within a group every ordering
is trained from the same weight and buffer snapshot, the k! of them as a
prefix trie whose depths train as parameter stacks; the best-scoring
ordering wins and its local model is consolidated into the slow hierarchy.
After the last group a short catch-up phase re-applies the consolidation
toward the final local model.

Anything that feeds float arithmetic is assembled in task-id order, and
the training seed of each ordering prefix depends only on (base seed,
group index, task ids), so two arrival sequences with the same group
membership produce bitwise-identical hierarchies. A sweep uses that: the
hier cells of an ArrivalPlan train the trie of their membership chains
once, one group per depth, and the memberships explored from one parent
state share the ordering prefixes their tasks have in common.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .consolidation import (HierarchyState, catch_up, init_hierarchy, lambda_schedule,
                            multi_level_consolidate)
from .curvature import (estimate_diag_curvature, estimate_gradient,
                        estimate_lowrank_curvature, parse_curvature_spec)
from .learners import (LearnerConfig, LearnerState, ReplayBuffer, ReplayCounts,
                       TrainingDiverged, epoch_plan, settle, train_seq)
from .memo import ArrivalPlan, train_trie
from .metrics import AccuracyMatrix
from .model import Batch, ModelSpec, accuracy_eval, sample_factors
from .tasks import (Permutation, TaskDataset, TaskGroup, arrival_order,
                    enumerate_intra_group_perms, partition_into_groups, task_accuracies)

# cap on the consolidation pool behind g and H. The perfbench workloads' pools
# are 120-370 rows and README's example config's 290, so none is thinned
SAMPLE_CAP = 512

# seed-stream tags
INIT_STREAM, SEQ_STREAM, FED_STREAM, AUDIT_STREAM, HIER_STREAM = 0, 1, 2, 3, 4


def derive_seed(*parts) -> int:
    """Collision-resistant child seed from a tuple of nonnegative ints.

    The streams of a run with data seed s: (s, INIT_STREAM) initial weights;
    (s, SEQ_STREAM, i) and (s, FED_STREAM, i) the seq and fed learners at
    arrival position i; (s, AUDIT_STREAM) the selection audit;
    (s, HIER_STREAM, g, j, *prefix) the last task of a length-j ordering
    prefix in hier group g; s itself the consolidation-pool draws.
    SeedSequence pads its entropy with zeros, so parts that differ only by
    trailing zeros collide; every stream has its own tag, and the hier
    stream names the prefix length before the prefix, so no two of them do.
    """
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
    audit_draws: int = 1000

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError(f"run.group_size must be at least 1, got {self.group_size}")
        if self.levels < 1:
            raise ValueError(f"run.levels must be at least 1, got {self.levels}")
        if self.n_catch < 0:
            raise ValueError(f"run.catchup must be nonnegative, got {self.n_catch}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"run.eta must lie in (0, 1], got {self.eta}")
        if self.clip is not None and not self.clip > 0:
            raise ValueError(f"run.clip must be positive when set, got {self.clip}")
        if self.audit_draws < 0:
            raise ValueError(f"run.audit_draws must be nonnegative, got {self.audit_draws}")
        try:
            lambda_schedule(self.lam, self.levels, self.lambda_factor)
        except ValueError as exc:
            raise ValueError(f"run.lambda={self.lam}, run.lambda_factor={self.lambda_factor}, "
                             f"run.levels={self.levels}: {exc}") from None
        parse_curvature_spec(self.curvature)  # fail fast on typos


@dataclass
class GroupExplorationResult:
    """One group's explored orderings, their scores and the winner.
    explore_group gives the winner's settled state as `best_state`; the
    records that a run keeps hold None there."""

    group: TaskGroup
    best_perm: Permutation
    per_perm_scores: list[tuple[Permutation, float]]
    best_state: LearnerState | None


@dataclass
class RunResult:
    """A hier cell: the final hierarchy, its accuracy matrix, per group the
    explored orderings and scores (without the winner's state), the update
    norms, the selection audit and the run log."""

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


def _group_name(group: TaskGroup) -> str:
    return f"group {group.group_index} (tasks {', '.join(map(str, sorted(group.task_ids)))})"


def explore_group(
    group: TaskGroup,
    tasks: list[TaskDataset],
    init: np.ndarray,
    cfg: LearnerConfig,
    spec: ModelSpec,
    base_seed: int,
    buffer: ReplayBuffer,
    ewc,
    shared: dict,
) -> GroupExplorationResult:
    """Train every ordering of the group from identical snapshots and pick
    the best score; ties go to the lexicographically smallest ordering.

    The snapshot is the weights `init`, the replay `buffer`, which is never
    written, and the EWC sums `ewc` (None before any task is settled). The
    k! orderings are trained as a prefix trie (memo.train_trie): depth d
    takes the distinct length-(d+1) prefixes, lexicographically, as stacked
    train_seq calls, one row per prefix. Each prefix is trained once, on its
    last task, from its parent's settled state (train_seq clones the buffer,
    and the child shares the EWC sums), with its own rng seeded by
    derive_seed(base_seed, HIER_STREAM, group index, d + 1, *prefix), so its
    result depends only on the prefix. Under sgd and ewc, which read no
    buffer in training, the trie carries only its counts (ReplayCounts) and
    the winner's chain alone fills a clone of `buffer`, drawing with its
    prefixes' seeds again (each derived once a call). Every prefix but the
    full orderings is settled (its EWC Fisher estimated) before its children
    train. `shared` maps ordering prefixes to settled states of explorations
    from the same snapshot and group index: a prefix found there is taken,
    not trained, and every prefix settled here is added; an exploration that
    shares with none passes {}. The k! orderings are scored by one
    accuracy_eval call on the group's validation sets, in task-id order, and
    only the winner is settled. A nonfinite loss, nonfinite params at the
    end of a task, or a nonfinite EWC Fisher stop training at once, and the
    error names the group, its sorted task ids and the first prefix of its
    stack where that happened (the ordering, for the winner's Fisher)."""
    perms = enumerate_intra_group_perms(group)
    eval_batch = _concat_batches([tasks[i].val for i in sorted(group.task_ids)])
    where = f"{_group_name(group)}: ordering"
    last = group.size - 1

    @functools.cache
    def prefix_seed(prefix):
        return derive_seed(base_seed, HIER_STREAM, group.group_index, len(prefix), *prefix)

    def train_stack(depth, prefixes, parents):
        nodes = [shared.get(p) for p in prefixes]  # leaves are never shared
        rows = [row for row, node in enumerate(nodes) if node is None]
        if not rows:
            return nodes
        try:
            states = train_seq([parents[r] for r in rows], [tasks[prefixes[r][-1]] for r in rows],
                               cfg, spec, [prefix_seed(prefixes[r]) for r in rows])
        except TrainingDiverged as err:
            err.index = rows[err.index]  # the row of the whole stack
            raise
        for row, state in zip(rows, states):
            if depth < last:
                state = shared[prefixes[row]] = settle(state, spec, row)
            nodes[row] = state
        return nodes

    counts_only = cfg.kind != "er"
    root = LearnerState(init, ReplayCounts(buffer) if counts_only else buffer, ewc)
    leaves = train_trie([perm.order for perm in perms], root, train_stack, f"{where} prefix")
    states = [leaves[perm.order] for perm in perms]
    scores = accuracy_eval(np.stack([state.params for state in states]), eval_batch, spec)
    for perm, score in zip(perms, scores):
        if not math.isfinite(score):
            raise ValueError(f"{where} {perm.label()} scored {score}; training diverged")
    best = int(np.argmax(scores))  # the first maximum
    try:
        best_state = settle(states[best], spec)
    except TrainingDiverged as err:
        raise ValueError(f"{where} {perms[best].label()}: {err}") from err
    if counts_only:  # the winner's chain makes its epoch-0 offers again, into a real buffer
        order, filled = perms[best].order, buffer.clone()
        for d, t in enumerate(order):
            epoch_plan(tasks[t], np.random.default_rng(prefix_seed(order[: d + 1])), filled)
        best_state = replace(best_state, buffer=filled)
    return GroupExplorationResult(
        group=group,
        best_perm=perms[best],
        per_perm_scores=[(perm, float(score)) for perm, score in zip(perms, scores)],
        best_state=best_state,
    )


def consolidation_pool(buffer: ReplayBuffer, group_batches: list[Batch], seed: int) -> Batch:
    """The one sample set behind g and H for a group: the buffer's items
    (slot order) then the group's batches, thinned to SAMPLE_CAP by a
    seeded uniform draw that keeps their order. The buffer has been offered
    a task, so it holds items."""
    pool = _concat_batches([buffer.as_batch()] + group_batches)
    if pool.n > SAMPLE_CAP:
        keep = np.sort(np.random.default_rng(seed).choice(pool.n, SAMPLE_CAP, replace=False))
        pool = Batch(pool.inputs[keep], pool.targets[keep])
    return pool


def _estimator(cfg: PipelineConfig, pool: Batch, spec):
    """estimate(w) -> (g, H) on `pool`: the gradient, then the empirical
    Fisher's diagonal or top eigenpairs, as cfg.curvature names, both from
    one sample_factors pass at w."""
    variant, rank = parse_curvature_spec(cfg.curvature)

    def estimate(w):
        factors = sample_factors(w, pool, spec)[1]
        grad = estimate_gradient(factors, spec)
        if variant == "diagonal":
            return grad, estimate_diag_curvature(factors, spec)
        return grad, estimate_lowrank_curvature(factors, spec, rank)

    return estimate


def arrival_groups(order, group_size: int) -> list[TaskGroup]:
    """Cut an arrival order into groups of task ids; each group's ids keep
    their arrival order."""
    return [TaskGroup(g.group_index, tuple(order[s] for s in g.task_ids))
            for g in partition_into_groups(len(order), group_size)]


def membership_chain(groups) -> tuple[tuple[int, ...], ...]:
    """A hier cell's plan key: the sorted task ids of each group, so orders
    that differ only inside groups share it."""
    return tuple(tuple(sorted(g.task_ids)) for g in groups)


@dataclass(frozen=True)
class _Prefix:
    """The pipeline after a prefix of groups, which every arrival order
    with the same group memberships shares: accuracies are per task id, and
    each cell replaces the `group` of every result with its own. Nothing in
    it is written once it is built. After the last group it holds the
    catch-up outcome as well."""

    hier: HierarchyState
    buffer: ReplayBuffer
    ewc: tuple | None        # the winner's EWC sums (SigmaF, SigmaF*w*)
    results: tuple = ()      # GroupExplorationResult per group, without best_state
    norms: tuple = ()        # update norms per group, None for group 0
    accs: tuple = ()         # hier.top accuracy per task id after each group
    catch_norms: tuple = ()  # last group only: update norms per catch-up pass
    final_acc: np.ndarray | None = None  # last group only: accuracy after catch-up


def _absorb_group(node: _Prefix, chain: tuple, last: bool, tasks, cfg: PipelineConfig,
                  spec, seed: int, shared: dict) -> _Prefix:
    """Explore the last group of the membership `chain` from `node`, the
    state after the groups before it, consolidate its winner and, after the
    last group, run the catch-up passes."""
    group = TaskGroup(len(chain) - 1, chain[-1])
    res = explore_group(
        group, tasks, node.hier.levels[0], cfg.learner, spec, seed,
        buffer=node.buffer, ewc=node.ewc, shared=shared,
    )
    buffer, local = res.best_state.buffer, res.best_state.params
    # group 0 only copies the local model; its pool is needed only when it
    # is also the last group, for the catch-up passes
    if group.group_index > 0 or last:
        pool = consolidation_pool(buffer, [tasks[i].train for i in group.task_ids], seed)
        estimate = _estimator(cfg, pool, spec)
    try:
        if group.group_index == 0:
            hier, norms = init_hierarchy(local, node.hier.lambdas), None
        else:
            hier, norms = multi_level_consolidate(node.hier, local, estimate,
                                                  eta=cfg.eta, clip=cfg.clip)
        if last:
            final, catch_norms = catch_up(hier, local, estimate, cfg.n_catch,
                                          eta=cfg.eta, clip=cfg.clip)
    except ValueError as err:
        raise ValueError(f"{_group_name(group)}: {err}") from err
    # a plan node keeps the group's record, not the winner's state, which no cell reads
    node = _Prefix(hier, buffer, res.best_state.ewc,
                   node.results + (replace(res, best_state=None),), node.norms + (norms,),
                   node.accs + (task_accuracies(hier.top, tasks, spec),))
    if not last:
        return node
    return replace(node, hier=final, catch_norms=tuple(catch_norms),
                   final_acc=task_accuracies(final.top, tasks, spec))


def run_pipeline(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    cfg: PipelineConfig,
    spec: ModelSpec,
    init: np.ndarray,
    seed: int,
    plan: ArrivalPlan,
) -> RunResult:
    """Takes the leaf of this order's membership chain from `plan`: its
    first planned cell trains the trie of every planned chain, one group
    per depth, and the memberships explored from one parent share the
    settled ordering prefixes that a later one of them contains; only a
    call that trains builds the root (init weights, hierarchy, empty
    buffer). The matrix rows, each TaskGroup's task ids and the log's task
    ids follow this call's own arrival order, and the selection audit runs
    on every call. The group results hold no winner states."""
    order = arrival_order(full_perm, len(tasks))
    t_count = len(order)
    groups = arrival_groups(order, cfg.group_size)

    def make_root():
        hier = init_hierarchy(init, lambda_schedule(cfg.lam, cfg.levels, cfg.lambda_factor))
        return _Prefix(hier, ReplayBuffer(cfg.learner.buffer_capacity), None)

    def train_stack(depth, chains, parents):
        # per parent chain, the settled ordering prefixes of its memberships
        # explored so far, kept while a later sibling contains their tasks
        nodes, shared = [], {}
        for i, (chain, parent) in enumerate(zip(chains, parents)):
            start = chain[:-1]
            siblings = shared.get(start, {})
            nodes.append(_absorb_group(parent, chain, depth == len(groups) - 1,
                                       tasks, cfg, spec, seed, siblings))
            later = [set(c[-1]) for c in chains[i + 1 :] if c[:-1] == start]
            shared[start] = {prefix: state for prefix, state in siblings.items()
                             if any(m.issuperset(prefix) for m in later)}
        return nodes

    node = plan.take(membership_chain(groups), make_root, train_stack)

    matrix = np.zeros((t_count, t_count))
    group_results: list[GroupExplorationResult] = []
    log: list[dict] = []
    pos = 0
    for group, res, norms, acc in zip(groups, node.results, node.norms, node.accs):
        res = replace(res, group=group)
        group_results.append(res)
        matrix[pos : pos + group.size] = acc[order]
        pos += group.size
        log.append({
            "event": "group", "group_index": group.group_index,
            "task_ids": [int(i) for i in group.task_ids],
            "scores": [[p.label(), float(s)] for p, s in res.per_perm_scores],
            "selected": res.best_perm.label(),
            "update_norms": None if norms is None else list(norms),
        })
    for i, norms in enumerate(node.catch_norms):
        log.append({"event": "catch_up", "iteration": i, "update_norms": list(norms)})
    matrix[t_count - 1] = node.final_acc[order]
    update_norms = [list(n) for n in node.norms + node.catch_norms if n is not None]

    audit = selection_audit(group_results, n_draws=cfg.audit_draws,
                            seed=derive_seed(seed, AUDIT_STREAM))
    log.append({"event": "audit", **audit})
    return RunResult(node.hier, AccuracyMatrix(matrix), group_results,
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

    The random draws form one (groups, draws) array of those terms. A draw
    with no negative term has a nonnegative exact sum, which fsum rounds to
    a nonnegative float, so it cannot be a violation; only the draws with a
    negative term, which occur only when some group's recorded winner is
    not its argmax, are summed with fsum.
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
    terms = np.empty((len(score_lists), n_draws))
    for row, best, scores in zip(terms, best_scores, score_lists):
        np.subtract(best, np.take(scores, rng.integers(0, len(scores), size=n_draws)), out=row)
    for d in np.flatnonzero((terms < 0).any(axis=0)).tolist():
        if math.fsum(terms[:, d].tolist()) < 0:
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
