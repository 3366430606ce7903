"""Serial references for group exploration and the selection audit.

`explore_orderings` trains each ordering of a group alone, task by task,
through the serial learner of `learners_reference.py`, with the seed of
each ordering prefix and nothing shared between orderings. The library
trains the orderings as a prefix trie of stacked calls, and must give the
same scores and the same winning state bit for bit.

`selection_audit` is the earlier audit, kept verbatim: it sums every
random draw's per-group terms with its own `math.fsum` call. The library's
vectorized audit sums only the draws that have a negative term, and must
return the same dict, or raise the same SelectionAuditError, for any score
table.
"""

import math

import numpy as np
from learners_reference import train_seq
from model_reference import ref_accuracy_eval

from hiercl.learners import LearnerState
from hiercl.pipeline import HIER_STREAM, SelectionAuditError, derive_seed
from hiercl.tasks import Permutation, enumerate_intra_group_perms


def explore_orderings(group, tasks, init, cfg, spec, base_seed, eval_batch,
                      buffer=None, ewc=None):
    """(scores, winner index, winner state) over the group's orderings in
    enumeration order. Each ordering starts from `init`, its own clone of
    `buffer` and the EWC sums `ewc`; the task at position j of ordering o
    trains with derive_seed(base_seed, HIER_STREAM, group index, j + 1,
    *o[:j + 1]) and, under EWC, is settled right after. Ties go to the
    first ordering."""
    scores, states = [], []
    for perm in enumerate_intra_group_perms(group):
        state = LearnerState(np.array(init, dtype=np.float64),
                             None if buffer is None else buffer.clone(), ewc)
        for j, t in enumerate(perm.order):
            seed = derive_seed(base_seed, HIER_STREAM, group.group_index, j + 1,
                               *perm.order[: j + 1])
            state = train_seq(Permutation((t,)), tasks, state.params, cfg, spec, seed,
                              shared_buffer=state.buffer, ewc=state.ewc)
        scores.append(ref_accuracy_eval(state.params, eval_batch, spec))
        states.append(state)
    best = int(np.argmax(scores))
    return scores, best, states[best]


def selection_audit(group_results, n_draws: int = 1000, seed: int = 0) -> dict:
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
