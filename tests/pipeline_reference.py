"""Per-draw reference for the selection audit.

`selection_audit` is the earlier audit, kept verbatim: it sums every
random draw's per-group terms with its own `math.fsum` call. The library's
vectorized audit sums only the draws that have a negative term, and must
return the same dict, or raise the same SelectionAuditError, for any score
table.
"""

import math

import numpy as np

from hiercl.pipeline import SelectionAuditError


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
