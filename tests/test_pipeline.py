"""Tests for group exploration, the grouped pipeline, and the selection audit."""

import math

import numpy as np
import pytest

from hiercl import curvature
from hiercl.learners import LearnerConfig
from hiercl.model import Batch, ModelSpec, init_params, predict
from hiercl.pipeline import (
    GroupExplorationResult,
    PipelineConfig,
    SelectionAuditError,
    derive_seed,
    explore_group,
    run_pipeline,
    selection_audit,
    write_run_log,
)
from hiercl.tasks import (Permutation, TaskDataset, TaskGroup, enumerate_intra_group_perms,
                          gen_sine_tasks, gen_split_gaussians)

SPEC = ModelSpec((4, 8, 8))


def _tasks(seed=0, num_classes=8):
    return gen_split_gaussians(
        num_classes=num_classes, classes_per_task=2, dim=4, samples_per_class=10,
        spread=3.0, seed=seed, val_per_class=6, test_per_class=8,
    )


def _cfg(**kw):
    base = dict(
        learner=LearnerConfig(kind="er", epochs_per_task=1, buffer_capacity=20),
        group_size=2, levels=2, lam=0.5, n_catch=1, audit_draws=50,
    )
    base.update(kw)
    return PipelineConfig(**base)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, g, a, b) for g in range(4) for a in range(4) for b in range(4)}
    assert len(seen) == 64
    assert derive_seed(0, 1) != derive_seed(1, 0)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        _cfg(group_size=0)
    with pytest.raises(ValueError):
        _cfg(levels=0)
    with pytest.raises(ValueError):
        _cfg(eta=0.0)
    with pytest.raises(ValueError):
        _cfg(eta=1.5)
    with pytest.raises(ValueError):
        _cfg(n_catch=-1)
    with pytest.raises(ValueError):
        _cfg(eval_policy="train")
    with pytest.raises(ValueError):
        _cfg(curvature="kfac")


def test_explore_group_counts_and_argmax():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    group = TaskGroup(0, (0, 1, 2))
    res = explore_group(group, tasks, init, LearnerConfig(epochs_per_task=1), SPEC, base_seed=0)
    assert res.trainings_performed == 6
    assert len(res.per_perm_scores) == 6
    best = max(s for _, s in res.per_perm_scores)
    sel = [s for p, s in res.per_perm_scores if p.order == res.best_perm.order]
    assert sel == [best]
    # selected score >= mean of all scores (difference form is rounding-safe)
    assert math.fsum(best - s for _, s in res.per_perm_scores) >= 0.0
    single = explore_group(TaskGroup(1, (3,)), tasks, init,
                           LearnerConfig(epochs_per_task=1), SPEC, base_seed=0)
    assert single.trainings_performed == 1


def _constant_score_tasks(spec, w, ids, n=5, seed=0):
    """Regression tasks every model fits perfectly at w: training does
    nothing (zero gradients) and every ordering scores exactly 1.0."""
    rng = np.random.default_rng(seed)
    out = []
    for tid in ids:
        x = rng.normal(size=(n, spec.input_dim))
        y = predict(w, x, spec)
        b = Batch(x, y)
        out.append(TaskDataset(tid, b, b, b))
    return out


def test_tie_break_picks_lexicographically_smallest():
    spec = ModelSpec((3, 4, 2), task_kind="regression")
    w = init_params(spec, 0)
    tasks = _constant_score_tasks(spec, w, ids=(0, 1, 2))
    cfg = LearnerConfig(kind="sgd", epochs_per_task=1, weight_decay=0.0)
    res = explore_group(TaskGroup(0, (2, 0, 1)), tasks, w, cfg, spec, base_seed=0)
    scores = [s for _, s in res.per_perm_scores]
    assert scores == [1.0] * 6
    assert res.best_perm.order == (0, 1, 2)


def test_run_pipeline_validates_inputs():
    tasks = _tasks()
    with pytest.raises(ValueError):
        run_pipeline(tasks, Permutation((0, 1, 2)), _cfg(), SPEC)  # missing task 3
    with pytest.raises(ValueError):
        run_pipeline(tasks, Permutation((0, 1, 2, 3)), _cfg(group_size=9), SPEC)


def test_run_pipeline_shapes_counts_and_audit():
    tasks = _tasks()
    cfg = _cfg()
    res = run_pipeline(tasks, Permutation((1, 0, 3, 2)), cfg, SPEC)
    assert res.matrix.values.shape == (4, 4)
    assert len(res.group_results) == 2
    # groups of 2: 2! trainings each
    assert [g.trainings_performed for g in res.group_results] == [2, 2]
    # one consolidation event (group 2) plus n_catch catch-up passes
    assert len(res.update_norms) == 1 + cfg.n_catch
    assert all(len(n) == cfg.levels for n in res.update_norms)
    assert res.audit["violations"] == 0
    assert res.audit["groups"] == 2
    assert res.audit["gap_vs_mean"] >= 0.0
    assert res.final_params is res.hierarchy.top
    events = [e["event"] for e in res.log]
    assert events.count("group") == 2
    assert events.count("catch_up") == cfg.n_catch
    assert events[-1] == "audit"


def test_matrix_rows_replicate_within_group_and_final_row_is_post_catchup():
    tasks = _tasks()
    res = run_pipeline(tasks, Permutation((0, 1, 2, 3)), _cfg(), SPEC)
    a = res.matrix.values
    # stage rows are written per group: positions 0-1 share a row, 2-3 share
    assert np.array_equal(a[0], a[1])
    # the last row is re-evaluated after catch-up, so it lives on its own
    from hiercl.model import accuracy_eval

    want = [accuracy_eval(res.hierarchy.top, tasks[t].test, SPEC) for t in (0, 1, 2, 3)]
    assert np.allclose(a[3], want)


def test_intra_group_order_invariance_bitwise():
    tasks = _tasks()
    cfg = _cfg()
    # same group memberships {0,1} {2,3}, different orders inside
    r1 = run_pipeline(tasks, Permutation((0, 1, 2, 3)), cfg, SPEC)
    r2 = run_pipeline(tasks, Permutation((1, 0, 3, 2)), cfg, SPEC)
    for a, b in zip(r1.hierarchy.levels, r2.hierarchy.levels):
        assert np.array_equal(a, b)
    assert r1.group_results[0].best_perm.order == r2.group_results[0].best_perm.order
    # different membership does change the outcome
    r3 = run_pipeline(tasks, Permutation((0, 2, 1, 3)), cfg, SPEC)
    assert not np.array_equal(r1.hierarchy.top, r3.hierarchy.top)


def test_pipeline_deterministic_across_calls():
    tasks = _tasks()
    cfg = _cfg()
    r1 = run_pipeline(tasks, Permutation((2, 0, 1, 3)), cfg, SPEC)
    r2 = run_pipeline(tasks, Permutation((2, 0, 1, 3)), cfg, SPEC)
    assert np.array_equal(r1.hierarchy.top, r2.hierarchy.top)
    assert np.array_equal(r1.matrix.values, r2.matrix.values)


def test_single_group_copies_best_local_before_catchup():
    tasks = _tasks(num_classes=4)  # 2 tasks, one group of 2
    cfg = _cfg(n_catch=0)
    res = run_pipeline(tasks, Permutation((0, 1)), cfg, SPEC)
    assert len(res.group_results) == 1
    for level in res.hierarchy.levels:
        assert np.array_equal(level, res.group_results[0].best_params)
    assert res.update_norms == []


def test_eval_policies_differ():
    tasks = _tasks()
    a = run_pipeline(tasks, Permutation((0, 1, 2, 3)), _cfg(eval_policy="group_val"), SPEC)
    b = run_pipeline(tasks, Permutation((0, 1, 2, 3)), _cfg(eval_policy="seen_test"), SPEC)
    sa = [s for _, s in a.group_results[1].per_perm_scores]
    sb = [s for _, s in b.group_results[1].per_perm_scores]
    assert sa != sb


def test_lowrank_curvature_path_runs():
    tasks = _tasks(num_classes=4)
    cfg = _cfg(curvature="lowrank:4", sample_cap=64)
    res = run_pipeline(tasks, Permutation((0, 1)), cfg, SPEC)
    assert np.isfinite(res.hierarchy.top).all()
    assert res.audit["violations"] == 0


def test_dense_curvature_path_runs():
    # dense needs lambda > -mu_min; at a perfect regression fit the Hessian
    # is the PSD Gauss-Newton term, so any positive lambda is admissible
    spec = ModelSpec((3, 4, 2), task_kind="regression")
    w = init_params(spec, 0)
    tasks = _constant_score_tasks(spec, w, ids=(0, 1, 2, 3))
    cfg = _cfg(curvature="dense",
               learner=LearnerConfig(kind="er", epochs_per_task=1,
                                     weight_decay=0.0, buffer_capacity=8))
    res = run_pipeline(tasks, Permutation((0, 1, 2, 3)), cfg, spec, init=w)
    # nothing ever moves: gradients are zero and every target equals w
    for level in res.hierarchy.levels:
        assert np.max(np.abs(level - w)) < 1e-9


def test_dense_hessian_and_gradient_share_the_capped_pool(monkeypatch):
    # buffer (8) plus a group's train data (10) exceed sample_cap=7: g and
    # H must both come from the same thinned pool
    spec = ModelSpec((3, 4, 2), task_kind="regression")
    w = init_params(spec, 0)
    tasks = _constant_score_tasks(spec, w, ids=(0, 1, 2, 3))
    cfg = _cfg(curvature="dense", sample_cap=7,
               learner=LearnerConfig(kind="er", epochs_per_task=1,
                                     weight_decay=0.0, buffer_capacity=8))
    seen = {"grad": [], "hess": []}
    real_grad, real_hess = curvature.loss_and_grad, curvature.finite_diff_hessian

    def grad(params, batch, spec):
        seen["grad"].append(batch.n)
        return real_grad(params, batch, spec)

    def hess(params, batch, spec, h):
        seen["hess"].append(batch.n)
        return real_hess(params, batch, spec, h=h)

    monkeypatch.setattr(curvature, "loss_and_grad", grad)
    monkeypatch.setattr(curvature, "finite_diff_hessian", hess)
    run_pipeline(tasks, Permutation((0, 1, 2, 3)), cfg, spec, init=w)
    assert seen["grad"] and seen["hess"]
    assert set(seen["grad"]) == set(seen["hess"]) == {7}


def _fake_results(best_order, scores_by_perm):
    scored = [(Permutation(o), s) for o, s in scores_by_perm]
    sel = dict(scores_by_perm).get(best_order)
    return [GroupExplorationResult(
        group=TaskGroup(0, tuple(sorted(best_order))),
        best_perm=Permutation(best_order),
        best_params=np.zeros(1),
        per_perm_scores=scored,
        trainings_performed=len(scored),
        best_state=None,
    )]


def test_selection_audit_flags_non_argmax_winner():
    good = _fake_results((0, 1), [((0, 1), 0.9), ((1, 0), 0.4)])
    report = selection_audit(good, n_draws=200, seed=0)
    assert report["violations"] == 0
    assert abs(report["gap_vs_mean"] - (0.9 - 0.65)) < 1e-12
    bad = _fake_results((1, 0), [((0, 1), 0.9), ((1, 0), 0.4)])
    with pytest.raises(SelectionAuditError):
        selection_audit(bad, n_draws=200, seed=0)
    missing = _fake_results((1, 2), [((0, 1), 0.9), ((1, 0), 0.4)])
    with pytest.raises(SelectionAuditError):
        selection_audit(missing, n_draws=10, seed=0)


def test_diverged_scores_are_rejected_not_selected():
    # sine regression at lr=1e8 overflows: every ordering of the group
    # scores NaN, which used to "select" 0-1-2 and pass the audit
    group = TaskGroup(0, (0, 1, 2))
    spec = ModelSpec((1, 16, 1), task_kind="regression")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="group 0: ordering 0-1-2"):
        explore_group(group, gen_sine_tasks(3, 0), init_params(spec, 0),
                      LearnerConfig(learning_rate=1e8), spec, base_seed=0)
    # the score table that run recorded, and tables with one bad score
    orders = [p.order for p in enumerate_intra_group_perms(group)]
    for scores in ([math.nan] * 6, [0.5, math.nan, 0.1, 0.2, 0.3, 0.4],
                   [math.inf] + [0.1] * 5):
        with pytest.raises(SelectionAuditError, match="nonfinite"):
            selection_audit(_fake_results((0, 1, 2), list(zip(orders, scores))), n_draws=20)


@pytest.mark.filterwarnings("ignore:group size 5 costs")
def test_divergence_fails_fast_naming_group_ordering_task_and_step():
    # sine regression at lr=1e8 overflows while training the first ordering;
    # the run stops there instead of finishing it and scoring NaN
    spec = ModelSpec((1, 16, 1), task_kind="regression")
    cfg = _cfg(learner=LearnerConfig(learning_rate=1e8), group_size=5)
    want = r"^group 0: ordering 0-1-2-3-4: task 1: epoch 1, step 1: minibatch loss is inf"
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
        run_pipeline(gen_sine_tasks(5, 0), Permutation(tuple(range(5))), cfg, spec)


def test_write_run_log(tmp_path):
    tasks = _tasks(num_classes=4)
    res = run_pipeline(tasks, Permutation((0, 1)), _cfg(), SPEC)
    path = str(tmp_path / "run.log")
    write_run_log(path, res.log)
    import json

    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[-1]["event"] == "audit"
    assert lines[0]["event"] == "group"
