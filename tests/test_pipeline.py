"""Tests for group exploration, the grouped pipeline, and the selection audit."""

import itertools
import math
import sys

import numpy as np
import pytest
from bits import lone_plan, same_bits
from experiment_reference import sweep_init
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pipeline_reference import explore_orderings
from pipeline_reference import selection_audit as per_draw_selection_audit

from hiercl import curvature, learners, model, pipeline
from hiercl.learners import LearnerConfig, ReplayBuffer
from hiercl.model import Batch, ModelSpec, init_params, predict
from hiercl.pipeline import (
    AUDIT_STREAM,
    FED_STREAM,
    HIER_STREAM,
    INIT_STREAM,
    SEQ_STREAM,
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


def test_hier_seeds_never_equal_another_streams_seeds():
    # SeedSequence pads entropy with zeros, so (s, 0) and (s, 0, 0) collide;
    # hier prefixes carry their own tag and their length before the ids
    seeds, tasks = range(3), range(4)
    others = ({derive_seed(s, tag) for s in seeds for tag in (INIT_STREAM, AUDIT_STREAM)}
              | {derive_seed(s, tag, i) for s in seeds for tag in (SEQ_STREAM, FED_STREAM)
                 for i in range(6)})
    hier = {derive_seed(s, HIER_STREAM, g, j, *prefix) for s in seeds for g in range(4)
            for j in range(1, 4) for prefix in itertools.permutations(tasks, j)}
    assert len(others) == 3 * 2 + 3 * 2 * 6
    assert len(hier) == 3 * 4 * (4 + 12 + 24)
    assert not hier & others


def test_pipeline_config_validation():
    # each error names its config key and the value it got
    for kw, error in ((dict(group_size=0), "run.group_size must be at least 1, got 0"),
                      (dict(levels=0), "run.levels must be at least 1, got 0"),
                      (dict(eta=0.0), r"run.eta must lie in \(0, 1\], got 0.0"),
                      (dict(eta=1.5), r"run.eta must lie in \(0, 1\], got 1.5"),
                      (dict(n_catch=-1), "run.catchup must be nonnegative, got -1"),
                      (dict(clip=0.0), "run.clip must be positive when set, got 0.0"),
                      (dict(audit_draws=-1), "run.audit_draws must be nonnegative, got -1"),
                      (dict(curvature="kfac"), "run.curvature='kfac'")):
        with pytest.raises(ValueError, match=f"^{error}"):
            _cfg(**kw)


def test_explore_group_counts_and_argmax():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    group = TaskGroup(0, (0, 1, 2))
    res = explore_group(group, tasks, init, LearnerConfig(epochs_per_task=1), SPEC, base_seed=0,
                        buffer=ReplayBuffer(50), ewc=None, shared={})
    assert len(res.per_perm_scores) == 6
    best = max(s for _, s in res.per_perm_scores)
    sel = [s for p, s in res.per_perm_scores if p.order == res.best_perm.order]
    assert sel == [best]
    # selected score >= mean of all scores (difference form is rounding-safe)
    assert math.fsum(best - s for _, s in res.per_perm_scores) >= 0.0
    single = explore_group(TaskGroup(1, (3,)), tasks, init,
                           LearnerConfig(epochs_per_task=1), SPEC, base_seed=0,
                           buffer=ReplayBuffer(50), ewc=None, shared={})
    assert len(single.per_perm_scores) == 1


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
    res = explore_group(TaskGroup(0, (2, 0, 1)), tasks, w, cfg, spec, base_seed=0,
                        buffer=ReplayBuffer(50), ewc=None, shared={})
    scores = [s for _, s in res.per_perm_scores]
    assert scores == [1.0] * 6
    assert res.best_perm.order == (0, 1, 2)


def test_run_pipeline_validates_inputs():
    tasks = _tasks()
    with pytest.raises(ValueError):
        run_pipeline(tasks, Permutation((0, 1, 2)), _cfg(), SPEC, sweep_init(SPEC), 0,
                     lone_plan((0, 1, 2), 2))  # no task 3
    with pytest.raises(ValueError, match="^group size 9 exceeds the number of tasks 4$"):
        run_pipeline(tasks, Permutation((0, 1, 2, 3)), _cfg(group_size=9), SPEC,
                     sweep_init(SPEC), 0, lone_plan((0, 1, 2, 3)))


def test_run_pipeline_shapes_counts_and_audit():
    tasks = _tasks()
    cfg = _cfg()
    res = run_pipeline(tasks, Permutation((1, 0, 3, 2)), cfg, SPEC, sweep_init(SPEC), 0,
                       lone_plan((1, 0, 3, 2), 2))
    assert res.matrix.values.shape == (4, 4)
    assert len(res.group_results) == 2
    # groups of 2: 2! trainings each
    assert [len(g.per_perm_scores) for g in res.group_results] == [2, 2]
    # one consolidation event (group 2) plus n_catch catch-up passes
    assert len(res.update_norms) == 1 + cfg.n_catch
    assert all(len(n) == cfg.levels for n in res.update_norms)
    assert res.audit["violations"] == 0
    assert res.audit["groups"] == 2
    assert res.audit["gap_vs_mean"] >= 0.0
    events = [e["event"] for e in res.log]
    assert events.count("group") == 2
    assert events.count("catch_up") == cfg.n_catch
    assert events[-1] == "audit"


def test_run_pipeline_with_no_audit_draws():
    tasks = _tasks()
    order = Permutation((1, 0, 3, 2))
    res, want = (run_pipeline(tasks, order, cfg, SPEC, sweep_init(SPEC), 0, lone_plan(order, 2))
                 for cfg in (_cfg(audit_draws=0), _cfg()))
    want = want.audit
    assert res.audit == {**want, "draws": 0}
    assert res.log[-1] == {"event": "audit", **res.audit}


def test_matrix_rows_replicate_within_group_and_final_row_is_post_catchup():
    tasks = _tasks()
    res = run_pipeline(tasks, Permutation((0, 1, 2, 3)), _cfg(), SPEC, sweep_init(SPEC), 0,
                       lone_plan((0, 1, 2, 3), 2))
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
    r1, r2, r3 = (run_pipeline(tasks, Permutation(order), cfg, SPEC, sweep_init(SPEC), 0,
                               lone_plan(order, 2))
                  for order in ((0, 1, 2, 3), (1, 0, 3, 2), (0, 2, 1, 3)))
    for a, b in zip(r1.hierarchy.levels, r2.hierarchy.levels):
        assert np.array_equal(a, b)
    assert r1.group_results[0].best_perm.order == r2.group_results[0].best_perm.order
    # different membership does change the outcome
    assert not np.array_equal(r1.hierarchy.top, r3.hierarchy.top)


def test_pipeline_deterministic_across_calls():
    tasks = _tasks()
    cfg = _cfg()
    r1, r2 = (run_pipeline(tasks, Permutation((2, 0, 1, 3)), cfg, SPEC, sweep_init(SPEC), 0,
                           lone_plan((2, 0, 1, 3), 2)) for _ in range(2))
    assert np.array_equal(r1.hierarchy.top, r2.hierarchy.top)
    assert np.array_equal(r1.matrix.values, r2.matrix.values)


def test_single_group_copies_best_local_before_catchup(monkeypatch):
    tasks = _tasks(num_classes=4)  # 2 tasks, one group of 2
    cfg = _cfg(n_catch=0)
    winners = []

    def recording(*args, **kwargs):
        res = explore(*args, **kwargs)
        winners.append(res.best_state)
        return res

    explore = pipeline.explore_group
    monkeypatch.setattr(pipeline, "explore_group", recording)
    res = run_pipeline(tasks, Permutation((0, 1)), cfg, SPEC, sweep_init(SPEC), 0,
                       lone_plan((0, 1), cfg.group_size))
    assert len(res.group_results) == len(winners) == 1
    for level in res.hierarchy.levels:
        assert np.array_equal(level, winners[0].params)
    assert res.update_norms == []


def test_lowrank_curvature_path_runs():
    tasks = _tasks(num_classes=4)
    cfg = _cfg(curvature="lowrank:4")
    res = run_pipeline(tasks, Permutation((0, 1)), cfg, SPEC, sweep_init(SPEC), 0,
                       lone_plan((0, 1), 2))
    assert np.isfinite(res.hierarchy.top).all()
    assert res.audit["violations"] == 0


@pytest.mark.parametrize("num_classes, group_size, bad_call, where", [
    pytest.param(4, 1, 0, r"group 1 \(tasks 1\): level 0", id="level0"),
    # at group 1 every level has level 0's bits and reuses its estimate; at
    # group 2 they differ, and level 1's estimate is the run's third
    pytest.param(8, 1, 2, r"group 2 \(tasks 2\): level 1", id="level1"),
    # one group: it only copies
    pytest.param(4, 2, 0, r"group 0 \(tasks 0, 1\): catch-up pass 0: level 0", id="catchup"),
])
def test_consolidation_failure_names_the_group_or_pass_and_the_level(monkeypatch, num_classes,
                                                                     group_size, bad_call, where):
    # a nonfinite gradient at the chosen estimate makes the solve refuse it
    real, count = pipeline.estimate_gradient, itertools.count()

    def poisoned(factors, spec):
        grad = real(factors, spec)
        return grad * np.nan if next(count) == bad_call else grad

    monkeypatch.setattr(pipeline, "estimate_gradient", poisoned)
    tasks = _tasks(num_classes=num_classes)
    with pytest.raises(ValueError, match=f"^{where}: nonfinite inputs to regularized_solve"):
        run_pipeline(tasks, Permutation(tuple(range(len(tasks)))), _cfg(group_size=group_size),
                     SPEC, sweep_init(SPEC), 0, lone_plan(range(len(tasks)), group_size))


def test_gradient_and_curvature_share_the_capped_pool(monkeypatch):
    # buffer (8) plus a group's train data (10) exceed a cap of 7: g and
    # H must both come from the same thinned pool
    spec = ModelSpec((3, 4, 2), task_kind="regression")
    w = init_params(spec, 0)
    tasks = _constant_score_tasks(spec, w, ids=(0, 1, 2, 3))
    monkeypatch.setattr(pipeline, "SAMPLE_CAP", 7)
    cfg = _cfg(learner=LearnerConfig(kind="er", epochs_per_task=1,
                                     weight_decay=0.0, buffer_capacity=8))
    seen = {"pass": [], "grad": [], "curv": []}
    real_pass = pipeline.sample_factors
    real_grad, real_curv = pipeline.estimate_gradient, pipeline.estimate_diag_curvature

    def one_pass(params, pool, spec):
        loss, factors = real_pass(params, pool, spec)
        seen["pass"].append((pool, factors))
        return loss, factors

    def grad(factors, spec):
        seen["grad"].append(factors)
        return real_grad(factors, spec)

    def curv(factors, spec):
        seen["curv"].append(factors)
        return real_curv(factors, spec)

    monkeypatch.setattr(pipeline, "sample_factors", one_pass)
    monkeypatch.setattr(pipeline, "estimate_gradient", grad)
    monkeypatch.setattr(pipeline, "estimate_diag_curvature", curv)
    run_pipeline(tasks, Permutation((0, 1, 2, 3)), cfg, spec, w, 0, lone_plan((0, 1, 2, 3), 2))
    assert seen["grad"] and len(seen["grad"]) == len(seen["curv"]) == len(seen["pass"])
    # each estimate's g and H take the factors of its own pass
    assert all(g is h is f for g, h, (_, f) in zip(seen["grad"], seen["curv"], seen["pass"]))
    assert {pool.n for pool, _ in seen["pass"]} == {7}


@pytest.mark.parametrize("curv", ["diag", "lowrank:4"])
def test_one_estimate_is_one_model_pass(monkeypatch, curv):
    # g and H of one estimate come from one sample_factors call, and no
    # hiercl module's loss_and_grad runs
    calls = []
    real_pass, real_loss = pipeline.sample_factors, model.loss_and_grad

    def one_pass(params, pool, spec):
        calls.append("sample_factors")
        return real_pass(params, pool, spec)

    def counted(params, batch, spec):
        calls.append("loss_and_grad")
        return real_loss(params, batch, spec)

    assert not hasattr(curvature, "loss_and_grad")
    monkeypatch.setattr(pipeline, "sample_factors", one_pass)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hiercl" and getattr(mod, "loss_and_grad", None) is real_loss:
            monkeypatch.setattr(mod, "loss_and_grad", counted)
    rng = np.random.default_rng(0)
    pool = Batch(rng.normal(size=(20, 4)), rng.integers(0, 8, size=20))
    grad, fisher = pipeline._estimator(_cfg(curvature=curv), pool, SPEC)(init_params(SPEC, 0))
    assert calls == ["sample_factors"]
    assert grad.shape == (SPEC.param_count,) and fisher.dim == SPEC.param_count


@pytest.mark.parametrize("num_classes, group_size, pools", [(8, 1, 3), (8, 2, 1), (4, 2, 1)])
def test_pool_is_built_only_for_groups_that_use_it(monkeypatch, num_classes, group_size, pools):
    # every group after group 0 consolidates; a single group (2 tasks in
    # one group of 2) still needs its pool for catch-up
    tasks = _tasks(num_classes=num_classes)
    order = Permutation(tuple(range(len(tasks))))
    cfg = _cfg(group_size=group_size)
    plain = run_pipeline(tasks, order, cfg, SPEC, sweep_init(SPEC), 0,
                         lone_plan(order, group_size))
    calls = []
    real = pipeline.consolidation_pool

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "consolidation_pool", counting)
    res = run_pipeline(tasks, order, cfg, SPEC, sweep_init(SPEC), 0, lone_plan(order, group_size))
    assert len(calls) == pools
    for got, want in zip(res.hierarchy.levels, plain.hierarchy.levels):
        assert np.array_equal(got, want)


def _fake_results(best_order, scores_by_perm):
    scored = [(Permutation(o), s) for o, s in scores_by_perm]
    sel = dict(scores_by_perm).get(best_order)
    return [GroupExplorationResult(
        group=TaskGroup(0, tuple(sorted(best_order))),
        best_perm=Permutation(best_order),
        per_perm_scores=scored,
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


_GROUP_SIZES = {1: 1, 2: 2, 6: 3, 24: 4}  # orderings -> tasks per group


@st.composite
def _score_tables(draw):
    """1-4 groups of 1, 2, 6 or 24 scored orderings. Scores sit at most two
    ulps from a few shared values, so ties and one-ulp gaps are common; the
    recorded winner is the argmax, any ordering, or (rarely) one missing
    from the table, and a score may be nonfinite."""
    bases = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.3, 0.7, 1.0]) | st.floats(-2.0, 2.0),
                          min_size=1, max_size=3))
    results = []
    for g in range(draw(st.integers(1, 4))):
        group = TaskGroup(g, tuple(range(_GROUP_SIZES[draw(st.sampled_from(sorted(_GROUP_SIZES)))])))
        perms = enumerate_intra_group_perms(group)
        scores = []
        for _ in perms:
            s = draw(st.sampled_from(bases))
            for _ in range(abs(shift := draw(st.sampled_from([0, 0, 0, 1, -1, 2, -2])))):
                s = float(np.nextafter(s, math.copysign(math.inf, shift)))
            scores.append(s)
        if draw(st.integers(0, 19)) == 0:
            scores[draw(st.integers(0, len(scores) - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        winner = draw(st.sampled_from(["argmax"] * 4 + ["any"] * 4 + ["missing"]))
        if winner == "missing":
            best = Permutation(tuple(range(group.size + 1)))
        elif winner == "argmax" and all(map(math.isfinite, scores)):
            best = perms[int(np.argmax(scores))]
        else:
            best = perms[draw(st.integers(0, len(perms) - 1))]
        results.append(GroupExplorationResult(group, best, list(zip(perms, scores)), None))
    return results


def _cancelling_table():
    """Three groups whose draw (0.3, 1e-3 + 1 ulp, 0.7) has terms 0.4, -2e-19
    and -0.4: summed left to right they give 0, exactly they are negative,
    so only an exact sum counts that draw as a violation."""
    results = []
    for g, scores in enumerate([[0.7, 0.3], [1e-3, float(np.nextafter(1e-3, 1))], [0.3, 0.7]]):
        group = TaskGroup(g, (0, 1))
        perms = enumerate_intra_group_perms(group)
        results.append(GroupExplorationResult(group, perms[0], list(zip(perms, scores)), None))
    return results


def _audit_outcome(audit, results, n_draws, seed):
    try:
        return repr(audit(results, n_draws=n_draws, seed=seed))
    except SelectionAuditError as err:
        return f"SelectionAuditError: {err}"


@settings(max_examples=300, deadline=None)
@example(results=_cancelling_table(), n_draws=1000, seed=0)
@given(results=_score_tables(), n_draws=st.sampled_from([0, 1, 1000]),
       seed=st.integers(0, 2**32 - 1))
def test_selection_audit_matches_the_per_draw_reference(results, n_draws, seed):
    # repr tells 0.0 from -0.0 and prints the shortest round-trip form,
    # so equal reprs mean bitwise-equal dicts
    assert (_audit_outcome(selection_audit, results, n_draws, seed)
            == _audit_outcome(per_draw_selection_audit, results, n_draws, seed))


def test_diverged_scores_are_rejected_not_selected():
    # sine regression at lr=1e8 overflows: every ordering of the group
    # scores NaN, which used to "select" 0-1-2 and pass the audit
    group = TaskGroup(0, (0, 1, 2))
    spec = ModelSpec((1, 16, 1), task_kind="regression")
    want = (r"^group 0 \(tasks 0, 1, 2\): ordering prefix 0-1: task 1: epoch 1, step 1: "
            r"minibatch loss is inf")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
        explore_group(group, gen_sine_tasks(3, 0), init_params(spec, 0),
                      LearnerConfig(learning_rate=1e8), spec, base_seed=0,
                      buffer=ReplayBuffer(50), ewc=None, shared={})
    # the score table that run recorded, and tables with one bad score
    orders = [p.order for p in enumerate_intra_group_perms(group)]
    for scores in ([math.nan] * 6, [0.5, math.nan, 0.1, 0.2, 0.3, 0.4],
                   [math.inf] + [0.1] * 5):
        with pytest.raises(SelectionAuditError, match="nonfinite"):
            selection_audit(_fake_results((0, 1, 2), list(zip(orders, scores))), n_draws=20)


@pytest.mark.filterwarnings("ignore:group size 5 costs")
def test_divergence_fails_fast_naming_group_ordering_task_and_step():
    # sine regression at lr=1e8 overflows while training the first
    # two-task prefix; the run stops there instead of finishing the
    # orderings and scoring NaN
    spec = ModelSpec((1, 16, 1), task_kind="regression")
    cfg = _cfg(learner=LearnerConfig(learning_rate=1e8), group_size=5)
    want = (r"^group 0 \(tasks 0, 1, 2, 3, 4\): ordering prefix 0-1: task 1: epoch 1, "
            r"step 1: minibatch loss is inf")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
        run_pipeline(gen_sine_tasks(5, 0), Permutation(tuple(range(5))), cfg, spec,
                     sweep_init(spec), 0, lone_plan(range(5), 5))


def test_nonfinite_params_at_task_end_fail_fast_naming_group_and_ordering():
    # one step per task at lr=1e308: on task 1 that step overflows, so
    # prefix 1 ends its task with inf params while every loss it computed
    # was finite; prefix 0 is still finite there
    spec = ModelSpec((1, 4, 1), task_kind="regression")
    cfg = LearnerConfig(learning_rate=1e308, epochs_per_task=1, batch_size=8, weight_decay=0.0)
    want = (r"^group 3 \(tasks 0, 1\): ordering prefix 1: task 1: params are not finite "
            r"after training")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
        explore_group(TaskGroup(3, (1, 0)), gen_sine_tasks(2, 0, samples_per_task=8),
                      init_params(spec, 0), cfg, spec, base_seed=0,
                      buffer=ReplayBuffer(50), ewc=None, shared={})


def _assert_same_state(got, want):
    assert got.pending is None
    assert same_bits(got.params, want.params)
    assert (got.ewc is None) == (want.ewc is None)
    if want.ewc is not None:
        assert all(map(same_bits, got.ewc, want.ewc))
    if want.buffer is None:
        assert got.buffer is None
        return
    assert type(got.buffer) is ReplayBuffer  # a real buffer, not a counts-only one
    assert got.buffer.seen_count == want.buffer.seen_count
    assert same_bits(got.buffer.inputs, want.buffer.inputs)
    assert same_bits(got.buffer.targets, want.buffer.targets)


def _explore_case(kind, k, seed=0):
    """A group of k tasks (group index 2, ids not in arrival order) with an
    incoming buffer and EWC sums of one anchor, as a later group of a run
    sees them."""
    tasks = _tasks(seed=seed)
    init = init_params(SPEC, seed)
    rng = np.random.default_rng(seed + k)
    ewc = _one_anchor_sums(init, rng)
    earlier = _tasks(seed=seed + 1)[0].train
    buffer = ReplayBuffer(6)
    buffer.insert_many(earlier.inputs, earlier.targets, rng)
    cfg = LearnerConfig(kind=kind, epochs_per_task=1, batch_size=8, ewc_strength=2.0,
                        buffer_capacity=6)
    group = TaskGroup(2, tuple(reversed(range(k))))
    return group, tasks, init, cfg, buffer, ewc


def _one_anchor_sums(init, rng):
    """(SigmaF, SigmaF*w*) of one random anchor (w*, F) near `init`."""
    w_star, fisher = init + rng.normal(size=init.size), rng.random(init.size)
    return fisher, fisher * w_star


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["sgd", "er", "ewc"])
def test_explore_group_matches_serial_orderings_with_prefix_seeds(kind, k):
    group, tasks, init, cfg, buffer, ewc = _explore_case(kind, k)
    res = explore_group(group, tasks, init, cfg, SPEC, base_seed=11, buffer=buffer, ewc=ewc,
                        shared={})
    eval_batch = Batch(np.concatenate([tasks[i].val.inputs for i in range(k)]),
                       np.concatenate([tasks[i].val.targets for i in range(k)]))
    scores, best, want = explore_orderings(group, tasks, init, cfg, SPEC, 11, eval_batch,
                                           buffer=buffer, ewc=ewc)
    assert [p.order for p, _ in res.per_perm_scores] == [
        p.order for p in enumerate_intra_group_perms(group)]
    assert [s for _, s in res.per_perm_scores] == scores
    assert res.best_perm.order == res.per_perm_scores[best][0].order
    _assert_same_state(res.best_state, want)
    assert len(buffer) == 6 and buffer.seen_count == 20  # the caller's buffer is untouched


def test_explore_group_trains_each_depth_of_its_prefix_trie_as_one_stack(monkeypatch):
    # a group of 4 trains its 4 + 12 + 24 + 24 = 64 prefixes in one
    # train_on_task call per depth, not 24 orderings of 4 tasks each
    rows = []
    real = learners.train_on_task

    def counting(params, *args, **kw):
        rows.append(len(params))
        return real(params, *args, **kw)

    monkeypatch.setattr(learners, "train_on_task", counting)
    group, tasks, init, cfg, buffer, ewc = _explore_case("er", 4)
    explore_group(group, tasks, init, cfg, SPEC, base_seed=0, buffer=buffer, ewc=ewc, shared={})
    assert rows == [4, 12, 24, 24]


def _count_real_buffer_calls(monkeypatch):
    """The item counts of the ReplayBuffer.insert_many calls and the
    buffers cloned, from here on; a counts-only buffer's calls are not
    ReplayBuffer's."""
    inserts, cloned = [], []
    real_insert, real_clone = ReplayBuffer.insert_many, ReplayBuffer.clone

    def insert_many(self, inputs, targets, rng):
        inserts.append(len(inputs))
        return real_insert(self, inputs, targets, rng)

    def clone(self):
        cloned.append(self)
        return real_clone(self)

    monkeypatch.setattr(ReplayBuffer, "insert_many", insert_many)
    monkeypatch.setattr(ReplayBuffer, "clone", clone)
    return inserts, cloned


def test_non_replay_exploration_fills_only_the_winners_buffer(monkeypatch):
    # under ewc the 3 + 6 + 6 prefixes carry buffer counts; after selection
    # one clone of the caller's buffer is offered each task of the winner's
    # chain whole, one call per task
    group, tasks, init, cfg, buffer, ewc = _explore_case("ewc", 3)
    inserts, cloned = _count_real_buffer_calls(monkeypatch)
    res = explore_group(group, tasks, init, cfg, SPEC, base_seed=11, buffer=buffer, ewc=ewc,
                        shared={})
    assert cloned == [buffer]
    assert inserts == [tasks[t].train.n for t in res.best_perm.order] == [20] * 3


def test_replay_exploration_offers_each_step_to_every_prefixs_clone(monkeypatch):
    # under er each of the 2 + 2 prefixes clones its parent's buffer and
    # offers each 8-row minibatch of its 20-row task after the step
    group, tasks, init, cfg, buffer, ewc = _explore_case("er", 2)
    inserts, cloned = _count_real_buffer_calls(monkeypatch)
    explore_group(group, tasks, init, cfg, SPEC, base_seed=11, buffer=buffer, ewc=ewc, shared={})
    assert len(cloned) == 4 and cloned[:2] == [buffer, buffer]
    assert inserts == [8, 8, 8, 8, 4, 4] * 2  # per depth: each step, then each row


@pytest.mark.parametrize("k", [2, 3])
def test_explore_group_estimates_each_fisher_a_later_task_or_the_winner_reads(monkeypatch, k):
    # every prefix shorter than the group is settled once, since its
    # children's penalty reads it; of the k! orderings' last-task Fishers
    # only the winner's is estimated
    calls = []

    def counting(factors, spec):
        calls.append(factors[0][0].shape)
        return curvature.estimate_diag_curvature(factors, spec)

    monkeypatch.setattr(learners, "estimate_diag_curvature", counting)
    tasks = _tasks()
    init = init_params(SPEC, 0)
    ewc = _one_anchor_sums(init, np.random.default_rng(k))
    cfg = LearnerConfig(kind="ewc", epochs_per_task=1, ewc_strength=2.0, buffer_capacity=5)
    group = TaskGroup(1, tuple(range(4 - k, 4)))
    res = explore_group(group, tasks, init, cfg, SPEC, base_seed=7,
                        buffer=ReplayBuffer(5), ewc=ewc, shared={})
    assert len(calls) == sum(math.perm(k, j) for j in range(1, k)) + 1
    eval_batch = Batch(np.concatenate([tasks[i].val.inputs for i in group.task_ids]),
                       np.concatenate([tasks[i].val.targets for i in group.task_ids]))
    _, _, want = explore_orderings(group, tasks, init, cfg, SPEC, 7, eval_batch,
                                   buffer=ReplayBuffer(5), ewc=ewc)
    # the winner's sums are new arrays holding all k of its Fishers
    assert not any(np.shares_memory(a, b) for a in res.best_state.ewc for b in ewc)
    _assert_same_state(res.best_state, want)


def test_nonfinite_winner_fisher_fails_naming_group_ordering_and_task():
    # task 1 is one sample with target 1e154: its loss (about 1e308) and
    # the params stay finite, the step at lr=1e-300 barely moves them, and
    # its squared output-bias gradient (4e308) overflows. The Fisher's
    # output-bias entry is 4 times the loss, and the loss of n samples is
    # formed from their sum, so only a task of fewer than 4 samples can have
    # a finite loss and a nonfinite Fisher. The group's one ordering wins,
    # so its last Fisher is estimated, after scoring.
    spec = ModelSpec((1, 1, 1), task_kind="regression")
    small = Batch(np.ones((4, 1)), np.zeros((4, 1)))
    huge = Batch(np.ones((1, 1)), np.full((1, 1), 1e154))
    tasks = [TaskDataset(0, small, small, small), TaskDataset(1, huge, huge, huge)]
    cfg = LearnerConfig(kind="ewc", learning_rate=1e-300, epochs_per_task=1, batch_size=4)
    want = (r"^group 2 \(tasks 1\): ordering 1: task 1: EWC Fisher is not finite after training; "
            r"training diverged$")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
        explore_group(TaskGroup(2, (1,)), tasks, np.array([1.0, 0.0, 1.0, 0.0]), cfg, spec,
                      base_seed=0, buffer=ReplayBuffer(50), ewc=None, shared={})
    # in a group of both tasks, prefix 1 (row 1 of the first stack) is
    # settled before its child 1-0 trains, and the error names that prefix
    want = (r"^group 2 \(tasks 0, 1\): ordering prefix 1: task 1: EWC Fisher is not finite "
            r"after training; "
            r"training diverged$")
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=want):
        explore_group(TaskGroup(2, (1, 0)), tasks, np.array([1.0, 0.0, 1.0, 0.0]), cfg, spec,
                      base_seed=0, buffer=ReplayBuffer(50), ewc=None, shared={})


def test_write_run_log(tmp_path):
    tasks = _tasks(num_classes=4)
    res = run_pipeline(tasks, Permutation((0, 1)), _cfg(), SPEC, sweep_init(SPEC), 0,
                       lone_plan((0, 1), 2))
    path = str(tmp_path / "run.log")
    write_run_log(path, res.log)
    import json

    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[-1]["event"] == "audit"
    assert lines[0]["event"] == "group"
