"""Cells served from a sweep's shared plan equal cells computed alone.

Seq and fed cells take their results from an ArrivalPlan, which trains the
arrival trie of all planned orders breadth-first; they must match the
per-cell runners of `experiment_reference` bitwise, fed final weights
included. Hier cells resume from a PrefixMemo and must match run_pipeline
called without one, field by field; the sweep's CSV rows must match both.
Running the planned cells in reverse, asking a cell twice and asking an
order outside the plan show that no shared state is written after it is
made.
"""

import math
from dataclasses import replace

import experiment_reference
import numpy as np
import pytest
from experiment_reference import arrival_prefixes

from hiercl import curvature, federated, learners
from hiercl.config import build_experiment_config
from hiercl.experiment import (hier_chain, make_model_spec, make_tasks, run_baseline_seq,
                               run_experiment)
from hiercl.federated import FedConfig, fed_compare_run
from hiercl.memo import STACK_ROWS, ArrivalPlan, PrefixMemo, membership_prefixes
from hiercl.metrics import avg_forgetting, mean_accuracy
from hiercl.model import init_params
from hiercl.pipeline import INIT_STREAM, arrival_groups, derive_seed, run_pipeline
from hiercl.tasks import Permutation, sample_full_permutations

_TINY = {
    "dataset.num_classes": "8", "dataset.classes_per_task": "2", "dataset.dim": "3",
    "dataset.samples_per_class": "6", "dataset.val_per_class": "3",
    "dataset.test_per_class": "3", "learner.epochs_per_task": "1",
    "learner.batch_size": "4", "learner.buffer_capacity": "5", "run.hidden": "4",
    "run.audit_draws": "20", "run.methods": "seq,hier,fedavg,fedprox",
    "run.prox_mu": "0.05",
}

# 4 tasks (6 at k=3); every learner, aggregation, group size 1-3, both eval
# policies, all 24 orders and samples of them
CASES = {
    "er-k2-all-running": {"learner.kind": "er", "run.group_size": "2", "run.perms": "all",
                          "run.seeds": "0,1"},
    "sgd-k1-all-pairwise-seen": {"learner.kind": "sgd", "run.group_size": "1",
                                 "run.perms": "all", "run.fed_aggregate": "pairwise",
                                 "run.eval_policy": "seen_test", "run.seeds": "3"},
    "ewc-k2-all": {"learner.kind": "ewc", "run.group_size": "2", "run.perms": "all",
                   "run.seeds": "1"},
    "ewc-k3-sampled": {"learner.kind": "ewc", "dataset.num_classes": "12",
                       "run.group_size": "3", "run.perms": "9", "run.perm_sample_seed": "4",
                       "run.seeds": "2", "run.eval_policy": "seen_test"},
    "er-k2-sampled-pairwise": {"learner.kind": "er", "run.group_size": "2",
                               "run.perms": "7", "run.perm_sample_seed": "1",
                               "run.fed_aggregate": "pairwise", "run.seeds": "5"},
}


def _cfg(case):
    return build_experiment_config({**_TINY, **CASES[case]})


def _perms(cfg):
    t_count = cfg.dataset.task_count
    budget = math.factorial(t_count) if cfg.perms == "all" else int(cfg.perms)
    return sample_full_permutations(t_count, budget, cfg.perm_sample_seed)


def _setup(cfg, seed):
    spec = make_model_spec(cfg)
    return spec, make_tasks(cfg.dataset, seed), init_params(spec, derive_seed(seed, INIT_STREAM))


def _fed(cfg, method):
    return FedConfig(method, cfg.prox_mu if method == "fedprox" else 0.0, cfg.fed_aggregate)


def _cell(cfg, method, perm, seed, plan=None):
    """The runner's full output for one cell: a matrix, a RunResult or
    (global weights, matrix)."""
    spec, tasks, init = _setup(cfg, seed)
    learner = cfg.pipeline.learner
    if method == "seq":
        return run_baseline_seq(tasks, perm, learner, spec, seed, init, plan)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed, memo=plan)
    return fed_compare_run(tasks, perm, _fed(cfg, method), learner, spec, seed, init, plan)


def _reference(cfg, method, perm, seed):
    """The cell computed alone: by the per-cell reference for seq and fed,
    by run_pipeline without a memo for hier."""
    spec, tasks, init = _setup(cfg, seed)
    learner = cfg.pipeline.learner
    if method == "seq":
        return experiment_reference.run_baseline_seq(tasks, perm, learner, spec, seed, init)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed)
    return experiment_reference.fed_compare_run(tasks, perm, _fed(cfg, method), learner,
                                                spec, seed, init)


def _plan(cfg, method, perms):
    """What run_experiment hands one method's cells of a data seed, and
    the hier key chains (empty for seq and fed)."""
    if method == "hier":
        chains = [hier_chain(perm, cfg) for perm in perms]
        return PrefixMemo(chains), chains
    return ArrivalPlan(perm.order for perm in perms), []


def _holds_nothing(plan, chains):
    if isinstance(plan, ArrivalPlan):
        return not plan._todo and not plan._results
    return all(plan.resume(chain) == (0, None) for chain in chains)


def _matrix(method, out):
    if method == "seq":
        return out
    return out.matrix if method == "hier" else out[1]


def _same_buffer(a, b):
    if a is None or b is None:
        return a is b
    return (a.capacity == b.capacity and a.seen_count == b.seen_count
            and np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
            and a.targets.dtype == b.targets.dtype)


def _same_sums(a, b):
    if a is None or b is None:
        return a is b
    return all(map(np.array_equal, a, b))


def _assert_same_cell(method, got, want):
    if method != "hier":
        assert np.array_equal(_matrix(method, got).values, _matrix(method, want).values)
        if method != "seq":
            assert np.array_equal(got[0], want[0])
        return
    assert got.hierarchy.lambdas == want.hierarchy.lambdas
    assert len(got.hierarchy.levels) == len(want.hierarchy.levels)
    assert all(np.array_equal(a, b) for a, b in zip(got.hierarchy.levels, want.hierarchy.levels))
    assert np.array_equal(got.matrix.values, want.matrix.values)
    assert got.update_norms == want.update_norms
    assert got.audit == want.audit
    assert got.log == want.log
    assert len(got.group_results) == len(want.group_results)
    for a, b in zip(got.group_results, want.group_results):
        assert a.group == b.group and a.best_perm == b.best_perm
        assert a.per_perm_scores == b.per_perm_scores
        assert np.array_equal(a.best_state.params, b.best_state.params)
        assert _same_buffer(a.best_state.buffer, b.best_state.buffer)
        assert _same_sums(a.best_state.ewc, b.best_state.ewc)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_equal_cells_run_without_a_memo(case):
    cfg = _cfg(case)
    records, _ = run_experiment(cfg, csv_path="")
    want = []
    for seed in cfg.seeds:
        for perm in _perms(cfg):
            for method in cfg.methods:
                matrix = _matrix(method, _reference(cfg, method, perm, seed))
                want.append((seed, perm.label(), repr(mean_accuracy(matrix)),
                             repr(avg_forgetting(matrix))))
    assert [(r.seed, r.permutation, repr(r.mean_accuracy), repr(r.avg_forgetting))
            for r in records] == want


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", ["seq", "hier", "fedavg", "fedprox"])
def test_memo_cells_match_fresh_cells_in_any_order(case, method):
    cfg = _cfg(case)
    seed = cfg.seeds[0]
    perms = _perms(cfg)
    fresh = [_reference(cfg, method, perm, seed) for perm in perms]

    plan, chains = _plan(cfg, method, perms)
    for perm, want in zip(perms, fresh):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, plan), want)
    assert _holds_nothing(plan, chains)  # each state went after its last planned use

    # reverse order: the plan is filled, or resumed from, by its last cell
    plan, _ = _plan(cfg, method, perms)
    for perm, want in zip(perms[::-1], fresh[::-1]):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, plan), want)

    # cells asked again after later cells have used the plan
    plan, _ = _plan(cfg, method, perms)
    ran = perms[: len(perms) // 2 + 1]
    for perm in ran:
        _cell(cfg, method, perm, seed, plan)
    for perm, want in zip(ran, fresh):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, plan), want)

    # an order outside the plan, asked first and again after the plan is used
    plan, chains = _plan(cfg, method, perms[1:])
    _assert_same_cell(method, _cell(cfg, method, perms[0], seed, plan), fresh[0])
    for perm, want in zip(perms[1:], fresh[1:]):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, plan), want)
    _assert_same_cell(method, _cell(cfg, method, perms[0], seed, plan), fresh[0])
    assert _holds_nothing(plan, chains)


def test_seq_ewc_nodes_are_settled_once_before_they_are_stored(monkeypatch):
    # every non-final arrival prefix's Fisher is estimated once, when its
    # node is settled, before its children train; each depth's stack gets
    # one settled parent, task and seed per row, and its training call
    # reads one (P, p) pull pair, built from the rows' EWC sums, whatever
    # the depth (none at depth 0, where no task is settled yet)
    fishers, stacks, steps = [], [], []

    def counting(params, pool, spec):
        fishers.append(params.shape)
        return curvature.estimate_diag_curvature(params, pool, spec)

    def recording(parents, tasks, cfg, spec, seeds):
        stacks.append((len(parents), len(tasks), len(seeds),
                       {(parent.ewc is not None, parent.pending) for parent in parents}))
        return train_seq(parents, tasks, cfg, spec, seeds)

    def stepping(params, task, cfg, spec, rng, buffer=None, pull=None):
        steps.append((params.shape, None if pull is None else (pull[0].shape, pull[1].shape)))
        return train_on_task(params, task, cfg, spec, rng, buffer, pull)

    train_seq, train_on_task = learners.train_seq, learners.train_on_task
    monkeypatch.setattr(learners, "estimate_diag_curvature", counting)
    monkeypatch.setattr("hiercl.experiment.train_seq", recording)
    monkeypatch.setattr(learners, "train_on_task", stepping)
    cfg = _cfg("ewc-k2-all")
    seed = cfg.seeds[0]
    perms = _perms(cfg)
    plan, _ = _plan(cfg, "seq", perms)
    for perm in perms:
        _cell(cfg, "seq", perm, seed, plan)
    t_count = cfg.dataset.task_count
    prefixes = {p.order[:i] for p in perms for i in range(1, t_count)}
    assert len(fishers) == len(prefixes) == 4 + 12 + 24
    p = make_model_spec(cfg).param_count
    depths = list(enumerate((4, 12, 24, 24)))
    assert stacks == [(rows, rows, rows, {(depth > 0, None)}) for depth, rows in depths]
    assert steps == [((rows, p), ((rows, p), (rows, p)) if depth else None)
                     for depth, rows in depths]


@pytest.mark.parametrize("method", ["seq", "fedavg", "fedprox"])
def test_an_all_orders_plan_trains_each_depth_in_capped_stacks(monkeypatch, method):
    # 5 tasks: depths of 5, 20, 60, 120 and 120 prefixes, in stacks of at
    # most 24 rows, are 1 + 1 + 3 + 5 + 5 = 15 training calls; a cell that
    # trained its own order would add P=1 calls
    rows = []

    def counting(params, *args, **kwargs):
        rows.append(len(params))
        return train_on_task(params, *args, **kwargs)

    train_on_task = learners.train_on_task
    monkeypatch.setattr(learners, "train_on_task", counting)
    monkeypatch.setattr(federated, "train_on_task", counting)
    cfg = build_experiment_config({**_TINY, "dataset.num_classes": "10", "learner.kind": "er",
                                   "run.perms": "all", "run.seeds": "0",
                                   "run.methods": method})
    records, _ = run_experiment(cfg, csv_path="")
    assert len(records) == 120
    assert STACK_ROWS == 24
    assert rows == [5, 20, 24, 24, 12] + [24] * 10


def test_a_diverged_stack_names_its_arrival_prefix(monkeypatch):
    # the third settled node of depth 0 gets a nonfinite Fisher
    calls = []

    def poisoned(params, pool, spec):
        est = curvature.estimate_diag_curvature(params, pool, spec)
        calls.append(1)
        return replace(est, diag=est.diag * np.nan) if len(calls) == 3 else est

    monkeypatch.setattr(learners, "estimate_diag_curvature", poisoned)
    cfg = _cfg("ewc-k2-all")
    perms = _perms(cfg)
    plan, _ = _plan(cfg, "seq", perms)
    with pytest.raises(ValueError, match=r"^arrival prefix 2: task 2: EWC Fisher is not "
                                         r"finite after training; training diverged$"):
        _cell(cfg, "seq", perms[0], cfg.seeds[0], plan)


def test_prefix_keys():
    assert arrival_prefixes((2, 0, 1)) == [(2,), (2, 0), (2, 0, 1)]
    groups = arrival_groups((3, 1, 0, 4, 2), 2)
    assert [g.task_ids for g in groups] == [(3, 1), (0, 4, 2)]
    assert membership_prefixes(groups) == [((1, 3),), ((1, 3), (0, 2, 4))]
    # orders that differ only inside groups share every hier key
    assert membership_prefixes(arrival_groups((1, 3, 2, 0, 4), 2)) == membership_prefixes(groups)


def test_memo_keeps_a_state_only_for_later_resumes():
    chains = [arrival_prefixes(p) for p in ((0, 1, 2), (0, 1, 3), (0, 2, 1), (4, 0, 1))]
    memo = PrefixMemo(chains)
    # (0, 1) is resumed once by the second chain and (0,) once by the third
    assert memo.resume(chains[0]) == (0, None)
    assert [memo.store(key, key) for key in chains[0]] == [True, True, False]
    assert memo.resume(chains[1]) == (2, (0, 1))
    assert [memo.store(key, key) for key in chains[1][2:]] == [False]
    assert memo.resume(chains[2]) == (1, (0,))
    assert not any(memo.store(key, key) for key in chains[2] + chains[3])
    assert _holds_nothing(memo, chains)


def test_a_plan_without_shared_prefixes_stores_nothing(monkeypatch):
    cfg = _cfg("er-k2-sampled-pairwise")
    perms = [Permutation(p) for p in ((0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 0, 1))]
    # seq and fed: one stack of the 3 orders per depth, and after the last
    # cell nothing is left
    rows = []

    def counting(params, *args, **kwargs):
        rows.append(len(params))
        return train_on_task(params, *args, **kwargs)

    train_on_task = learners.train_on_task
    monkeypatch.setattr(learners, "train_on_task", counting)
    monkeypatch.setattr(federated, "train_on_task", counting)
    for method in ("seq", "fedavg"):
        rows.clear()
        plan, chains = _plan(cfg, method, perms)
        for perm in perms:
            _cell(cfg, method, perm, cfg.seeds[0], plan)
        assert rows == [3] * 4
        assert _holds_nothing(plan, chains)
    # the first two orders both have the groups {0, 1} then {2, 3}
    plan, chains = _plan(cfg, "hier", perms)
    _cell(cfg, "hier", perms[0], cfg.seeds[0], plan)
    depth, node = plan.resume(chains[1])
    assert depth == 2 and node is not None
    assert _holds_nothing(plan, chains)
