"""Cells served from a PrefixMemo equal cells computed from scratch.

The reference calls each runner with no memo, so every cell trains its
whole arrival order. The sweep's CSV rows must match it bitwise, and a
hier cell's RunResult must match it field by field. Running the planned
cells in reverse, and running a cell again after later cells, shows that
no stored state is written after it is stored.
"""

import math

import numpy as np
import pytest

from hiercl.config import build_experiment_config
from hiercl.experiment import (make_model_spec, make_tasks, prefix_chain,
                               run_baseline_seq, run_experiment)
from hiercl.federated import FedConfig, fed_compare_run
from hiercl.memo import PrefixMemo, arrival_prefixes, membership_prefixes
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


def _cell(cfg, method, perm, seed, memo=None):
    """The runner's full output for one cell: a matrix, a RunResult or
    (global weights, matrix)."""
    spec = make_model_spec(cfg)
    tasks = make_tasks(cfg.dataset, seed)
    init = init_params(spec, derive_seed(seed, INIT_STREAM))
    learner = cfg.pipeline.learner
    if method == "seq":
        return run_baseline_seq(tasks, perm, learner, spec, seed, init, memo)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed, memo=memo)
    fed = FedConfig(method, cfg.prox_mu if method == "fedprox" else 0.0, cfg.fed_aggregate)
    return fed_compare_run(tasks, perm, fed, learner, spec, seed, init, memo)


def _matrix(method, out):
    if method == "seq":
        return out
    return out.matrix if method == "hier" else out[1]


def _same_buffer(a, b):
    if a is None or b is None:
        return a is b
    return (a.capacity == b.capacity and a.seen_count == b.seen_count
            and np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
            and a.targets.dtype == b.targets.dtype and np.array_equal(a.task_ids, b.task_ids))


def _same_anchors(a, b):
    return len(a) == len(b) and all(
        np.array_equal(wa, wb) and np.array_equal(fa, fb) for (wa, fa), (wb, fb) in zip(a, b))


def _assert_same_cell(method, got, want):
    if method != "hier":
        assert np.array_equal(_matrix(method, got).values, _matrix(method, want).values)
        if method != "seq":
            assert np.array_equal(got[0], want[0])
        return
    assert got.hierarchy.lambdas == want.hierarchy.lambdas
    assert got.hierarchy.group_counter == want.hierarchy.group_counter
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
        assert _same_anchors(a.best_state.anchors, b.best_state.anchors)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_equal_cells_run_without_a_memo(case):
    cfg = _cfg(case)
    records, _ = run_experiment(cfg, csv_path="")
    want = []
    for seed in cfg.seeds:
        for perm in _perms(cfg):
            for method in cfg.methods:
                matrix = _matrix(method, _cell(cfg, method, perm, seed))
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
    fresh = [_cell(cfg, method, perm, seed) for perm in perms]
    chains = [prefix_chain(method, perm, cfg) for perm in perms]

    memo = PrefixMemo(chains)
    for perm, want in zip(perms, fresh):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, memo), want)
    assert _holds_nothing(memo, chains)  # each state went after its last planned use

    # reverse order: resumes happen from states the plan did not expect
    memo = PrefixMemo(chains)
    for perm, want in zip(perms[::-1], fresh[::-1]):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, memo), want)

    # cells run again after later cells have resumed from the states they stored
    memo = PrefixMemo(chains)
    ran = perms[: len(perms) // 2 + 1]
    for perm in ran:
        _cell(cfg, method, perm, seed, memo)
    for perm, want in zip(ran, fresh):
        _assert_same_cell(method, _cell(cfg, method, perm, seed, memo), want)


def _holds_nothing(memo, chains):
    return all(memo.resume(chain) == (0, None) for chain in chains)


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


def test_a_plan_without_shared_prefixes_stores_nothing():
    cfg = _cfg("er-k2-sampled-pairwise")
    perms = [Permutation(p) for p in ((0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 0, 1))]
    for method in ("seq", "fedavg"):
        chains = [prefix_chain(method, perm, cfg) for perm in perms]
        memo = PrefixMemo(chains)
        for perm in perms:
            _cell(cfg, method, perm, cfg.seeds[0], memo)
            assert _holds_nothing(memo, chains)
    # the first two orders both have the groups {0, 1} then {2, 3}
    chains = [prefix_chain("hier", perm, cfg) for perm in perms]
    memo = PrefixMemo(chains)
    _cell(cfg, "hier", perms[0], cfg.seeds[0], memo)
    depth, node = memo.resume(chains[1])
    assert depth == 2 and node is not None
    assert _holds_nothing(memo, chains)
