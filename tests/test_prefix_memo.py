"""Cells served from a sweep's shared plan equal cells computed alone.

Every cell takes its leaf from an ArrivalPlan, which trains the trie of all
planned key chains breadth-first: arrival orders for seq and fed, group
memberships for hier. Seq and fed cells must match the per-cell runners of
`experiment_reference` bitwise, fed final weights included; hier cells
must match run_pipeline called with a one-cell plan, field by field; the
sweep's CSV rows must match both. Running the planned cells in reverse and
asking a cell that is planned twice show that no shared state is written
after it is made; a chain outside the plan, or past its last planned take,
raises. Hier memberships explored from one parent share their ordering
prefixes: a sweep trains each distinct (start, prefix) node once.
"""

import math
from dataclasses import fields, is_dataclass, replace
from itertools import permutations

import experiment_reference
import numpy as np
import pytest
from bits import lone_plan
from experiment_reference import arrival_prefixes, sweep_init

from hiercl import curvature, federated, learners, memo, model, pipeline
from hiercl import tasks as tasks_module
from hiercl.config import build_experiment_config
from hiercl.experiment import make_model_spec, make_tasks, run_baseline_seq, run_experiment
from hiercl.federated import fed_compare_run
from hiercl.learners import LearnerState, ReplayBuffer
from hiercl.memo import STACK_ROWS, ArrivalPlan
from hiercl.metrics import avg_forgetting, mean_accuracy
from hiercl.pipeline import arrival_groups, membership_chain, run_pipeline
from hiercl.tasks import Permutation, sample_full_permutations

_TINY = {
    "dataset.num_classes": "8", "dataset.classes_per_task": "2", "dataset.dim": "3",
    "dataset.samples_per_class": "6", "dataset.val_per_class": "3",
    "dataset.test_per_class": "3", "learner.epochs_per_task": "1",
    "learner.batch_size": "4", "learner.buffer_capacity": "5", "run.hidden": "4",
    "run.audit_draws": "20", "run.methods": "seq,hier,fedavg,fedprox",
    "run.prox_mu": "0.05",
}

# 4 tasks (6 at k=3); every learner, group size 1-3, all 24 orders and
# samples of them. The names are test ids; "running", "pairwise" and
# "seen" name fed aggregation and ordering-score modes that are gone.
# "uneven": 9 classes make tasks of 2, 2, 2 and 3 classes, so stacks mix
# training-set sizes.
CASES = {
    "er-k2-all-running": {"learner.kind": "er", "run.group_size": "2", "run.perms": "all",
                          "run.seeds": "0,1"},
    "sgd-k1-all-pairwise-seen": {"learner.kind": "sgd", "run.group_size": "1",
                                 "run.perms": "all", "run.seeds": "3"},
    "ewc-k2-all": {"learner.kind": "ewc", "run.group_size": "2", "run.perms": "all",
                   "run.seeds": "1"},
    "ewc-k3-sampled": {"learner.kind": "ewc", "dataset.num_classes": "12",
                       "run.group_size": "3", "run.perms": "9", "run.perm_sample_seed": "4",
                       "run.seeds": "2"},
    "er-k2-sampled-pairwise": {"learner.kind": "er", "run.group_size": "2",
                               "run.perms": "7", "run.perm_sample_seed": "1",
                               "run.seeds": "5"},
    "er-k2-uneven-sampled": {"learner.kind": "er", "dataset.num_classes": "9",
                             "run.group_size": "2", "run.perms": "8",
                             "run.perm_sample_seed": "2", "run.seeds": "4"},
}


def _cfg(case):
    return build_experiment_config({**_TINY, **CASES[case]})


def _perms(cfg):
    t_count = cfg.dataset.task_count
    budget = math.factorial(t_count) if cfg.perms == "all" else int(cfg.perms)
    return sample_full_permutations(t_count, budget, cfg.perm_sample_seed)


def _setup(cfg, seed):
    spec = make_model_spec(cfg)
    return spec, make_tasks(cfg.dataset, seed), sweep_init(spec, seed)


def _mu(cfg, method):
    return cfg.prox_mu if method == "fedprox" else 0.0


def _cell(cfg, method, perm, seed, plan):
    """The runner's full output for one cell: a matrix, a RunResult or
    (global weights, matrix)."""
    spec, tasks, init = _setup(cfg, seed)
    learner = cfg.pipeline.learner
    if method == "seq":
        return run_baseline_seq(tasks, perm, learner, spec, seed, init, plan)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed, plan=plan)
    return fed_compare_run(tasks, perm, _mu(cfg, method), learner, spec, seed, init, plan)


def _reference(cfg, method, perm, seed):
    """The cell computed alone: by the per-cell reference for seq and fed,
    by run_pipeline with a one-cell plan for hier."""
    spec, tasks, init = _setup(cfg, seed)
    learner = cfg.pipeline.learner
    if method == "seq":
        return experiment_reference.run_baseline_seq(tasks, perm, learner, spec, seed, init)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed,
                            lone_plan(perm, cfg.pipeline.group_size))
    return experiment_reference.fed_compare_run(tasks, perm, _mu(cfg, method), learner,
                                                spec, seed, init)


def _plan(cfg, method, perms):
    """What run_experiment hands one method's cells of a data seed."""
    if method == "hier":
        return ArrivalPlan(membership_chain(arrival_groups(perm.order, cfg.pipeline.group_size))
                           for perm in perms)
    return ArrivalPlan(perm.order for perm in perms)


def _holds_nothing(plan):
    """No leaf is left, and no planned cell is waiting for one."""
    return not plan._uses and not plan._leaves


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


@pytest.fixture
def winners(monkeypatch):
    """Wraps pipeline._absorb_group and pipeline.explore_group. Each call of
    the returned function starts a new record: a dict into which every later
    exploration adds its winner's state, under the membership chain of the
    groups up to the one it explored."""
    records, chains = [], []

    def absorbing(node, chain, *args, **kwargs):
        chains.append(chain)
        return absorb(node, chain, *args, **kwargs)

    def recording(*args, **kwargs):
        res = explore(*args, **kwargs)
        records[-1].setdefault(chains[-1], []).append(res.best_state)
        return res

    def record():
        records.append({})
        return records[-1]

    absorb, explore = pipeline._absorb_group, pipeline.explore_group
    monkeypatch.setattr(pipeline, "_absorb_group", absorbing)
    monkeypatch.setattr(pipeline, "explore_group", recording)
    return record


def _assert_same_cell(method, got, want, winners=None):
    """Whether two cells' results are the same; for hier, `winners` holds
    the two runs' records (see the fixture), and every winner either run
    recorded for the cell's membership chain must be the same state."""
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
    chain = ()
    for a, b in zip(got.group_results, want.group_results):
        assert a.group == b.group and a.best_perm == b.best_perm
        assert a.per_perm_scores == b.per_perm_scores
        chain += (tuple(sorted(a.group.task_ids)),)
        states = winners[0][chain] + winners[1][chain]
        for state in states[1:]:
            assert np.array_equal(state.params, states[0].params)
            assert _same_buffer(state.buffer, states[0].buffer)
            assert _same_sums(state.ewc, states[0].ewc)


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
def test_memo_cells_match_fresh_cells_in_any_order(winners, case, method):
    cfg = _cfg(case)
    seed = cfg.seeds[0]
    perms = _perms(cfg)
    fresh_winners = winners()
    fresh = [_reference(cfg, method, perm, seed) for perm in perms]

    def check(got, want):
        _assert_same_cell(method, got, want, (planned_winners, fresh_winners))

    planned_winners = winners()
    plan = _plan(cfg, method, perms)
    for perm, want in zip(perms, fresh):
        check(_cell(cfg, method, perm, seed, plan), want)
    assert _holds_nothing(plan)  # each state went after its last planned use

    # reverse order: the plan is filled by its last cell
    planned_winners = winners()
    plan = _plan(cfg, method, perms)
    for perm, want in zip(perms[::-1], fresh[::-1]):
        check(_cell(cfg, method, perm, seed, plan), want)

    # cells planned twice, asked again after later cells have used the plan
    planned_winners = winners()
    ran = perms[: len(perms) // 2 + 1]
    plan = _plan(cfg, method, perms + ran)
    for perm in ran:
        _cell(cfg, method, perm, seed, plan)
    for perm, want in zip(perms, fresh):
        check(_cell(cfg, method, perm, seed, plan), want)
    assert _holds_nothing(plan)
    with pytest.raises(ValueError, match="past its last planned take$"):
        _cell(cfg, method, perms[0], seed, plan)


def test_seq_ewc_nodes_are_settled_once_before_they_are_stored(monkeypatch):
    # every non-final arrival prefix's Fisher is estimated once, when its
    # node is settled, before its children train; each depth's stack gets
    # one settled parent, task and seed per row, and its training call
    # reads one (P, p) pull pair, built from the rows' EWC sums, whatever
    # the depth (none at depth 0, where no task is settled yet)
    fishers, stacks, steps = [], [], []

    def counting(factors, spec):
        fishers.append(factors[0][0].shape)
        return curvature.estimate_diag_curvature(factors, spec)

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
    plan = _plan(cfg, "seq", perms)
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


@pytest.mark.parametrize("method", ["seq", "fedavg"])
def test_a_plan_scores_each_trained_stack_in_one_call(monkeypatch, method):
    # 4 tasks, all 24 orders, stacks of at most 5 rows: depths of 4, 12, 24
    # and 24 prefixes train as 1 + 3 + 5 + 5 stacks, and each stack's
    # nodes are scored on every test set by one task_accuracies call
    trained, scored = [], []

    def training(params, *args, **kwargs):
        trained.append(len(params))
        return train_on_task(params, *args, **kwargs)

    def scoring(params, tasks, spec):
        scored.append((params.shape, len(tasks)))
        return task_accuracies(params, tasks, spec)

    train_on_task, task_accuracies = learners.train_on_task, tasks_module.task_accuracies
    monkeypatch.setattr(learners, "train_on_task", training)
    monkeypatch.setattr(federated, "train_on_task", training)
    monkeypatch.setattr(memo, "STACK_ROWS", 5)
    monkeypatch.setattr(f"hiercl.{'experiment' if method == 'seq' else 'federated'}."
                        "task_accuracies", scoring)
    cfg = build_experiment_config({**_TINY, "learner.kind": "er", "run.perms": "all",
                                   "run.seeds": "0", "run.methods": method})
    records, _ = run_experiment(cfg, csv_path="")
    assert len(records) == 24
    assert trained == [4, 5, 5, 2, 5, 5, 5, 5, 4, 5, 5, 5, 5, 4]
    p = make_model_spec(cfg).param_count
    assert scored == [((rows, p), 4) for rows in trained]


def test_a_diverged_stack_names_its_arrival_prefix(monkeypatch):
    # the third settled node of depth 0 gets a nonfinite Fisher
    calls = []

    def poisoned(factors, spec):
        est = curvature.estimate_diag_curvature(factors, spec)
        calls.append(1)
        return replace(est, diag=est.diag * np.nan) if len(calls) == 3 else est

    monkeypatch.setattr(learners, "estimate_diag_curvature", poisoned)
    cfg = _cfg("ewc-k2-all")
    perms = _perms(cfg)
    plan = _plan(cfg, "seq", perms)
    with pytest.raises(ValueError, match=r"^arrival prefix 2: task 2: EWC Fisher is not "
                                         r"finite after training; training diverged$"):
        _cell(cfg, "seq", perms[0], cfg.seeds[0], plan)


def test_prefix_keys():
    assert arrival_prefixes((2, 0, 1)) == [(2,), (2, 0), (2, 0, 1)]
    groups = arrival_groups((3, 1, 0, 4, 2), 2)
    assert [g.task_ids for g in groups] == [(3, 1), (0, 4, 2)]
    assert membership_chain(groups) == ((1, 3), (0, 2, 4))
    # orders that differ only inside groups share their hier chain
    assert membership_chain(arrival_groups((1, 3, 2, 0, 4), 2)) == membership_chain(groups)


def test_a_plan_without_shared_prefixes_stores_nothing(monkeypatch, winners):
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
        plan = _plan(cfg, method, perms)
        for perm in perms:
            _cell(cfg, method, perm, cfg.seeds[0], plan)
        assert rows == [3] * 4
        assert _holds_nothing(plan)
    # hier: the first two orders both have the groups {0, 1} then {2, 3}.
    # The first cell explores each distinct membership-chain prefix once,
    # the second takes the leaf it shares with the first, and each leaf
    # goes with its last planned take
    explored = []

    def exploring(group, *args, **kwargs):
        explored.append(group.task_ids)
        return explore_group(group, *args, **kwargs)

    explore_group = pipeline.explore_group
    monkeypatch.setattr(pipeline, "explore_group", exploring)
    planned_winners = winners()
    plan = _plan(cfg, "hier", perms)
    chains = {membership_chain(arrival_groups(perm.order, cfg.pipeline.group_size))
              for perm in perms}
    prefixes = {chain[: g + 1] for chain in chains for g in range(len(chain))}
    assert len(prefixes) == 4
    for perm in perms:
        _cell(cfg, "hier", perm, cfg.seeds[0], plan)
        assert len(explored) == len(prefixes)
    assert _holds_nothing(plan)
    # a cell asked for after its leaf's last planned take explores nothing
    with pytest.raises(ValueError, match=r"^chain \(\(0, 1\), \(2, 3\)\) is outside the plan "
                                         r"or past its last planned take$"):
        _cell(cfg, "hier", perms[1], cfg.seeds[0], plan)
    assert len(explored) == len(prefixes)


def _distinct_nodes(cfg, perms):
    """The (start, ordering prefix) pairs of every planned hier cell: the
    sorted memberships of the groups before a group, and every prefix of
    every ordering of that group's tasks, full orderings included."""
    nodes = set()
    for perm in perms:
        order, k = perm.order, cfg.pipeline.group_size
        groups = [order[i : i + k] for i in range(0, len(order), k)]
        for g, group in enumerate(groups):
            start = tuple(tuple(sorted(members)) for members in groups[:g])
            nodes.update((start, prefix) for depth in range(1, len(group) + 1)
                         for prefix in permutations(group, depth))
    return nodes


@pytest.mark.parametrize("case", ["ewc-k3-sampled", "er-k2-all-running"])
def test_a_hier_sweep_trains_each_trie_node_once(monkeypatch, case):
    # every (start, prefix) node is one train_on_task row, whether its
    # group's membership is shared by other explorations or not
    rows = []

    def counting(params, *args, **kwargs):
        rows.append(len(params))
        return train_on_task(params, *args, **kwargs)

    train_on_task = learners.train_on_task
    monkeypatch.setattr(learners, "train_on_task", counting)
    cfg = build_experiment_config({**_TINY, **CASES[case], "run.methods": "hier"})
    records, _ = run_experiment(cfg, csv_path="")
    nodes = _distinct_nodes(cfg, _perms(cfg))
    assert len(records) == len(_perms(cfg)) * len(cfg.seeds)
    assert sum(rows) == len(nodes) * len(cfg.seeds)
    # explorations do share: each would otherwise train all its own prefixes
    explorations = {(start, tuple(sorted(prefix))) for start, prefix in nodes
                    if len(prefix) == cfg.pipeline.group_size}
    k = cfg.pipeline.group_size
    assert len(nodes) < len(explorations) * sum(math.perm(k, d) for d in range(1, k + 1))


@pytest.mark.parametrize("poison", ["fisher", "loss"])
def test_a_diverged_partly_served_stack_names_its_hier_prefix(monkeypatch, poison):
    # all orders of 4 tasks in groups of 2: the plan's first cell explores
    # the group-0 memberships {0, 1} and then {0, 2} from the same start;
    # {0, 2} takes the node (0,) from the sibling dict and trains (2,)
    # alone, so a divergence in that one-row stack must name the second
    # prefix of the depth, and the group's tasks, which the failing cell's
    # own order does not have as a group
    cfg = _cfg("ewc-k2-all")
    perms = _perms(cfg)
    assert [p.order for p in perms[:3]] == [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    if poison == "fisher":
        # {0, 1} settles (0,), (1,) and its winner; (2,) is the fourth
        calls = []

        def poisoned(factors, spec):
            est = curvature.estimate_diag_curvature(factors, spec)
            calls.append(1)
            return replace(est, diag=est.diag * np.nan) if len(calls) == 4 else est

        monkeypatch.setattr(learners, "estimate_diag_curvature", poisoned)
        why = "EWC Fisher is not finite after training"
    else:
        # {0, 1} trains stacks of two rows; (2,) is the first stack of one
        def poisoned(params, batch, spec):
            loss, grad = model.loss_and_grad(params, batch, spec)
            return (loss * np.nan if len(params) == 1 else loss), grad

        monkeypatch.setattr(learners, "loss_and_grad", poisoned)
        why = "epoch 0, step 0: minibatch loss is nan"
    plan = _plan(cfg, "hier", perms)
    with pytest.raises(ValueError, match=rf"^group 0 \(tasks 0, 2\): ordering prefix 2: task 2: "
                                         rf"{why}; training diverged$"):
        _cell(cfg, "hier", perms[0], cfg.seeds[0], plan)


def test_a_planned_sweep_builds_one_root_per_trie(monkeypatch):
    # a look-up takes its leaf without building the root that only a
    # trained trie starts from: one root per data seed and method
    builds = []

    def counting(self, chain, make_root, train_stack):
        def build():
            builds.append(chain)
            return make_root()

        return take(self, chain, build, train_stack)

    take = ArrivalPlan.take
    monkeypatch.setattr(ArrivalPlan, "take", counting)
    cfg = build_experiment_config({**_TINY, **CASES["er-k2-sampled-pairwise"],
                                   "run.seeds": "5,6"})
    records, _ = run_experiment(cfg, csv_path="")
    assert len(records) == 2 * 7 * 4
    assert len(builds) == len(cfg.seeds) * len(cfg.methods) == 8
    perms = _perms(cfg)
    for method in cfg.methods:
        builds.clear()
        plan = _plan(cfg, method, perms)
        for perm in perms:
            _cell(cfg, method, perm, cfg.seeds[0], plan)  # the first trains the trie
        assert len(builds) == 1


def test_a_chain_outside_the_plan_or_past_its_last_take_raises_naming_it():
    # a toy trie whose node is the prefix itself; a take that raises
    # builds no root and trains nothing
    built, trained = [], []

    def make_root():
        built.append(1)
        return ()

    def train_stack(depth, prefixes, parents):
        trained.extend(prefixes)
        return [parent + prefix[-1:] for prefix, parent in zip(prefixes, parents)]

    plan = ArrivalPlan([(0, 1), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"^chain \(2, 0\) is outside the plan or past its "
                                         r"last planned take$"):
        plan.take((2, 0), make_root, train_stack)
    assert built == trained == []
    assert [plan.take(c, make_root, train_stack) for c in ((0, 1), (0, 1))] == [(0, 1)] * 2
    with pytest.raises(ValueError, match=r"^chain \(0, 1\) is outside the plan or past its "
                                         r"last planned take$"):
        plan.take((0, 1), make_root, train_stack)
    assert plan.take((1, 0), make_root, train_stack) == (1, 0)
    assert built == [1] and trained == [(0,), (1,), (0, 1), (1, 0)]
    assert _holds_nothing(plan)


def _reachable(obj) -> list:
    """Every object reachable from obj through dataclass fields, tuples,
    lists and dicts, obj included."""
    found, todo = [], [obj]
    while todo:
        x = todo.pop()
        found.append(x)
        if is_dataclass(x) and not isinstance(x, type):
            todo.extend(getattr(x, f.name) for f in fields(x))
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend([*x.keys(), *x.values()])
    return found


def test_planned_hier_leaves_keep_no_learner_state_in_their_results():
    # a leaf's group records are what its cells read (orderings and
    # scores); the winners' params, buffers and EWC sums stay out of them
    cfg = _cfg("ewc-k2-all")
    perms = _perms(cfg)
    plan = _plan(cfg, "hier", perms)
    _cell(cfg, "hier", perms[0], cfg.seeds[0], plan)
    assert plan._leaves
    for leaf in plan._leaves.values():
        # the walk does reach a leaf's own buffer and EWC sums
        assert isinstance(leaf.buffer, ReplayBuffer) and leaf.ewc is not None
        assert any(x is leaf.buffer for x in _reachable(leaf))
        assert any(x is leaf.ewc[0] for x in _reachable(leaf))
        assert len(leaf.results) == 2
        for x in _reachable(leaf.results):
            assert not isinstance(x, (LearnerState, ReplayBuffer, np.ndarray))
