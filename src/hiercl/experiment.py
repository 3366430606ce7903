"""Permutation-sweep experiment runner.

For every (seed, full permutation, method) cell this trains the chosen
method on the same tasks from the same initial weights and records mean
accuracy, average forgetting and wall time. Rows land in the CSV in
(seed, permutation, method) order, so reruns are bitwise-identical apart
from the timing column. Cells whose key chains (arrival orders for seq
and fed, group memberships for hier) share a prefix share its training
through an ArrivalPlan: the first cell of each data seed and method trains
that method's whole trie breadth-first, so its wall_time_seconds carries
the trie, and a later cell's covers a look-up and building its matrix (and,
for hier, its log and its own selection audit).
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from .config import DatasetConfig, ExperimentConfig
from .federated import fed_compare_run
from .learners import LearnerConfig, LearnerState, settle, train_seq
from .memo import ArrivalPlan
from .metrics import (AccuracyMatrix, CsvSink, MetricsRecord, avg_forgetting,
                      mean_accuracy, summarize)
from .model import ModelSpec, init_params
from .pipeline import (INIT_STREAM, SEQ_STREAM, arrival_groups, derive_seed, membership_chain,
                       run_pipeline)
from .tasks import (Permutation, TaskDataset, arrival_order, gen_permuted_features,
                    gen_sine_tasks, gen_split_gaussians, sample_full_permutations,
                    task_accuracies)


def make_tasks(dcfg: DatasetConfig, seed: int) -> list[TaskDataset]:
    if dcfg.kind == "gaussians":
        return gen_split_gaussians(
            dcfg.num_classes, dcfg.classes_per_task, dcfg.dim,
            dcfg.samples_per_class, dcfg.spread, seed,
            dcfg.val_per_class, dcfg.test_per_class,
        )
    if dcfg.kind == "permuted":
        return gen_permuted_features(
            dcfg.num_tasks, dcfg.num_classes, dcfg.dim, dcfg.samples_per_class,
            dcfg.spread, seed, dcfg.val_per_class, dcfg.test_per_class,
        )
    return gen_sine_tasks(dcfg.num_tasks, seed, dcfg.samples_per_task, dcfg.noise_std)


def make_model_spec(cfg: ExperimentConfig) -> ModelSpec:
    d = cfg.dataset
    if d.kind == "sine":
        return ModelSpec((1, *cfg.hidden, 1), task_kind="regression")
    return ModelSpec((d.dim, *cfg.hidden, d.num_classes))


def run_baseline_seq(
    tasks: list[TaskDataset],
    full_perm: Permutation,
    lcfg: LearnerConfig,
    spec: ModelSpec,
    seed: int,
    init: np.ndarray,
    plan: ArrivalPlan,
) -> AccuracyMatrix:
    """Plain continual learner over the arrival order, no grouping and no
    consolidation; one accuracy row per finished task.

    The first cell of `plan` trains the arrival trie of every planned order
    (see memo.train_trie): each depth's prefixes step as (P, p) stacks
    through train_seq, every row on its last task from its parent's settled
    state, with the seed derive_seed(seed, SEQ_STREAM, depth), and the
    stack's nodes are scored on every test set in one task_accuracies
    call. Every node but the leaves is settled (its EWC Fisher estimated)
    once, before its children train, so an order's final Fisher is never
    estimated; a leaf keeps only the accuracies the cell's matrix reads."""
    order = arrival_order(full_perm, len(tasks))
    last = len(order) - 1

    def train_stack(depth, prefixes, parents):
        states = train_seq([state for state, _ in parents], [tasks[p[-1]] for p in prefixes],
                           lcfg, spec, [derive_seed(seed, SEQ_STREAM, depth)] * len(prefixes))
        scores = task_accuracies(np.stack([state.params for state in states]), tasks, spec)
        return [(settle(state, spec, row) if depth < last else None, accs + (scores[row],))
                for row, (state, (_, accs)) in enumerate(zip(states, parents))]

    # train_seq gives er its buffer at the first task
    _, accs = plan.take(tuple(order), lambda: (LearnerState(init), ()), train_stack)
    return AccuracyMatrix(np.stack(accs)[:, order])


def _method_tag(method: str, cfg: ExperimentConfig) -> str:
    if method == "seq":
        return cfg.pipeline.learner.kind
    if method == "hier":
        return f"{cfg.pipeline.learner.kind}+hier"
    return method


def _run_method(method, tasks, perm, cfg, spec, seed, init, plan) -> AccuracyMatrix:
    learner = cfg.pipeline.learner
    if method == "seq":
        return run_baseline_seq(tasks, perm, learner, spec, seed, init, plan)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed, plan=plan).matrix
    mu = cfg.prox_mu if method == "fedprox" else 0.0  # fedavg is fedprox at mu = 0
    return fed_compare_run(tasks, perm, mu, learner, spec, seed, init, plan)[1]


def run_experiment(cfg: ExperimentConfig, csv_path: str | None = None):
    """Full sweep. Returns (records, summary); writes CSV when a path is
    given (cfg.out by default, pass csv_path="" to skip).

    Each (data seed, method) has an ArrivalPlan of its cells' key chains:
    the arrival orders for seq and fed, the group memberships for hier. Its
    first cell of a seed trains every distinct prefix once and carries the
    whole trie in its wall time; later cells take their leaves and build
    their own results."""
    if csv_path is None:
        csv_path = cfg.out
    t_count = cfg.dataset.task_count
    budget = math.factorial(t_count) if cfg.perms == "all" else int(cfg.perms)
    perms = sample_full_permutations(t_count, budget, cfg.perm_sample_seed)
    chains = {m: [membership_chain(arrival_groups(perm.order, cfg.pipeline.group_size))
                  if m == "hier" else perm.order for perm in perms] for m in cfg.methods}

    spec = make_model_spec(cfg)
    records: list[MetricsRecord] = []
    # the sink replaces csv_path only once the last record is written
    with CsvSink(csv_path) if csv_path else contextlib.nullcontext() as sink:
        for seed in cfg.seeds:
            tasks = make_tasks(cfg.dataset, seed)
            init = init_params(spec, derive_seed(seed, INIT_STREAM))
            plans = {m: ArrivalPlan(chains[m]) for m in cfg.methods}
            for perm in perms:
                for method in cfg.methods:
                    tag = _method_tag(method, cfg)
                    start = time.perf_counter()
                    try:
                        matrix = _run_method(method, tasks, perm, cfg, spec, seed, init,
                                             plans[method])
                    except ValueError as exc:
                        raise ValueError(
                            f"seed {seed}: {tag}: order {perm.label()}: {exc}") from exc
                    wall = time.perf_counter() - start
                    rec = MetricsRecord(tag, seed, perm.label(), mean_accuracy(matrix),
                                        avg_forgetting(matrix), wall)
                    records.append(rec)
                    if sink:
                        sink.write(rec)
    return records, summarize(records)
