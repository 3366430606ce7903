"""Permutation-sweep experiment runner.

For every (seed, full permutation, method) cell this trains the chosen
method on the same tasks from the same initial weights and records mean
accuracy, average forgetting and wall time. Rows land in the CSV in
(seed, permutation, method) order, so reruns are bitwise-identical apart
from the timing column. Cells whose arrival orders share a prefix share
its training. Seq and fed cells share it through an ArrivalPlan: the first
seq or fed cell of each data seed trains that method's whole arrival trie
breadth-first, so its wall_time_seconds carries the trie and the later
cells' only a look-up. Hier cells share it through a PrefixMemo, so a hier
cell's wall time covers only the part it computed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import DatasetConfig, ExperimentConfig
from .federated import FedConfig, fed_compare_run
from .learners import LearnerConfig, LearnerState, TrainingDiverged, settle, train_seq
from .memo import ArrivalPlan, PrefixMemo, membership_prefixes
from .metrics import (AccuracyMatrix, CsvSink, MetricsRecord, avg_forgetting,
                      mean_accuracy, summarize)
from .model import ModelSpec, init_params
from .pipeline import (INIT_STREAM, SEQ_STREAM, arrival_groups, derive_seed,
                       run_pipeline)
from .tasks import (Permutation, TaskDataset, gen_permuted_features, gen_sine_tasks,
                    gen_split_gaussians, sample_full_permutations, task_accuracies)


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
    plan: ArrivalPlan | None = None,
) -> AccuracyMatrix:
    """Plain continual learner over the arrival order, no grouping and no
    consolidation; one accuracy row per finished task.

    The first cell of `plan` trains the arrival trie of every planned order
    (see memo.train_trie): each depth's prefixes step as (P, p) stacks
    through train_seq, every row from its parent's params, a clone of its
    parent's buffer and its parent's anchors, with the seed
    derive_seed(seed, SEQ_STREAM, depth). Every node but the leaves is
    settled (its EWC Fisher estimated) once, before its children train, so
    an order's final Fisher is never estimated."""
    last = len(full_perm) - 1

    def train_stack(depth, prefixes, parents):
        states = train_seq(
            [Permutation(p[-1:]) for p in prefixes], tasks,
            np.stack([state.params for state, _ in parents]), lcfg, spec,
            [derive_seed(seed, SEQ_STREAM, depth)] * len(prefixes),
            buffers=[None if state.buffer is None else state.buffer.clone()
                     for state, _ in parents],
            # the j-th anchor of every row, stacked into one (P, p) pair
            anchors=[tuple(map(np.stack, zip(*column)))
                     for column in zip(*(state.anchors for state, _ in parents))])
        nodes = []
        for row, (state, (_, accs)) in enumerate(zip(states, parents)):
            accs += (task_accuracies(state.params, tasks, spec),)
            if depth < last:
                try:
                    state = settle(state, spec)
                except TrainingDiverged as err:
                    raise TrainingDiverged(str(err), row) from err
            nodes.append((state, accs))
        return nodes

    # train_seq gives er its buffer at the first task
    return (ArrivalPlan() if plan is None else plan).take(
        full_perm.order, (LearnerState(init), ()), train_stack,
        lambda order, leaf: AccuracyMatrix(np.stack(leaf[1])[:, list(order)]))


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
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed, memo=plan).matrix
    fed = FedConfig(kind=method,
                    prox_mu=cfg.prox_mu if method == "fedprox" else 0.0,
                    aggregate=cfg.fed_aggregate)
    return fed_compare_run(tasks, perm, fed, learner, spec, seed, init, plan)[1]


def hier_chain(perm: Permutation, cfg: ExperimentConfig) -> list:
    """The PrefixMemo keys of one hier cell, as run_pipeline computes them."""
    return membership_prefixes(arrival_groups(perm.order, cfg.pipeline.group_size))


def run_experiment(cfg: ExperimentConfig, csv_path: str | None = None):
    """Full sweep. Returns (records, summary); writes CSV when a path is
    given (cfg.out by default, pass csv_path="" to skip).

    Each (data seed, method) trains every distinct prefix of the planned
    arrival orders once. Seq and fed methods each have an ArrivalPlan, so
    their first cell of a seed trains the whole arrival trie and carries it
    in its wall time, and later cells only take their results. Hier has a
    PrefixMemo, so each hier cell's wall time is the work it did itself."""
    if csv_path is None:
        csv_path = cfg.out
    t_count = cfg.dataset.task_count
    budget = math.factorial(t_count) if cfg.perms == "all" else int(cfg.perms)
    perms = sample_full_permutations(t_count, budget, cfg.perm_sample_seed)
    chains = [hier_chain(perm, cfg) for perm in perms] if "hier" in cfg.methods else []

    spec = make_model_spec(cfg)
    records: list[MetricsRecord] = []
    sink = None  # opened at the first record, so a run that fails before it writes nothing
    try:
        for seed in cfg.seeds:
            tasks = make_tasks(cfg.dataset, seed)
            init = init_params(spec, derive_seed(seed, INIT_STREAM))
            plans = {m: PrefixMemo(chains) if m == "hier" else
                     ArrivalPlan(perm.order for perm in perms) for m in cfg.methods}
            for perm in perms:
                for method in cfg.methods:
                    start = time.perf_counter()
                    matrix = _run_method(method, tasks, perm, cfg, spec, seed, init,
                                         plans[method])
                    wall = time.perf_counter() - start
                    rec = MetricsRecord(
                        _method_tag(method, cfg), seed, perm.label(),
                        mean_accuracy(matrix), avg_forgetting(matrix), wall,
                    )
                    records.append(rec)
                    if csv_path:
                        sink = sink or CsvSink(csv_path)
                        sink.write(rec)
    finally:
        if sink:
            sink.close()
    return records, summarize(records)
