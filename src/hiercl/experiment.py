"""Permutation-sweep experiment runner.

For every (seed, full permutation, method) cell this trains the chosen
method on the same tasks from the same initial weights and records mean
accuracy, average forgetting and wall time. Rows land in the CSV in
(seed, permutation, method) order, so reruns are bitwise-identical apart
from the timing column. Cells whose arrival orders share a prefix share
its training through a PrefixMemo, so a cell's wall time covers only the
part it computed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import DatasetConfig, ExperimentConfig
from .federated import FedConfig, fed_compare_run
from .learners import LearnerConfig, LearnerState, settle, train_seq
from .memo import PrefixMemo, arrival_prefixes, membership_prefixes
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
    memo: PrefixMemo | None = None,
) -> AccuracyMatrix:
    """Plain continual learner over the arrival order, no grouping and no
    consolidation; one accuracy row per finished task. Resumes from the
    longest arrival prefix stored in `memo` and offers it each later one.
    Every state but the last is settled (its EWC Fisher estimated) before
    it is stored, so a resume trains on from a settled state and the
    order's final Fisher is never estimated."""
    order = list(full_perm)
    keys = arrival_prefixes(order)
    memo = PrefixMemo() if memo is None else memo
    depth, node = memo.resume(keys)
    # train_seq gives er its buffer at the first task
    state, accs = (LearnerState(init), ()) if node is None else node
    shared = node is not None  # train_seq writes its buffers; a memo's buffer is copied
    for i in range(depth, len(order)):
        buffer = state.buffer.clone() if shared and state.buffer is not None else state.buffer
        state = train_seq([Permutation((order[i],))], tasks, state.params, lcfg, spec,
                          [derive_seed(seed, SEQ_STREAM, i)], buffers=[buffer],
                          anchors=state.anchors)[0]
        accs += (task_accuracies(state.params, tasks, spec),)
        if i < len(order) - 1:
            state = settle(state, spec)
        shared = memo.store(keys[i], (state, accs))
    return AccuracyMatrix(np.stack(accs)[:, order])


def _method_tag(method: str, cfg: ExperimentConfig) -> str:
    if method == "seq":
        return cfg.pipeline.learner.kind
    if method == "hier":
        return f"{cfg.pipeline.learner.kind}+hier"
    return method


def _run_method(method, tasks, perm, cfg, spec, seed, init, memo) -> AccuracyMatrix:
    learner = cfg.pipeline.learner
    if method == "seq":
        return run_baseline_seq(tasks, perm, learner, spec, seed, init, memo)
    if method == "hier":
        return run_pipeline(tasks, perm, cfg.pipeline, spec, init, seed=seed, memo=memo).matrix
    fed = FedConfig(kind=method,
                    prox_mu=cfg.prox_mu if method == "fedprox" else 0.0,
                    aggregate=cfg.fed_aggregate)
    return fed_compare_run(tasks, perm, fed, learner, spec, seed, init, memo)[1]


def prefix_chain(method: str, perm: Permutation, cfg: ExperimentConfig) -> list:
    """The PrefixMemo keys of one cell, as its runner computes them."""
    if method == "hier":
        return membership_prefixes(arrival_groups(perm.order, cfg.pipeline.group_size))
    return arrival_prefixes(perm.order)


def run_experiment(cfg: ExperimentConfig, csv_path: str | None = None):
    """Full sweep. Returns (records, summary); writes CSV when a path is
    given (cfg.out by default, pass csv_path="" to skip).

    Each (data seed, method) has its own PrefixMemo over the planned
    arrival orders, so a prefix that several cells share is computed once
    and each cell's wall time is the work it did itself."""
    if csv_path is None:
        csv_path = cfg.out
    t_count = cfg.dataset.task_count
    budget = math.factorial(t_count) if cfg.perms == "all" else int(cfg.perms)
    perms = sample_full_permutations(t_count, budget, cfg.perm_sample_seed)
    chains = {m: [prefix_chain(m, perm, cfg) for perm in perms] for m in cfg.methods}

    spec = make_model_spec(cfg)
    records: list[MetricsRecord] = []
    sink = None  # opened at the first record, so a run that fails before it writes nothing
    try:
        for seed in cfg.seeds:
            tasks = make_tasks(cfg.dataset, seed)
            init = init_params(spec, derive_seed(seed, INIT_STREAM))
            memos = {m: PrefixMemo(chains[m]) for m in cfg.methods}
            for perm in perms:
                for method in cfg.methods:
                    start = time.perf_counter()
                    matrix = _run_method(method, tasks, perm, cfg, spec, seed, init,
                                         memos[method])
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
