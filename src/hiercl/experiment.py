"""Permutation-sweep experiment runner.

For every (seed, full permutation, method) cell this trains the chosen
method on the same tasks from the same initial weights and records mean
accuracy, average forgetting and wall time. Rows land in the CSV in
(seed, permutation, method) order, so reruns are bitwise-identical apart
from the timing column.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .config import DatasetConfig, ExperimentConfig
from .federated import FedConfig, fed_compare_run
from .learners import LearnerConfig, ReplayBuffer, train_seq
from .metrics import (AccuracyMatrix, CsvSink, MetricsRecord, avg_forgetting,
                      mean_accuracy, summarize)
from .model import ModelSpec, accuracy_eval, init_params
from .pipeline import derive_seed, run_pipeline
from .tasks import (Permutation, TaskDataset, gen_permuted_features,
                    gen_sine_tasks, gen_split_gaussians, sample_full_permutations)

_SEQ_STREAM = 1  # seed-stream tag for sequential-baseline task rngs


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
) -> AccuracyMatrix:
    """Plain continual learner over the arrival order, no grouping and no
    consolidation; one accuracy row per finished task."""
    order = list(full_perm)
    params = np.array(init, dtype=np.float64)
    buffer = ReplayBuffer(lcfg.buffer_capacity) if lcfg.kind == "er" else None
    anchors: list = []
    matrix = np.zeros((len(order), len(order)))
    for i, tid in enumerate(order):
        child = lcfg.reseeded(derive_seed(seed, _SEQ_STREAM, i))
        state = train_seq(Permutation((tid,)), tasks, params, child, spec,
                          shared_buffer=buffer, anchors=anchors)
        params, buffer, anchors = state.params, state.buffer, state.anchors
        matrix[i] = [accuracy_eval(params, tasks[t].test, spec) for t in order]
    return AccuracyMatrix(matrix)


def _method_tag(method: str, cfg: ExperimentConfig) -> str:
    if method == "seq":
        return cfg.pipeline.learner.kind
    if method == "hier":
        return f"{cfg.pipeline.learner.kind}+hier"
    return method


def _run_method(method, tasks, perm, cfg, spec, seed, init) -> AccuracyMatrix:
    learner = cfg.pipeline.learner
    if method == "seq":
        return run_baseline_seq(tasks, perm, learner, spec, seed, init)
    if method == "hier":
        return run_pipeline(tasks, perm, replace(cfg.pipeline, seed=seed), spec, init).matrix
    fed = FedConfig(kind=method,
                    prox_mu=cfg.prox_mu if method == "fedprox" else 0.0,
                    aggregate=cfg.fed_aggregate)
    return fed_compare_run(tasks, perm, fed, learner, spec, seed, init)[1]


def run_experiment(cfg: ExperimentConfig, csv_path: str | None = None):
    """Full sweep. Returns (records, summary); writes CSV when a path is
    given (cfg.out by default, pass csv_path="" to skip)."""
    if csv_path is None:
        csv_path = cfg.out
    t_count = cfg.dataset.task_count
    budget = math.factorial(t_count) if cfg.perms == "all" else int(cfg.perms)
    perms = sample_full_permutations(t_count, budget, cfg.perm_sample_seed)

    records: list[MetricsRecord] = []
    sink = CsvSink(csv_path) if csv_path else None
    try:
        spec = make_model_spec(cfg)
        for seed in cfg.seeds:
            tasks = make_tasks(cfg.dataset, seed)
            init = init_params(spec, derive_seed(seed, 0))
            for perm in perms:
                for method in cfg.methods:
                    start = time.perf_counter()
                    matrix = _run_method(method, tasks, perm, cfg, spec, seed, init)
                    wall = time.perf_counter() - start
                    rec = MetricsRecord(
                        _method_tag(method, cfg), seed, perm.label(),
                        mean_accuracy(matrix), avg_forgetting(matrix), wall,
                    )
                    records.append(rec)
                    if sink:
                        sink.write(rec)
    finally:
        if sink:
            sink.close()
    return records, summarize(records)

