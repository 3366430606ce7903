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
from .consolidation import descent_reference_min, taylor_consolidate, two_step_recursive_check
from .curvature import CurvatureEstimate
from .federated import FedConfig, fed_compare_run
from .learners import LearnerConfig, ReplayBuffer, train_seq
from .metrics import (AccuracyMatrix, CsvSink, MetricsRecord, avg_forgetting,
                      mean_accuracy, summarize)
from .model import ModelSpec, accuracy_eval, init_params
from .pipeline import PipelineConfig, derive_seed, run_pipeline
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


def run_property_audits(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Quick self-checks behind the `audit` CLI command: the closed-form
    update against a descent reference, the two-step identity, and the
    selection audit on a small live run. Returns (name, passed, detail)."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(25):
        p = 15
        m = rng.normal(size=(p, p))
        h = (m + m.T) / 2
        lam = max(0.0, -float(np.linalg.eigvalsh(h)[0])) + 0.5
        curv = CurvatureEstimate("dense", matrix=h)
        w_prev = rng.normal(size=p)
        w_tgt = rng.normal(size=p)
        g = rng.normal(size=p)
        dw = taylor_consolidate(w_prev, w_tgt, g, curv, lam) - w_prev
        ref = descent_reference_min(g, curv, lam, w_tgt - w_prev)
        worst = max(worst, float(np.linalg.norm(dw - ref) / max(np.linalg.norm(ref), 1e-12)))
    results.append(("closed-form vs descent reference", worst <= 1e-6,
                    f"max rel err {worst:.2e}"))

    worst = 0.0
    for _ in range(200):
        p = 12
        mats = []
        for _ in range(2):
            m = rng.normal(size=(p, p))
            mats.append(CurvatureEstimate("dense", matrix=(m + m.T) / 2))
        lam = float(rng.uniform(0.5, 5.0)) + max(
            0.0, -min(np.linalg.eigvalsh(c.matrix)[0] for c in mats))
        diff = two_step_recursive_check(
            rng.normal(size=p), (rng.normal(size=p), rng.normal(size=p)),
            (rng.normal(size=p), mats[0]), (rng.normal(size=p), mats[1]), lam)
        worst = max(worst, diff)
    results.append(("two-step recursive identity", worst <= 1e-10,
                    f"max abs diff {worst:.2e}"))

    cfg = ExperimentConfig(
        dataset=DatasetConfig(num_classes=4, classes_per_task=1, dim=4,
                              samples_per_class=12, val_per_class=8, test_per_class=8),
        pipeline=PipelineConfig(learner=LearnerConfig(kind="sgd", epochs_per_task=1),
                                group_size=2, levels=2, seed=seed),
        seeds=(seed,), methods=("hier",), hidden=(8,),
    )
    tasks = make_tasks(cfg.dataset, seed)
    spec = make_model_spec(cfg)
    perm = Permutation(tuple(range(cfg.dataset.task_count)))
    try:
        run = run_pipeline(tasks, perm, cfg.pipeline, spec)
        ok = run.audit["violations"] == 0 and run.audit["gap_vs_mean"] >= 0
        detail = f"gap vs mean {run.audit['gap_vs_mean']:.4f}"
    except Exception as exc:  # audit raises on violation
        ok, detail = False, str(exc)
    results.append(("selection audit on a live run", ok, detail))
    return results
