"""Acceptance suite: thirteen end-to-end checks of the package's core
claims, from closed-form algebra against iterative oracles up to the full
permutation-sweep benchmark. Each test prints one PASS/FAIL line (echoed
again after the run summary) and asserts the same condition.

Four criteria (3 selection audit, 9 variance reduction, 10 forgetting
reduction, 13 federated comparison) share one session-scoped sweep:
split-Gaussian 5-task stream, all 120 arrival orders, seeds 0..4, four
methods per cell.
"""

import time

import numpy as np
import pytest

from hiercl.config import DatasetConfig, ExperimentConfig
from hiercl.consolidation import taylor_consolidate
from hiercl.curvature import DiagFisher, LowRankFisher, regularized_solve
from hiercl.experiment import make_tasks, run_experiment
from hiercl.learners import LearnerConfig, ReplayBuffer, train_on_task
from hiercl.metrics import CSV_HEADER
from hiercl.model import Batch, ModelSpec, init_params, loss_and_grad
from hiercl.pipeline import PipelineConfig, run_pipeline
from hiercl.tasks import Permutation, gen_sine_tasks
from consolidation_reference import (DenseCurvature, descent_reference_min,
                                     two_step_recursive_check)
from bits import lone_plan
from experiment_reference import sweep_init
from federated_reference import fedprox_train_local
from model_reference import fd_gradient

BENCH_DATASET = DatasetConfig(num_classes=10, classes_per_task=2, dim=8,
                              samples_per_class=40, spread=2.0,
                              val_per_class=20, test_per_class=40)
BENCH_LEARNER = LearnerConfig(kind="er", learning_rate=0.1, epochs_per_task=2,
                              batch_size=32, buffer_capacity=50)
BENCH_SEEDS = (0, 1, 2, 3, 4)


def _bench_pipeline(**overrides) -> PipelineConfig:
    base = dict(learner=BENCH_LEARNER, group_size=2, levels=2, lam=0.3,
                lambda_factor=0.5, eta=1.0, clip=1.0, n_catch=2,
                curvature="diag", audit_draws=1000)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="session")
def benchmark_sweep():
    """One full sweep reused by criteria 3, 9, 10 and 13: 5 seeds x
    120 permutations x (er, er+hier, fedavg, fedprox at mu=0)."""
    cfg = ExperimentConfig(
        dataset=BENCH_DATASET,
        pipeline=_bench_pipeline(),
        perms="all", seeds=BENCH_SEEDS, methods=("seq", "hier", "fedavg", "fedprox"),
        hidden=(16,), prox_mu=0.0,
    )
    start = time.perf_counter()
    records, summary = run_experiment(cfg, csv_path="")
    elapsed = time.perf_counter() - start
    return records, summary, elapsed


def _check(log, num: int, ok: bool, detail: str):
    log(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_matches_descent_oracle(criterion_log):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p = 20
        m = rng.normal(size=(p, p))
        h = (m + m.T) / 2
        mu_min = float(np.linalg.eigvalsh(h)[0])
        lam = max(0.0, -mu_min) + 0.1 + float(rng.uniform(0.05, 2.0))
        curv = DenseCurvature(h)
        w_prev = rng.normal(size=p)
        w_tgt = rng.normal(size=p)
        g = rng.normal(size=p)
        dw = taylor_consolidate(w_prev, w_tgt, g, curv, lam) - w_prev
        ref = descent_reference_min(g, curv, lam, w_tgt - w_prev)
        worst = max(worst, float(np.linalg.norm(dw - ref))
                    / max(float(np.linalg.norm(ref)), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _check(criterion_log, 1, ok,
           f"closed-form update vs descent oracle, 100 dense p=20 instances: "
           f"max rel err {worst:.2e} (tol 1e-6) in {elapsed:.1f}s")


def test_criterion_02_two_step_identity(criterion_log):
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        if i % 2 == 0:
            p = 10
            curvs = []
            for _ in range(2):
                m = rng.normal(size=(p, p))
                curvs.append(DenseCurvature((m + m.T) / 2))
            floor = max(0.0, -min(float(np.linalg.eigvalsh(c.matrix)[0]) for c in curvs))
            lam = floor + 0.1 + float(rng.uniform(0.0, 2.0))
        else:
            p = 60
            curvs = [DiagFisher(rng.uniform(0.0, 3.0, size=p)) for _ in range(2)]
            lam = 0.1 + float(rng.uniform(0.0, 2.0))
        diff = two_step_recursive_check(
            rng.normal(size=p), (rng.normal(size=p), rng.normal(size=p)),
            (rng.normal(size=p), curvs[0]), (rng.normal(size=p), curvs[1]), lam)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _check(criterion_log, 2, ok,
           f"two chained updates vs two-term closed form, 1000 instances: "
           f"max abs diff {worst:.2e} (tol 1e-10) in {elapsed:.1f}s")


def test_criterion_03_selection_audit_zero_violations(criterion_log, benchmark_sweep):
    records, _, _ = benchmark_sweep
    # every hier cell in the sweep already ran its own audit (the pipeline
    # raises on any violation); completing 600 cells means zero violations
    sweep_runs = sum(r.method == "er+hier" for r in records)

    groups = draws = 0
    worst_gap = np.inf
    for seed in BENCH_SEEDS:
        tasks = make_tasks(BENCH_DATASET, seed)
        run = run_pipeline(tasks, Permutation(tuple(range(5))),
                           _bench_pipeline(), ModelSpec((8, 16, 10)),
                           sweep_init(ModelSpec((8, 16, 10)), seed), seed, lone_plan(range(5), 2))
        assert run.audit["violations"] == 0
        assert run.audit["draws"] == 1000
        assert run.audit["gap_vs_mean"] >= 0.0
        groups += run.audit["groups"]
        draws += run.audit["draws"] * run.audit["groups"]
        worst_gap = min(worst_gap, run.audit["gap_vs_mean"])
    ok = sweep_runs == 600
    _check(criterion_log, 3, ok,
           f"selection audit: 0 violations over {sweep_runs} sweep runs and "
           f"{draws} live draws across {groups} groups (min gap vs mean {worst_gap:.4f})")


def test_criterion_04_permutation_accounting(criterion_log):
    lcfg = LearnerConfig(kind="sgd", epochs_per_task=1, batch_size=16)
    spec = ModelSpec((1, 4, 1), task_kind="regression")
    counts = {}
    for n_tasks, k in ((10, 3), (5, 2)):
        tasks = gen_sine_tasks(n_tasks, 0, samples_per_task=12)
        run = run_pipeline(tasks, Permutation(tuple(range(n_tasks))),
                           _bench_pipeline(learner=lcfg, group_size=k,
                                           audit_draws=100),
                           spec, init_params(spec, 0), 0, lone_plan(range(n_tasks), k))
        counts[(n_tasks, k)] = sum(len(g.per_perm_scores) for g in run.group_results)
    ok = counts[(10, 3)] == 36 and counts[(5, 2)] == 8
    _check(criterion_log, 4, ok,
           f"local-training counts: 10 tasks k=3 -> {counts[(10, 3)]} (want 36), "
           f"5 tasks k=2 -> {counts[(5, 2)]} (want 8)")


def test_criterion_05_intra_group_order_invariance(criterion_log):
    lcfg = LearnerConfig(kind="er", learning_rate=0.1, epochs_per_task=2,
                         batch_size=16, buffer_capacity=30)
    spec = ModelSpec((1, 8, 1), task_kind="regression")
    tasks = gen_sine_tasks(6, 3, samples_per_task=24)
    init = init_params(spec, 1)
    cfg = _bench_pipeline(learner=lcfg, group_size=3, audit_draws=100)
    # same groups {0,1,2} and {3,4,5}, shuffled inside each
    run_a, run_b = (run_pipeline(tasks, Permutation(order), cfg, spec, init, 0,
                                 lone_plan(order, 3))
                    for order in ((0, 1, 2, 3, 4, 5), (2, 0, 1, 5, 3, 4)))
    same_levels = all(np.array_equal(a, b) for a, b in
                      zip(run_a.hierarchy.levels, run_b.hierarchy.levels))
    same_shape = len(run_a.hierarchy.levels) == len(run_b.hierarchy.levels)
    ok = same_levels and same_shape
    _check(criterion_log, 5, ok,
           "final hierarchies bitwise-identical across intra-group reorderings: "
           f"{'yes' if ok else 'NO'}")


def test_criterion_06_gradient_matches_finite_differences(criterion_log):
    rng = np.random.default_rng(2)
    specs = (ModelSpec((4, 6, 3)), ModelSpec((3, 5, 2), task_kind="regression"))
    worst = 0.0
    for i in range(100):
        spec = specs[i % 2]
        n = int(rng.integers(1, 9))
        x = rng.normal(size=(n, spec.layer_widths[0]))
        if spec.task_kind == "classification":
            y = rng.integers(0, spec.layer_widths[-1], size=n)
        else:
            y = rng.normal(size=(n, spec.layer_widths[-1]))
        batch = Batch(x, y)
        w = init_params(spec, int(rng.integers(1 << 30))) + 0.05 * rng.normal(
            size=spec.param_count)
        _, g = loss_and_grad(w, batch, spec)
        fd = fd_gradient(lambda v: loss_and_grad(v, batch, spec)[0], w)
        worst = max(worst, float(np.linalg.norm(g - fd))
                    / max(float(np.linalg.norm(fd)), 1e-300))
    ok = worst <= 1e-5
    _check(criterion_log, 6, ok,
           f"analytic vs central-difference gradients, 100 cases: "
           f"max rel err {worst:.2e} (tol 1e-5)")


def test_criterion_07_woodbury_matches_dense(criterion_log):
    rng = np.random.default_rng(17)
    p, r = 50, 5
    worst = 0.0
    for _ in range(100):
        u, _ = np.linalg.qr(rng.normal(size=(p, r)))
        d = rng.uniform(0.05, 5.0, size=r)
        lam = float(rng.uniform(0.1, 3.0))
        rhs = rng.normal(size=p)
        x_lr = regularized_solve(LowRankFisher(u, d), lam, rhs)
        x_dense = regularized_solve(DenseCurvature(u @ np.diag(d) @ u.T), lam, rhs)
        worst = max(worst, float(np.max(np.abs(x_lr - x_dense))))
    ok = worst <= 1e-8
    _check(criterion_log, 7, ok,
           f"Woodbury vs dense solve, p=50 r=5, 100 instances: "
           f"max abs diff {worst:.2e} (tol 1e-8)")


def test_criterion_08_reservoir_inclusion_probability(criterion_log):
    rng = np.random.default_rng(1)
    stream = np.arange(5000, dtype=np.float64).reshape(-1, 1)
    targets = np.zeros(5000)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        buf = ReplayBuffer(50)
        buf.insert_many(stream, targets, rng)
        hits += any(float(v[0]) == 0.0 for v in buf.inputs)
    est = hits / trials
    ok = abs(est - 0.01) <= 0.002
    _check(criterion_log, 8, ok,
           f"first-item inclusion after 5000-item stream into 50 slots: "
           f"{est:.4f} over {trials} trials (want 0.01 +- 0.002)")


def test_criterion_09_permutation_variance_reduction(criterion_log, benchmark_sweep):
    _, summary, elapsed = benchmark_sweep
    er = summary["er"]["perm_std_per_seed"]
    hi = summary["er+hier"]["perm_std_per_seed"]
    wins = sum(hi[s] < er[s] for s in BENCH_SEEDS)
    ok = wins >= 4 and elapsed <= 900.0
    _check(criterion_log, 9, ok,
           f"permutation-std strictly lower with consolidation in {wins}/5 seeds "
           f"(need >=4); sweep took {elapsed:.0f}s (cap 900s)")


def test_criterion_10_forgetting_reduction(criterion_log, benchmark_sweep):
    records, _, _ = benchmark_sweep

    def mean_forget(method, seed):
        vals = [r.avg_forgetting for r in records
                if r.method == method and r.seed == seed]
        return float(np.mean(vals))

    wins = sum(mean_forget("er+hier", s) < mean_forget("er", s) for s in BENCH_SEEDS)
    ok = wins >= 4
    _check(criterion_log, 10, ok,
           f"mean avg_forgetting lower with consolidation in {wins}/5 seeds (need >=4)")


def test_criterion_11_multi_level_smoothing(criterion_log):
    spec = ModelSpec((8, 16, 10))
    wins = 0
    ratios = []
    for seed in BENCH_SEEDS:
        tasks = make_tasks(BENCH_DATASET, seed)
        cfg = _bench_pipeline(levels=3, lam=30.0, lambda_factor=1.0,
                              eta=0.5, clip=None)
        run = run_pipeline(tasks, Permutation(tuple(range(5))), cfg, spec,
                           sweep_init(spec, seed), seed, lone_plan(range(5), 2))
        norms = np.array(run.update_norms)
        mean_l1, mean_l3 = float(norms[:, 0].mean()), float(norms[:, 2].mean())
        wins += mean_l3 < mean_l1
        ratios.append(mean_l3 / mean_l1)
    ok = wins == 5
    _check(criterion_log, 11, ok,
           f"L=3 runs: level-3 mean step norm below level-1 in {wins}/5 runs, "
           f"norm ratios {[round(r, 3) for r in ratios]}")


def test_criterion_12_diagonal_solve_scaling(criterion_log):
    rng = np.random.default_rng(3)

    def best_time(p):
        curv = DiagFisher(rng.uniform(0.1, 2.0, size=p))
        rhs = rng.normal(size=p)
        best = np.inf
        for _ in range(9):
            t0 = time.perf_counter()
            x = regularized_solve(curv, 0.5, rhs)
            best = min(best, time.perf_counter() - t0)
        assert x.shape == (p,) and np.isfinite(x).all()
        return best

    t_p = best_time(1_000_000)
    t_2p = best_time(2_000_000)
    ratio = t_2p / t_p
    ok = ratio <= 3.0
    _check(criterion_log, 12, ok,
           f"elementwise solve at p=1e6 completes; time(2p)/time(p) = {ratio:.2f} "
           f"(cap 3.0, best of 9)")


def test_criterion_13_federated_harness(criterion_log, benchmark_sweep):
    records, summary, _ = benchmark_sweep
    schema_ok = {"fedavg", "fedprox"} <= set(summary)
    for r in records:
        assert tuple(vars(r)) == CSV_HEADER
        assert np.isfinite(r.mean_accuracy) and np.isfinite(r.avg_forgetting)

    # sweep ran fedprox at mu=0: its rows must match fedavg exactly
    cells_a = {(r.seed, r.permutation): (r.mean_accuracy, r.avg_forgetting)
               for r in records if r.method == "fedavg"}
    cells_b = {(r.seed, r.permutation): (r.mean_accuracy, r.avg_forgetting)
               for r in records if r.method == "fedprox"}
    sweep_bitwise = cells_a == cells_b and len(cells_a) == 600

    # and the local trainer itself follows the plain optimizer path at mu=0
    tasks = make_tasks(BENCH_DATASET, 0)
    spec = ModelSpec((8, 16, 10))
    anchor = init_params(spec, 4)
    local_bitwise = all(
        np.array_equal(
            fedprox_train_local(t, anchor, BENCH_LEARNER, 0.0, spec, 7),
            train_on_task(anchor[None], [t], BENCH_LEARNER, spec, [np.random.default_rng(7)])[0])
        for t in tasks[:2])

    fa = summary["fedavg"]["perm_std_per_seed"]
    hi = summary["er+hier"]["perm_std_per_seed"]
    wins = sum(hi[s] <= fa[s] for s in BENCH_SEEDS)
    ok = schema_ok and sweep_bitwise and local_bitwise and wins >= 3
    _check(criterion_log, 13, ok,
           f"federated harness: schema shared, mu=0 proximal run bitwise-equal "
           f"to plain ({'yes' if sweep_bitwise and local_bitwise else 'NO'}), "
           f"consolidated std <= fedavg std in {wins}/5 seeds (need >=3)")
