"""Tests for the federated-averaging baselines."""

import numpy as np
import pytest
from experiment_reference import sweep_init
from federated_reference import fedprox_train_local

from hiercl import federated
from hiercl.config import ExperimentConfig
from hiercl.experiment import _run_method
from hiercl.federated import fed_compare_run, fedavg_aggregate
from hiercl.learners import LearnerConfig, train_on_task
from hiercl.model import ModelSpec, init_params
from hiercl.pipeline import PipelineConfig, derive_seed
from hiercl.tasks import Permutation, gen_split_gaussians

SPEC = ModelSpec((4, 6, 6))


def _tasks(seed=0):
    return gen_split_gaussians(
        num_classes=6, classes_per_task=2, dim=4, samples_per_class=10,
        spread=3.0, seed=seed, val_per_class=4, test_per_class=8,
    )


def test_aggregate_hand_values():
    assert np.array_equal(
        fedavg_aggregate([np.array([0.0, 0.0]), np.array([2.0, 4.0])]),
        np.array([1.0, 2.0]),
    )
    same = np.array([1.5, -2.0])
    assert np.array_equal(fedavg_aggregate([same, same, same]), same)


def test_aggregate_validation_and_normalization():
    with pytest.raises(ValueError):
        fedavg_aggregate([])


def test_aggregate_permutation_invariant_with_uniform_weights():
    rng = np.random.default_rng(0)
    models = [rng.normal(size=5) for _ in range(4)]
    a = fedavg_aggregate(models)
    b = fedavg_aggregate(models[::-1])
    assert np.max(np.abs(a - b)) < 1e-15


def test_prox_mu_zero_is_bitwise_plain_training():
    tasks = _tasks()
    anchor = init_params(SPEC, 0)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=2)
    prox = fedprox_train_local(tasks[0], anchor, cfg, 0.0, SPEC, 7)
    plain = train_on_task(anchor[None], [tasks[0]], cfg, SPEC, [np.random.default_rng(7)],
                          buffer=None)[0]
    assert np.array_equal(prox, plain)


def test_prox_pull_is_monotone_in_mu():
    tasks = _tasks()
    anchor = init_params(SPEC, 1)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=3)
    dists = []
    for mu in (0.0, 0.1, 1.0, 10.0):
        out = fedprox_train_local(tasks[0], anchor, cfg, mu, SPEC, 3)
        dists.append(float(np.linalg.norm(out - anchor)))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0]


def test_fedprox_pull_matches_the_proximal_gradient_within_rounding(monkeypatch):
    # each depth's clients train with the pull (mu, mu*anchor), the anchor
    # being their parents' global weights, and at mu = 0 with none; the
    # pulled gradient mu*w - mu*anchor is mu*(w - anchor) up to two ulps of
    # mu*(|w| + |anchor|), also where w is close to the anchor
    seen = []

    def recording(params, task, cfg, spec, rng, buffer=None, pull=None):
        seen.append((np.array(params), pull))
        return train_on_task(params, task, cfg, spec, rng, buffer, pull)

    monkeypatch.setattr(federated, "train_on_task", recording)
    tasks, cfg = _tasks(), LearnerConfig(kind="sgd", epochs_per_task=1)
    init, perm = sweep_init(SPEC, 5), Permutation((0, 1, 2))
    fed_compare_run(tasks, perm, 0.0, cfg, SPEC, 5, init=init)
    assert [pull for _, pull in seen] == [None] * 3
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(0)
    for mu in (1e-3, 0.1, 0.7, 30.0):
        seen.clear()
        fed_compare_run(tasks, perm, mu, cfg, SPEC, 5, init=init)
        assert len(seen) == 3
        for anchor, (a, b) in seen:
            assert a == mu and np.array_equal(b, mu * anchor)
            for w in (anchor + rng.normal(size=anchor.shape) * 10.0 ** rng.uniform(-3, 3),
                      anchor * (1 + 1e-9 * rng.normal(size=anchor.shape))):
                err = np.abs((a * w - b) - mu * (w - anchor))
                assert np.all(err <= 2 * eps * mu * (np.abs(w) + np.abs(anchor)))


def test_fed_compare_run_single_task_global_equals_local():
    tasks = _tasks()[:1]
    cfg = LearnerConfig(kind="sgd", epochs_per_task=1)
    init = sweep_init(SPEC)
    global_w, matrix = fed_compare_run(tasks, Permutation((0,)), 0.0, cfg, SPEC, 0, init=init)
    local = fedprox_train_local(tasks[0], init, cfg, 0.0, SPEC, derive_seed(0, 2, 0))
    assert np.array_equal(global_w, local)
    assert matrix.values.shape == (1, 1)


def test_fed_compare_run_running_average_identity():
    tasks = _tasks()
    cfg = LearnerConfig(kind="sgd", epochs_per_task=1)
    init = sweep_init(SPEC, 4)
    perm = Permutation((2, 0, 1))
    global_w, matrix = fed_compare_run(tasks, perm, 0.0, cfg, SPEC, 4, init=init)
    # replay the protocol by hand
    locals_ = []
    g = init.copy()
    for i, tid in enumerate(perm):
        locals_.append(fedprox_train_local(tasks[tid], g, cfg, 0.0, SPEC, derive_seed(4, 2, i)))
        g = fedavg_aggregate(locals_)
    assert np.array_equal(global_w, g)
    assert matrix.values.shape == (3, 3)
    with pytest.raises(ValueError):
        fed_compare_run(tasks, Permutation((0, 1)), 0.0, cfg, SPEC, 0, init)


def test_fedavg_and_fedprox_mu_zero_agree_end_to_end():
    # the sweep runs fedavg at mu = 0 whatever run.prox_mu says, and
    # fedprox at run.prox_mu
    tasks = _tasks()
    # two epochs: after the first step the weights leave the prox anchor,
    # so a nonzero mu actually changes the trajectory
    lcfg = LearnerConfig(kind="sgd", epochs_per_task=2)
    init = sweep_init(SPEC, 5)
    perm = Permutation((0, 1, 2))

    def cell(method, prox_mu):
        cfg = ExperimentConfig(pipeline=PipelineConfig(learner=lcfg), prox_mu=prox_mu)
        return _run_method(method, tasks, perm, cfg, SPEC, 5, init, None).values

    plain = fed_compare_run(tasks, perm, 0.0, lcfg, SPEC, 5, init=init)[1].values
    assert np.array_equal(cell("fedavg", 5.0), plain)
    assert np.array_equal(cell("fedprox", 0.0), plain)
    tight = fed_compare_run(tasks, perm, 5.0, lcfg, SPEC, 5, init=init)[1].values
    assert np.array_equal(cell("fedprox", 5.0), tight)
    assert not np.array_equal(tight, plain)
