"""Tests for the replay buffer and the sequential learners."""

import numpy as np
import pytest

from hiercl.learners import (
    LearnerConfig,
    ReplayBuffer,
    ewc_penalty,
    train_on_task,
    train_seq,
)
from hiercl.model import Batch, ModelSpec, init_params, loss_and_grad, predict
from hiercl.tasks import Permutation, TaskDataset, gen_split_gaussians

SPEC = ModelSpec((4, 8, 4))


def _tasks(seed=0):
    return gen_split_gaussians(
        num_classes=4, classes_per_task=2, dim=4, samples_per_class=12, spread=3.0, seed=seed
    )


def test_buffer_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
    buf = ReplayBuffer(3)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        buf.as_batch()


def test_buffer_fill_phase_keeps_everything():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(5)
    for i in range(5):
        buf.insert(np.full(2, float(i)), i % 2, i, rng)
    assert len(buf) == 5
    assert buf.seen_count == 5
    got = sorted(float(x[0]) for x in buf.inputs)
    assert got == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_buffer_never_exceeds_capacity():
    rng = np.random.default_rng(1)
    for trial in range(20):
        buf = ReplayBuffer(int(rng.integers(1, 8)))
        n = int(rng.integers(1, 120))
        offered = 0
        while offered < n:
            if rng.random() < 0.5:
                buf.insert(rng.normal(size=2), 0, 0, rng)
                offered += 1
            else:
                m = int(rng.integers(1, 9))
                buf.insert_many(rng.normal(size=(m, 2)), np.zeros(m, dtype=np.intp), 1, rng)
                offered += m
        assert len(buf) <= buf.capacity
        assert buf.seen_count == offered


def test_capacity_one_coin_flip():
    # second offer should land with probability 1/2
    rng = np.random.default_rng(2)
    hits = 0
    trials = 5000
    for _ in range(trials):
        buf = ReplayBuffer(1)
        buf.insert(np.zeros(1), 0, 0, rng)
        buf.insert(np.ones(1), 1, 1, rng)
        hits += int(buf.task_ids[0] == 1)
    assert abs(hits / trials - 0.5) < 0.02


def test_inclusion_probability_tracks_capacity_over_seen():
    rng = np.random.default_rng(3)
    cap, stream, trials = 10, 200, 3000
    hits = 0
    for _ in range(trials):
        buf = ReplayBuffer(cap)
        buf.insert(np.zeros(1), 0, -1, rng)  # the tracked first item
        buf.insert_many(np.ones((stream - 1, 1)), np.zeros(stream - 1, dtype=np.intp), 0, rng)
        hits += int(-1 in buf.task_ids)
    assert abs(hits / trials - cap / stream) < 0.015


def test_sample_provenance_and_shapes():
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(8)
    buf.insert_many(rng.normal(size=(6, 3)), np.arange(6) % 2, 7, rng)
    xs, ys, ids = buf.sample(4, rng)
    assert xs.shape == (4, 3) and ys.shape == (4,) and ids.shape == (4,)
    assert set(ids) == {7}
    batch = buf.as_batch()
    assert batch.n == 6


def test_buffer_clone_is_independent():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(4)
    buf.insert_many(np.eye(3), np.arange(3), 0, rng)
    twin = buf.clone()
    twin.insert(np.full(3, 9.0), 2, 9, rng)
    assert buf.seen_count == 3
    assert 9 not in buf.task_ids
    twin.inputs[0][:] = -1.0
    assert not np.array_equal(buf.inputs[0], twin.inputs[0])


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(kind="adam")
    with pytest.raises(ValueError):
        LearnerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(epochs_per_task=0)
    with pytest.raises(ValueError):
        LearnerConfig(kind="er", buffer_capacity=0)
    assert LearnerConfig().reseeded(5).seed == 5


def test_ewc_penalty_hand_values():
    w = np.array([1.0, 2.0])
    anchor = (np.zeros(2), np.ones(2))
    # (2/2) * (1*1^2 + 1*2^2) = 5
    assert ewc_penalty(w, [anchor], 2.0) == 5.0
    assert ewc_penalty(np.zeros(2), [anchor], 2.0) == 0.0
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.normal(size=4)
        anchors = [(rng.normal(size=4), rng.random(4)) for _ in range(3)]
        assert ewc_penalty(p, anchors, rng.random() + 0.1) >= 0.0


def _zero_grad_task(spec, w, n=6, seed=0):
    """Regression samples whose targets equal the model's own outputs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, spec.input_dim))
    y = predict(w, x, spec)
    b = Batch(x, y)
    return TaskDataset(0, b, b, b)


def test_zero_gradient_start_is_a_fixed_point():
    spec = ModelSpec((3, 5, 2), task_kind="regression")
    w = init_params(spec, 0) + 0.3
    task = _zero_grad_task(spec, w)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=1, weight_decay=0.0)
    out = train_on_task(w, task, cfg, spec, np.random.default_rng(0))
    assert np.array_equal(out, w)


def test_single_sample_step_matches_hand_sgd():
    spec = ModelSpec((2, 3, 2))
    w0 = init_params(spec, 1) + 0.05
    task = TaskDataset(0, Batch(np.array([[0.4, -1.2]]), np.array([1])), None, None)
    cfg = LearnerConfig(
        kind="sgd", learning_rate=0.3, epochs_per_task=2, batch_size=4,
        momentum=0.9, weight_decay=0.0,
    )
    out = train_on_task(w0, task, cfg, spec, np.random.default_rng(0))
    _, g0 = loss_and_grad(w0, task.train, spec)
    v1 = -0.3 * g0
    w1 = w0 + v1
    _, g1 = loss_and_grad(w1, task.train, spec)
    w2 = w1 + (0.9 * v1 - 0.3 * g1)
    assert np.array_equal(out, w2)


def test_grad_clip_bounds_first_step():
    spec = ModelSpec((2, 3, 2))
    w0 = init_params(spec, 2)
    # large targets force a large gradient
    task = TaskDataset(0, Batch(np.array([[3.0, -3.0]]), np.array([0])), None, None)
    cfg = LearnerConfig(
        kind="sgd", learning_rate=1.0, epochs_per_task=1, momentum=0.0,
        weight_decay=0.0, grad_clip=0.01,
    )
    out = train_on_task(w0, task, cfg, spec, np.random.default_rng(0))
    assert np.linalg.norm(out - w0) <= 0.01 + 1e-12


def test_train_seq_deterministic_and_pure():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    init_copy = init.copy()
    cfg = LearnerConfig(kind="er", epochs_per_task=2, seed=11)
    a = train_seq(Permutation((0, 1)), tasks, init, cfg, SPEC)
    b = train_seq(Permutation((0, 1)), tasks, init, cfg, SPEC)
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(init, init_copy)
    c = train_seq(Permutation((0, 1)), tasks, init, cfg.reseeded(12), SPEC)
    assert not np.array_equal(a.params, c.params)


def test_train_seq_reduces_loss_on_easy_task():
    tasks = _tasks()
    init = init_params(SPEC, 3)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=5, seed=0)
    state = train_seq(Permutation((0,)), tasks, init, cfg, SPEC)
    before, _ = loss_and_grad(init, tasks[0].train, SPEC)
    after, _ = loss_and_grad(state.params, tasks[0].train, SPEC)
    assert after < before


def test_train_seq_er_populates_buffer():
    tasks = _tasks()
    cfg = LearnerConfig(kind="er", buffer_capacity=10, epochs_per_task=1, seed=0)
    state = train_seq(Permutation((0, 1)), tasks, init_params(SPEC, 0), cfg, SPEC)
    assert state.buffer is not None
    assert len(state.buffer) == 10
    # every sample was offered exactly once
    assert state.buffer.seen_count == tasks[0].train.n + tasks[1].train.n
    assert set(state.buffer.task_ids) <= {0, 1}


def test_train_seq_respects_shared_buffer():
    tasks = _tasks()
    cfg = LearnerConfig(kind="er", buffer_capacity=6, epochs_per_task=1, seed=0)
    shared = ReplayBuffer(6)
    state = train_seq(Permutation((0,)), tasks, init_params(SPEC, 0), cfg, SPEC, shared_buffer=shared)
    assert state.buffer is shared
    assert shared.seen_count == tasks[0].train.n


def test_train_seq_ewc_accumulates_anchors():
    tasks = _tasks()
    cfg = LearnerConfig(kind="ewc", epochs_per_task=2, ewc_strength=5.0, seed=0)
    state = train_seq(Permutation((0, 1)), tasks, init_params(SPEC, 0), cfg, SPEC)
    assert len(state.anchors) == 2
    for w_star, fisher in state.anchors:
        assert w_star.shape == fisher.shape == (SPEC.param_count,)
        assert np.all(fisher >= 0.0)


def test_ewc_strength_pulls_toward_anchor():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    dists = []
    for strength in (0.0, 200.0):
        cfg = LearnerConfig(kind="ewc", epochs_per_task=3, ewc_strength=strength, seed=0)
        state = train_seq(Permutation((0, 1)), tasks, init, cfg, SPEC)
        anchor_w = state.anchors[0][0]
        dists.append(float(np.linalg.norm(state.params - anchor_w)))
    assert dists[1] < dists[0]
