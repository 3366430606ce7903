"""Tests for the replay buffer and the sequential learners."""

import learners_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from learners_reference import train_on_task as serial_train_on_task
from learners_reference import train_seq as serial_train_seq

from hiercl import learners
from hiercl.learners import (
    LEARNER_KINDS,
    LearnerConfig,
    ReplayBuffer,
    TrainingDiverged,
    settle,
    train_on_task,
    train_seq,
)
from hiercl.model import Batch, ModelSpec, init_params, loss_and_grad, predict
from hiercl.tasks import Permutation, TaskDataset, gen_sine_tasks, gen_split_gaussians

SPEC = ModelSpec((4, 8, 4))


def _tasks(seed=0):
    return gen_split_gaussians(
        num_classes=4, classes_per_task=2, dim=4, samples_per_class=12, spread=3.0, seed=seed
    )


def _insert(buf, x, y, task_id, rng):
    """Offer one item: a one-row insert_many (the same reservoir draw)."""
    buf.insert_many(np.asarray(x)[None], np.asarray(y)[None], task_id, rng)


class _ListReplayBuffer:
    """Reference reservoir: one list entry per stored row, re-stacked on
    every read. The array-backed ReplayBuffer must match it exactly."""

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self.inputs, self.targets, self.task_ids = [], [], []
        self.seen_count = 0

    def insert_many(self, inputs, targets, task_id, rng):
        inputs = np.asarray(inputs)
        n = inputs.shape[0]
        i = 0
        while len(self.inputs) < self.capacity and i < n:
            self.inputs.append(np.array(inputs[i], dtype=np.float64))
            self.targets.append(np.array(targets[i]))
            self.task_ids.append(int(task_id))
            self.seen_count += 1
            i += 1
        if i == n:
            return
        m = n - i
        draws = rng.integers(0, self.seen_count + 1 + np.arange(m))
        for j in np.nonzero(draws < self.capacity)[0]:
            idx = int(draws[j])
            self.inputs[idx] = np.array(inputs[i + j], dtype=np.float64)
            self.targets[idx] = np.array(targets[i + j])
            self.task_ids[idx] = int(task_id)
        self.seen_count += m

    def sample(self, size, rng):
        idx = rng.choice(len(self.inputs), size=size, replace=len(self.inputs) < size)
        return (np.stack([self.inputs[i] for i in idx]),
                np.stack([self.targets[i] for i in idx]),
                np.array([self.task_ids[i] for i in idx]))


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 12),
       sizes=st.lists(st.integers(0, 15), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1),
       sample_size=st.integers(1, 20))
def test_array_buffer_matches_list_reference(capacity, sizes, seed, sample_size):
    # batch sizes around the capacity make some batches straddle the fill boundary
    data = np.random.default_rng(seed)
    buf, ref = ReplayBuffer(capacity), _ListReplayBuffer(capacity)
    rng_buf, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for tid, m in enumerate(sizes):
        x, y = data.normal(size=(m, 3)), data.integers(0, 5, size=m)
        buf.insert_many(x, y, tid, rng_buf)
        ref.insert_many(x, y, tid, rng_ref)
        assert buf.seen_count == ref.seen_count
        assert rng_buf.bit_generator.state == rng_ref.bit_generator.state
    if ref.seen_count:
        assert np.array_equal(buf.inputs, np.stack(ref.inputs))
        assert np.array_equal(buf.targets, np.stack(ref.targets))
        assert np.array_equal(buf.task_ids, np.array(ref.task_ids))
        for got, want in zip(buf.sample(sample_size, rng_buf), ref.sample(sample_size, rng_ref)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng_buf.bit_generator.state == rng_ref.bit_generator.state
    else:
        assert len(buf) == 0


@pytest.mark.parametrize("capacity, m", [(1, 40), (3, 60), (5, 200)])
def test_slot_hit_twice_in_one_call_keeps_the_later_item(capacity, m):
    # one call past the fill phase whose eviction draws land on a slot more
    # than once; rows are numbered so the kept row can be read back
    buf, ref = ReplayBuffer(capacity), _ListReplayBuffer(capacity)
    first = np.zeros((capacity, 1))
    rng_buf, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    buf.insert_many(first, np.zeros(capacity, dtype=np.intp), 0, rng_buf)
    ref.insert_many(first, np.zeros(capacity, dtype=np.intp), 0, rng_ref)
    draws = np.random.default_rng(11).integers(0, capacity + 1 + np.arange(m))
    hit = draws[draws < capacity]
    assert np.bincount(hit).max() >= 2  # the case under test happens
    rows = np.arange(1, m + 1, dtype=np.float64)[:, None]
    buf.insert_many(rows, np.arange(1, m + 1), 1, rng_buf)
    ref.insert_many(rows, np.arange(1, m + 1), 1, rng_ref)
    for slot in range(capacity):
        last = np.flatnonzero(draws == slot)
        assert buf.inputs[slot, 0] == (last[-1] + 1 if last.size else 0.0)
    assert np.array_equal(buf.inputs, np.stack(ref.inputs))
    assert np.array_equal(buf.targets, np.stack(ref.targets))
    assert np.array_equal(buf.task_ids, np.array(ref.task_ids))
    assert rng_buf.bit_generator.state == rng_ref.bit_generator.state


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
        _insert(buf, np.full(2, float(i)), i % 2, i, rng)
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
                _insert(buf, rng.normal(size=2), 0, 0, rng)
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
        _insert(buf, np.zeros(1), 0, 0, rng)
        _insert(buf, np.ones(1), 1, 1, rng)
        hits += int(buf.task_ids[0] == 1)
    assert abs(hits / trials - 0.5) < 0.02


def test_inclusion_probability_tracks_capacity_over_seen():
    rng = np.random.default_rng(3)
    cap, stream, trials = 10, 200, 3000
    hits = 0
    for _ in range(trials):
        buf = ReplayBuffer(cap)
        _insert(buf, np.zeros(1), 0, -1, rng)  # the tracked first item
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
    _insert(twin, np.full(3, 9.0), 2, 9, rng)
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


@pytest.mark.parametrize("field, value", [
    ("grad_clip", 0.0), ("grad_clip", -1.0), ("grad_clip", float("nan")),
    ("momentum", -0.1), ("momentum", 1.0), ("momentum", float("nan")),
    ("weight_decay", -1e-4), ("weight_decay", float("nan")),
    ("ewc_strength", -1.0), ("ewc_strength", float("nan")),
    ("learning_rate", float("inf")), ("learning_rate", float("nan")),
])
def test_learner_config_rejects_bad_optimizer_values(field, value):
    # a negative clip used to flip the step: grad (3, 4) moved the params
    # by +(0.06, 0.08) instead of -(0.3, 0.4), so training climbed the loss
    with pytest.raises(ValueError, match=field):
        LearnerConfig(**{field: value})


def test_learner_config_accepts_boundary_values():
    cfg = LearnerConfig(momentum=0.0, weight_decay=0.0, ewc_strength=0.0, grad_clip=1e-9)
    assert cfg.momentum == 0.0 and cfg.grad_clip == 1e-9


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
    out = train_on_task(w[None], [task], cfg, spec, [np.random.default_rng(0)])[0]
    assert np.array_equal(out, w)


def test_single_sample_step_matches_hand_sgd():
    spec = ModelSpec((2, 3, 2))
    w0 = init_params(spec, 1) + 0.05
    task = TaskDataset(0, Batch(np.array([[0.4, -1.2]]), np.array([1])), None, None)
    cfg = LearnerConfig(
        kind="sgd", learning_rate=0.3, epochs_per_task=2, batch_size=4,
        momentum=0.9, weight_decay=0.0,
    )
    out = train_on_task(w0[None], [task], cfg, spec, [np.random.default_rng(0)])[0]
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
    out = train_on_task(w0[None], [task], cfg, spec, [np.random.default_rng(0)])[0]
    assert np.linalg.norm(out - w0) <= 0.01 + 1e-12


def test_train_seq_deterministic_and_pure():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    init_copy = init.copy()
    cfg = LearnerConfig(kind="er", epochs_per_task=2)
    a = train_seq([Permutation((0, 1))], tasks, init, cfg, SPEC, [11])[0]
    b = train_seq([Permutation((0, 1))], tasks, init, cfg, SPEC, [11])[0]
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(init, init_copy)
    c = train_seq([Permutation((0, 1))], tasks, init, cfg, SPEC, [12])[0]
    assert not np.array_equal(a.params, c.params)


def test_train_seq_reduces_loss_on_easy_task():
    tasks = _tasks()
    init = init_params(SPEC, 3)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=5)
    state = train_seq([Permutation((0,))], tasks, init, cfg, SPEC, [0])[0]
    before, _ = loss_and_grad(init, tasks[0].train, SPEC)
    after, _ = loss_and_grad(state.params, tasks[0].train, SPEC)
    assert after < before


def test_train_seq_er_populates_buffer():
    tasks = _tasks()
    cfg = LearnerConfig(kind="er", buffer_capacity=10, epochs_per_task=1)
    state = train_seq([Permutation((0, 1))], tasks, init_params(SPEC, 0), cfg, SPEC, [0])[0]
    assert state.buffer is not None
    assert len(state.buffer) == 10
    # every sample was offered exactly once
    assert state.buffer.seen_count == tasks[0].train.n + tasks[1].train.n
    assert set(state.buffer.task_ids) <= {0, 1}


def test_train_seq_respects_shared_buffer():
    tasks = _tasks()
    cfg = LearnerConfig(kind="er", buffer_capacity=6, epochs_per_task=1)
    shared = ReplayBuffer(6)
    state = train_seq([Permutation((0,))], tasks, init_params(SPEC, 0), cfg, SPEC, [0],
                      buffers=[shared])[0]
    assert state.buffer is shared
    assert shared.seen_count == tasks[0].train.n


def test_train_seq_ewc_accumulates_anchors():
    tasks = _tasks()
    cfg = LearnerConfig(kind="ewc", epochs_per_task=2, ewc_strength=5.0)
    state = train_seq([Permutation((0, 1))], tasks, init_params(SPEC, 0), cfg, SPEC, [0])[0]
    # task 1's Fisher waits for the caller that continues from the state
    assert len(state.anchors) == 1 and state.pending is tasks[1]
    settled = settle(state, SPEC)
    assert settled.pending is None and len(settled.anchors) == 2
    assert settle(settled, SPEC) is settled
    assert len(state.anchors) == 1 and state.pending is tasks[1]  # never written
    assert settled.anchors[1][0] is state.params
    for w_star, fisher in settled.anchors:
        assert w_star.shape == fisher.shape == (SPEC.param_count,)
        assert np.all(fisher >= 0.0)


def test_ewc_strength_pulls_toward_anchor():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    dists = []
    for strength in (0.0, 200.0):
        cfg = LearnerConfig(kind="ewc", epochs_per_task=3, ewc_strength=strength)
        state = train_seq([Permutation((0, 1))], tasks, init, cfg, SPEC, [0])[0]
        anchor_w = state.anchors[0][0]
        dists.append(float(np.linalg.norm(state.params - anchor_w)))
    assert dists[1] < dists[0]


def _lockstep_problem(kind, activation, task_kind, sizes, rows, seed):
    """Tasks of the given train sizes, `rows` random orderings of them with
    one seed each, and per-ordering incoming buffers, some of them empty
    or absent, so stacked steps split by minibatch shape."""
    rng = np.random.default_rng(seed)
    classify = task_kind == "classification"
    out_dim = int(rng.integers(2, 4)) if classify else int(rng.integers(1, 3))
    spec = ModelSpec((3, int(rng.integers(1, 9)), out_dim),
                     activation=activation, task_kind=task_kind)

    def targets(n):
        return rng.integers(0, out_dim, size=n) if classify else rng.normal(size=(n, out_dim))

    tasks = []
    for tid, n in enumerate(sizes):
        b = Batch(rng.normal(size=(n, 3)), targets(n))
        tasks.append(TaskDataset(tid, b, b, b))
    capacity = int(rng.integers(1, 12))
    cfg = LearnerConfig(kind=kind, learning_rate=0.05, epochs_per_task=2,
                        batch_size=int(rng.integers(1, 9)), buffer_capacity=capacity,
                        ewc_strength=0.5, grad_clip=[None, 0.5][int(rng.integers(2))])
    seeds = [int(s) for s in rng.integers(0, 2**32, size=rows)]
    perms = [Permutation(rng.permutation(len(sizes))) for _ in range(rows)]
    buffers = []
    for _ in range(rows):
        m = int(rng.integers(0, capacity + 4))  # past capacity the offers draw evictions
        buf = None
        if m or rng.random() < 0.5:
            buf = ReplayBuffer(capacity)
            if m:
                buf.insert_many(rng.normal(size=(m, 3)), targets(m), 9, rng)
        buffers.append(buf)
    p = spec.param_count
    anchors = [(rng.normal(size=p), rng.random(p)) for _ in range(int(rng.integers(0, 3)))]
    init = init_params(spec, 0) + 0.3 * rng.normal(size=p)
    return spec, tasks, cfg, seeds, perms, buffers, anchors, init, rng


def _clone(buf):
    return buf.clone() if buf is not None else None


def _same(got, want):
    """Bitwise-equal values; a run that overflowed without a nonfinite
    loss (the loss is checked before each step) holds NaN in the same
    places on both sides."""
    return got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


def _assert_same_divergence(err, serial_run, serial_task_end):
    """A stack stops at the first step where any row's loss goes
    nonfinite; a lone run of the row it names fails there with the same
    message. A row whose losses stay finite but whose params end a task
    nonfinite is stopped by the check after that task; a nonfinite EWC
    Fisher taken from them, by the check before the next task trains.
    The verbatim reference has no such check, so a lone run of that row
    must end the named task with those nonfinite values:
    `serial_task_end(row, task_id)` gives its (params, Fisher or None)."""
    message = str(err)
    if "minibatch loss" in message:
        with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
            serial_run(err.index)
        assert str(info.value) == message
        return
    task_id = int(message.split(":")[0].removeprefix("task "))
    with np.errstate(all="ignore"):
        params, fisher = serial_task_end(err.index, task_id)
    if message.endswith(": params are not finite after training; training diverged"):
        assert not np.isfinite(params).all()
    else:
        assert message.endswith(": EWC Fisher is not finite after training; training diverged")
        assert np.isfinite(params).all() and not np.isfinite(fisher).all()


def _assert_same_buffer(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.seen_count == want.seen_count
        for a, b in ((got.inputs, want.inputs), (got.targets, want.targets),
                     (got.task_ids, want.task_ids)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


_LOCKSTEP_CASES = dict(
    kind=st.sampled_from(LEARNER_KINDS),
    activation=st.sampled_from(("tanh", "relu")),
    task_kind=st.sampled_from(("classification", "regression")),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(**_LOCKSTEP_CASES)
def test_lockstep_train_on_task_matches_serial_rows(kind, activation, task_kind, sizes, rows, seed):
    spec, tasks, cfg, seeds, _, buffers, shared, init, rng = _lockstep_problem(
        kind, activation, task_kind, sizes, rows, seed)
    stack = init + 0.1 * rng.normal(size=(rows, spec.param_count))
    row_tasks = [tasks[int(t)] for t in rng.integers(0, len(tasks), size=rows)]
    own = [(stack + 0.1, rng.random(stack.shape))]  # one (P, p) anchor stack
    anchors = shared + own if kind == "ewc" else None
    prox = (rng.normal(size=spec.param_count), [0.0, 0.3][int(rng.integers(2))])
    rngs = [np.random.default_rng(s) for s in seeds]
    lock_buffers = [_clone(b) for b in buffers]

    def serial_row(i):
        """Row i trained alone: its params, Generator and buffer."""
        ref_rng, ref_buffer = np.random.default_rng(seeds[i]), _clone(buffers[i])
        row_anchors = shared + [(w[i], f[i]) for w, f in own] if kind == "ewc" else None
        want = serial_train_on_task(stack[i], row_tasks[i], cfg, spec, ref_rng,
                                    buffer=ref_buffer, anchors=row_anchors, prox=prox)
        return want, ref_rng, ref_buffer

    try:
        with np.errstate(all="ignore"):
            out = train_on_task(stack, row_tasks, cfg, spec, rngs, buffer=lock_buffers,
                                anchors=anchors, prox=prox)
    except TrainingDiverged as err:
        def serial_task_end(i, task_id):
            assert task_id == row_tasks[i].task_id
            return serial_row(i)[0], None

        _assert_same_divergence(err, serial_row, serial_task_end)
        return
    assert out.shape == stack.shape
    for i in range(rows):
        with np.errstate(all="ignore"):
            want, ref_rng, ref_buffer = serial_row(i)
        assert _same(out[i], want)
        assert rngs[i].bit_generator.state == ref_rng.bit_generator.state
        _assert_same_buffer(lock_buffers[i], ref_buffer)


@settings(max_examples=80, deadline=None)
@given(**_LOCKSTEP_CASES)
def test_lockstep_train_seq_matches_serial_orderings(kind, activation, task_kind, sizes, rows, seed):
    spec, tasks, cfg, seeds, perms, buffers, anchors, init, _ = _lockstep_problem(
        kind, activation, task_kind, sizes, rows, seed)

    def serial_ordering(i):
        return serial_train_seq(perms[i], tasks, init, cfg, spec, seeds[i],
                                shared_buffer=_clone(buffers[i]), anchors=anchors)

    try:
        with np.errstate(all="ignore"):
            states = train_seq(perms, tasks, init, cfg, spec, seeds,
                               buffers=[_clone(b) for b in buffers], anchors=anchors)
    except TrainingDiverged as err:
        def serial_task_end(i, task_id):
            """Ordering i trained alone up to and including that task."""
            order = perms[i].order
            state = serial_train_seq(Permutation(order[: order.index(task_id) + 1]), tasks,
                                     init, cfg, spec, seeds[i],
                                     shared_buffer=_clone(buffers[i]), anchors=anchors)
            return state.params, state.anchors[-1][1] if kind == "ewc" else None

        _assert_same_divergence(err, serial_ordering, serial_task_end)
        return
    assert len(states) == rows
    for i, got in enumerate(states):
        with np.errstate(all="ignore"):
            want = serial_ordering(i)
        assert _same(got.params, want.params)
        _assert_same_buffer(got.buffer, want.buffer)
        # the last task's Fisher is estimated only when the state is settled
        last = tasks[perms[i].order[-1]]
        assert got.pending is (last if kind == "ewc" else None)
        try:
            with np.errstate(all="ignore"):
                got = settle(got, spec)
        except TrainingDiverged as err:
            assert str(err) == (f"task {last.task_id}: EWC Fisher is not finite "
                                f"after training; training diverged")
            assert np.isfinite(got.params).all()
            assert not np.isfinite(want.anchors[-1][1]).all()
            want.anchors.pop()
        assert len(got.anchors) == len(want.anchors)
        for (w_got, f_got), (w_want, f_want) in zip(got.anchors, want.anchors):
            assert _same(w_got, w_want) and _same(f_got, f_want)


def _run_keeping_rngs(module, run):
    """run() while `module.train_on_task` records its rng argument: the
    result and the Generator(s) of the last training call."""
    seen = []
    original = module.train_on_task

    def recording(params, task, cfg, spec, rng, *args, **kwargs):
        seen.append(rng)
        return original(params, task, cfg, spec, rng, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "train_on_task", recording)
        return run(), seen[-1]


@settings(max_examples=80, deadline=None)
@given(**_LOCKSTEP_CASES)
def test_train_seq_from_stacked_starts_and_row_anchors_matches_lone_runs(
        kind, activation, task_kind, sizes, rows, seed):
    # each ordering starts from its own params and carries its own anchor
    # list (the shared pairs, then pairs of its own), as the seq trie's
    # rows do; the lockstep call takes the lists stacked into (P, p) pairs
    spec, tasks, cfg, seeds, perms, buffers, shared, init, rng = _lockstep_problem(
        kind, activation, task_kind, sizes, rows, seed)
    p = spec.param_count
    starts = init + 0.1 * rng.normal(size=(rows, p))
    m = int(rng.integers(0, 3))
    own = [[(starts[i] + 0.1 * rng.normal(size=p), rng.random(p)) for _ in range(m)]
           for i in range(rows)]
    row_anchors = [shared + pairs for pairs in own]
    # the j-th pair of every ordering stacked into one (P, p) pair
    anchors = shared + [tuple(map(np.stack, zip(*column))) for column in zip(*own)]

    def serial_ordering(i, order=None):
        perm = perms[i] if order is None else Permutation(order)
        return _run_keeping_rngs(learners_reference, lambda: serial_train_seq(
            perm, tasks, starts[i], cfg, spec, seeds[i],
            shared_buffer=_clone(buffers[i]), anchors=row_anchors[i]))

    try:
        with np.errstate(all="ignore"):
            states, rngs = _run_keeping_rngs(learners, lambda: train_seq(
                perms, tasks, starts, cfg, spec, seeds,
                buffers=[_clone(b) for b in buffers], anchors=anchors))
    except TrainingDiverged as err:
        def serial_task_end(i, task_id):
            order = perms[i].order
            state = serial_ordering(i, order[: order.index(task_id) + 1])[0]
            return state.params, state.anchors[-1][1] if kind == "ewc" else None

        _assert_same_divergence(err, lambda i: serial_ordering(i), serial_task_end)
        return
    assert len(states) == len(rngs) == rows
    for i, got in enumerate(states):
        with np.errstate(all="ignore"):
            want, ref_rng = serial_ordering(i)
        assert _same(got.params, want.params)
        _assert_same_buffer(got.buffer, want.buffer)
        assert rngs[i].bit_generator.state == ref_rng.bit_generator.state
        try:
            with np.errstate(all="ignore"):
                got = settle(got, spec)
        except TrainingDiverged:
            assert not np.isfinite(want.anchors[-1][1]).all()
            want.anchors.pop()
        assert len(got.anchors) == len(want.anchors)
        for (w_got, f_got), (w_want, f_want) in zip(got.anchors, want.anchors):
            assert w_got.shape == w_want.shape and _same(w_got, w_want) and _same(f_got, f_want)


def test_train_seq_needs_one_stacked_start_per_ordering():
    perms = [Permutation((0,)), Permutation((1,))]
    starts = np.stack([init_params(SPEC, 0)] * 3)
    with pytest.raises(ValueError, match="one row per ordering, got 3 rows for 2"):
        train_seq(perms, _tasks(), starts, LearnerConfig(), SPEC, [0, 1])


def test_lockstep_orderings_must_share_settings_and_length():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=1)
    perms = [Permutation((0, 1)), Permutation((1, 0))]
    with pytest.raises(ValueError, match="equal length"):
        train_seq([Permutation((0, 1)), Permutation((1,))], tasks, init, cfg, SPEC, [0, 1])
    with pytest.raises(ValueError, match="one seed"):
        train_seq(perms, tasks, init, cfg, SPEC, [0])


def test_train_on_task_rejects_a_lone_vector():
    w = init_params(SPEC, 0)
    with pytest.raises(ValueError, match=r"\(P, p\) stack, got shape \(%d,\)" % w.size):
        train_on_task(w, _tasks()[0], LearnerConfig(), SPEC, np.random.default_rng(0))


def test_lockstep_divergence_names_the_first_diverged_row():
    # rows 1 and 2 start with huge weights, so their first loss overflows
    spec = ModelSpec((1, 16, 1), task_kind="regression")
    tasks = gen_sine_tasks(2, 0)
    stack = np.repeat(init_params(spec, 0)[None], 3, axis=0)
    stack[1:] = 1e200
    rngs = [np.random.default_rng(s) for s in range(3)]
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train_on_task(stack, [tasks[0], tasks[1], tasks[0]], LearnerConfig(), spec, rngs)
    assert info.value.index == 1
    assert str(info.value).startswith("task 1: epoch 0, step 0: minibatch loss is inf")


def test_train_on_task_rejects_params_that_end_the_task_nonfinite():
    # one step per task and a learning rate whose update overflows: the
    # loss before the step is finite, the params after it are not. Row 0
    # starts where its gradient is zero, so it does not move.
    spec = ModelSpec((1, 4, 1), task_kind="regression")
    w = init_params(spec, 0)
    still = _zero_grad_task(spec, w, n=8)
    moving = gen_sine_tasks(2, 0, samples_per_task=8)[1]
    cfg = LearnerConfig(learning_rate=1e308, epochs_per_task=1, batch_size=8,
                        weight_decay=0.0)
    rngs = [np.random.default_rng(s) for s in range(2)]
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train_on_task(np.stack([w, w]), [still, moving], cfg, spec, rngs)
    assert info.value.index == 1
    assert str(info.value) == "task 1: params are not finite after training; training diverged"


def _nonfinite_fisher_problem():
    """Ordering 4 of this problem keeps finite losses, but its weights end
    its one task near 3e168, so its mean squared per-sample gradients
    overflow."""
    return _lockstep_problem("ewc", "relu", "regression", [20], 5, 205)


def test_train_seq_rejects_an_ordering_whose_ewc_fisher_is_nonfinite():
    # a 1-task ordering's Fisher is estimated when its state is settled
    spec, tasks, cfg, seeds, perms, buffers, anchors, init, _ = _nonfinite_fisher_problem()
    with np.errstate(all="ignore"):
        states = train_seq(perms, tasks, init, cfg, spec, seeds,
                           buffers=[_clone(b) for b in buffers], anchors=anchors)
    failed = []
    for i, state in enumerate(states):
        try:
            with np.errstate(all="ignore"):
                settle(state, spec)
        except TrainingDiverged as err:
            failed.append((i, err.index, str(err)))
    assert failed == [(4, 0, "task 0: EWC Fisher is not finite after training; "
                             "training diverged")]


def test_train_seq_rejects_a_nonfinite_fisher_before_the_next_task(monkeypatch):
    # ordering 4 again, now followed by a second task: task 0's Fisher is
    # estimated inside train_seq, before task 1 trains, and is nonfinite
    spec, tasks, cfg, seeds, perms, buffers, anchors, init, _ = _nonfinite_fisher_problem()
    first = tasks[0]
    tasks = [first, TaskDataset(1, first.train, first.val, first.test)]
    trained = []

    def counting(params, task, *args, **kwargs):
        trained.append([t.task_id for t in task])
        return train_on_task(params, task, *args, **kwargs)

    monkeypatch.setattr("hiercl.learners.train_on_task", counting)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train_seq([Permutation((0, 1))], tasks, init, cfg, spec, [seeds[4]],
                  buffers=[_clone(buffers[4])], anchors=anchors)
    assert info.value.index == 0
    assert str(info.value) == "task 0: EWC Fisher is not finite after training; training diverged"
    assert trained == [[0]]
