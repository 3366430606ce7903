"""Tests for the replay buffer and the sequential learners."""

from types import SimpleNamespace

import learners_reference
import numpy as np
import pytest
from bits import same_bits
from hypothesis import given, settings
from hypothesis import strategies as st
from learners_reference import ewc_penalty_grad
from learners_reference import train_on_task as serial_train_on_task
from learners_reference import train_seq as serial_train_seq

from hiercl import curvature, learners
from hiercl.learners import (
    LEARNER_KINDS,
    LearnerConfig,
    LearnerState,
    ReplayBuffer,
    ReplayCounts,
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


def _insert(buf, x, y, rng):
    """Offer one item: a one-row insert_many (the same reservoir draw)."""
    buf.insert_many(np.asarray(x)[None], np.asarray(y)[None], rng)


class _ListReplayBuffer:
    """Reference reservoir: one list entry per stored row, re-stacked on
    every read. The array-backed ReplayBuffer must match it exactly."""

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self.inputs, self.targets = [], []
        self.seen_count = 0

    def insert_many(self, inputs, targets, rng):
        inputs = np.asarray(inputs)
        n = inputs.shape[0]
        i = 0
        while len(self.inputs) < self.capacity and i < n:
            self.inputs.append(np.array(inputs[i], dtype=np.float64))
            self.targets.append(np.array(targets[i]))
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
        self.seen_count += m

    def sample(self, size, rng):
        idx = rng.choice(len(self.inputs), size=size, replace=len(self.inputs) < size)
        return (np.stack([self.inputs[i] for i in idx]),
                np.stack([self.targets[i] for i in idx]))


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 12),
       sizes=st.lists(st.integers(0, 15), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1),
       sample_size=st.integers(1, 20))
def test_array_buffer_matches_list_reference(capacity, sizes, seed, sample_size):
    # batch sizes around the capacity make some batches straddle the fill
    # boundary; a counts-only buffer makes the same draws and keeps the
    # same counts
    data = np.random.default_rng(seed)
    buf, ref = ReplayBuffer(capacity), _ListReplayBuffer(capacity)
    counts = ReplayCounts(ReplayBuffer(capacity))
    rng_buf, rng_ref, rng_counts = (np.random.default_rng(seed) for _ in range(3))
    for m in sizes:
        x, y = data.normal(size=(m, 3)), data.integers(0, 5, size=m)
        buf.insert_many(x, y, rng_buf)
        ref.insert_many(x, y, rng_ref)
        counts.insert_many(x, y, rng_counts)
        assert buf.seen_count == ref.seen_count == counts.seen_count
        assert len(counts) == len(buf)
        assert (rng_buf.bit_generator.state == rng_ref.bit_generator.state
                == rng_counts.bit_generator.state)
    if ref.seen_count:
        assert np.array_equal(buf.inputs, np.stack(ref.inputs))
        assert np.array_equal(buf.targets, np.stack(ref.targets))
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
    buf.insert_many(first, np.zeros(capacity, dtype=np.intp), rng_buf)
    ref.insert_many(first, np.zeros(capacity, dtype=np.intp), rng_ref)
    draws = np.random.default_rng(11).integers(0, capacity + 1 + np.arange(m))
    hit = draws[draws < capacity]
    assert np.bincount(hit).max() >= 2  # the case under test happens
    rows = np.arange(1, m + 1, dtype=np.float64)[:, None]
    buf.insert_many(rows, np.arange(1, m + 1), rng_buf)
    ref.insert_many(rows, np.arange(1, m + 1), rng_ref)
    for slot in range(capacity):
        last = np.flatnonzero(draws == slot)
        assert buf.inputs[slot, 0] == (last[-1] + 1 if last.size else 0.0)
    assert np.array_equal(buf.inputs, np.stack(ref.inputs))
    assert np.array_equal(buf.targets, np.stack(ref.targets))
    assert rng_buf.bit_generator.state == rng_ref.bit_generator.state


def test_buffer_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
    buf = ReplayBuffer(3)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        buf.as_batch()
    # a counts-only buffer holds no items, however many it counts
    buf.insert_many(np.eye(3), np.arange(3), np.random.default_rng(0))
    counts = ReplayCounts(buf).clone()
    assert type(counts) is ReplayCounts and (len(counts), counts.seen_count) == (3, 3)
    with pytest.raises(ValueError, match="^a counts-only buffer holds no items$"):
        counts.sample(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^a counts-only buffer holds no items$"):
        counts.as_batch()


def test_an_offer_inserts_rows_in_order_and_a_counts_only_offer_reads_none():
    # past the fill phase, so the eviction draws decide which rows stay
    batch = Batch(np.arange(20.0).reshape(10, 2), np.arange(10))
    order = np.random.default_rng(0).permutation(10)
    buf, ref, counts = ReplayBuffer(4), ReplayBuffer(4), ReplayCounts(ReplayBuffer(4))
    rng_buf, rng_ref, rng_counts = (np.random.default_rng(1) for _ in range(3))
    buf.offer(batch, order, rng_buf)
    ref.insert_many(batch.inputs[order], batch.targets[order], rng_ref)
    counts.offer(None, order, rng_counts)  # only the order's length is read
    assert same_bits(buf.inputs, ref.inputs) and same_bits(buf.targets, ref.targets)
    assert (len(counts), counts.seen_count) == (len(buf), buf.seen_count) == (4, 10)
    assert (rng_buf.bit_generator.state == rng_ref.bit_generator.state
            == rng_counts.bit_generator.state)


def test_buffer_fill_phase_keeps_everything():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(5)
    for i in range(5):
        _insert(buf, np.full(2, float(i)), i % 2, rng)
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
                _insert(buf, rng.normal(size=2), 0, rng)
                offered += 1
            else:
                m = int(rng.integers(1, 9))
                buf.insert_many(rng.normal(size=(m, 2)), np.zeros(m, dtype=np.intp), rng)
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
        _insert(buf, np.zeros(1), 0, rng)
        _insert(buf, np.ones(1), 1, rng)
        hits += int(buf.inputs[0, 0] == 1.0)
    assert abs(hits / trials - 0.5) < 0.02


def test_inclusion_probability_tracks_capacity_over_seen():
    rng = np.random.default_rng(3)
    cap, stream, trials = 10, 200, 3000
    hits = 0
    for _ in range(trials):
        buf = ReplayBuffer(cap)
        _insert(buf, np.zeros(1), 0, rng)  # the tracked first item
        buf.insert_many(np.ones((stream - 1, 1)), np.zeros(stream - 1, dtype=np.intp), rng)
        hits += int((buf.inputs[:, 0] == 0.0).any())
    assert abs(hits / trials - cap / stream) < 0.015


def test_sample_provenance_and_shapes():
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(8)
    x, y = rng.normal(size=(6, 3)), np.arange(6) % 2
    buf.insert_many(x, y, rng)
    xs, ys = buf.sample(4, rng)
    assert xs.shape == (4, 3) and ys.shape == (4,)
    # each drawn item is a stored row with its own target, drawn once
    rows = [int(np.flatnonzero((x == row).all(axis=1))[0]) for row in xs]
    assert np.array_equal(ys, y[rows]) and len(set(rows)) == 4
    batch = buf.as_batch()
    assert batch.n == 6


def test_buffer_clone_is_independent():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(4)
    buf.insert_many(np.eye(3), np.arange(3), rng)
    twin = buf.clone()
    _insert(twin, np.full(3, 9.0), 2, rng)
    assert buf.seen_count == 3 and len(buf) == 3
    assert not (buf.inputs == 9.0).any()
    twin.inputs[0][:] = -1.0
    assert not np.array_equal(buf.inputs[0], twin.inputs[0])


def test_learner_config_validation():
    # each error names its config key and the value it got
    with pytest.raises(ValueError, match="^learner.kind must be one of .*, got 'adam'$"):
        LearnerConfig(kind="adam")
    with pytest.raises(ValueError, match="^learner.learning_rate must .*, got 0.0$"):
        LearnerConfig(learning_rate=0.0)
    for name in ("epochs_per_task", "batch_size"):
        with pytest.raises(ValueError, match=f"^learner.{name} must be at least 1, got 0$"):
            LearnerConfig(**{name: 0})
    for kind in LEARNER_KINDS:  # hier's consolidation pool needs a buffer under every kind
        with pytest.raises(ValueError, match="learner.buffer_capacity must be at least 1"):
            LearnerConfig(kind=kind, buffer_capacity=0)


@pytest.mark.parametrize("field, value", [
    ("momentum", -0.1), ("momentum", 1.0), ("momentum", float("nan")),
    ("weight_decay", -1e-4), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ("ewc_strength", -1.0), ("ewc_strength", float("nan")), ("ewc_strength", float("inf")),
    ("learning_rate", float("inf")), ("learning_rate", float("nan")),
])
def test_learner_config_rejects_bad_optimizer_values(field, value):
    # an infinite coefficient failed only at the first nan minibatch loss
    with pytest.raises(ValueError, match=f"^learner.{field} must "):
        LearnerConfig(**{field: value})


def test_learner_config_accepts_boundary_values():
    cfg = LearnerConfig(momentum=0.0, weight_decay=0.0, ewc_strength=0.0,
                        epochs_per_task=1, batch_size=1, buffer_capacity=1)
    assert cfg.momentum == 0.0 and cfg.weight_decay == 0.0 and cfg.ewc_strength == 0.0


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


def _train_depths(parents, orders, tasks, cfg, spec, seeds):
    """Row i's ordering trained from parents[i] one train_seq call per
    depth, its depth-j task under seed seeds[i] + j, every row settled
    between depths; returns the last children, unsettled."""
    states = parents
    for depth in range(len(orders[0])):
        if depth:
            states = [settle(state, spec, row) for row, state in enumerate(states)]
        states = train_seq(states, [tasks[order[depth]] for order in orders], cfg, spec,
                           [seed + depth for seed in seeds])
    return states


def _serial_depths(order, tasks, start, cfg, spec, seed, buffer=None, ewc=None):
    """One ordering through the serial learner, one call per task with the
    seeds of _train_depths; each call estimates its task's Fisher. Writes
    `buffer`."""
    state = LearnerState(np.array(start, dtype=np.float64), buffer, ewc)
    for depth, t in enumerate(order):
        state = serial_train_seq(Permutation((t,)), tasks, state.params, cfg, spec, seed + depth,
                                 shared_buffer=state.buffer, ewc=state.ewc)
    return state


def _sums(anchors, ewc=None):
    """The EWC sums (SigmaF, SigmaF*w*) `ewc` with a list of (w*, F) anchors
    added in list order, as `settle` adds them; `ewc` for no anchors."""
    for w_star, fisher in anchors:
        sum_f, sum_fw = ewc or (0.0, 0.0)
        ewc = (sum_f + fisher, sum_fw + fisher * w_star)
    return ewc


def _same_sums(got, want):
    return (got is None) == (want is None) and (
        got is None or all(map(same_bits, got, want)))


def test_train_seq_deterministic_and_pure():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    init_copy = init.copy()
    cfg = LearnerConfig(kind="er", epochs_per_task=2)
    a = _train_depths([LearnerState(init)], [(0, 1)], tasks, cfg, SPEC, [11])[0]
    b = _train_depths([LearnerState(init)], [(0, 1)], tasks, cfg, SPEC, [11])[0]
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(init, init_copy)
    c = _train_depths([LearnerState(init)], [(0, 1)], tasks, cfg, SPEC, [12])[0]
    assert not np.array_equal(a.params, c.params)


def test_train_seq_reduces_loss_on_easy_task():
    tasks = _tasks()
    init = init_params(SPEC, 3)
    cfg = LearnerConfig(kind="sgd", epochs_per_task=5)
    state = train_seq([LearnerState(init)], tasks[:1], cfg, SPEC, [0])[0]
    before, _ = loss_and_grad(init, tasks[0].train, SPEC)
    after, _ = loss_and_grad(state.params, tasks[0].train, SPEC)
    assert after < before


def test_train_seq_er_populates_buffer():
    tasks = _tasks()
    cfg = LearnerConfig(kind="er", buffer_capacity=10, epochs_per_task=1)
    state = _train_depths([LearnerState(init_params(SPEC, 0))], [(0, 1)], tasks, cfg, SPEC,
                          [0])[0]
    assert state.buffer is not None
    assert len(state.buffer) == 10
    # every sample was offered exactly once
    assert state.buffer.seen_count == tasks[0].train.n + tasks[1].train.n
    offered = np.concatenate([tasks[0].train.inputs, tasks[1].train.inputs])
    assert all((offered == row).all(axis=1).any() for row in state.buffer.inputs)


def test_train_seq_respects_shared_buffer():
    # the child offers its task to a clone of the parent's buffer, so a
    # buffer that several children share keeps its items
    tasks = _tasks()
    cfg = LearnerConfig(kind="er", buffer_capacity=6, epochs_per_task=1)
    shared = ReplayBuffer(6)
    _insert(shared, tasks[1].train.inputs[0], tasks[1].train.targets[0],
            np.random.default_rng(0))
    parent = LearnerState(init_params(SPEC, 0), shared)
    children = train_seq([parent, parent], tasks[:2], cfg, SPEC, [0, 1])
    assert shared.seen_count == 1 and np.array_equal(shared.inputs, tasks[1].train.inputs[:1])
    for child, task in zip(children, tasks):
        assert child.buffer is not shared
        assert child.buffer.seen_count == 1 + task.train.n


def test_train_seq_ewc_accumulates_anchors():
    tasks = _tasks()
    cfg = LearnerConfig(kind="ewc", epochs_per_task=2, ewc_strength=5.0)
    state = _train_depths([LearnerState(init_params(SPEC, 0))], [(0, 1)], tasks, cfg, SPEC,
                          [0])[0]
    # task 1's Fisher waits for the caller that continues from the state;
    # task 0's alone is in its sums
    assert state.pending is tasks[1]
    before = tuple(a.copy() for a in state.ewc)
    settled = settle(state, SPEC)
    assert settle(settled, SPEC) is settled
    assert settled.pending is None and settled.params is state.params
    assert state.pending is tasks[1] and all(map(np.array_equal, state.ewc, before))
    fisher = curvature.estimate_diag_curvature(state.params, tasks[1].train, SPEC).diag
    assert np.all(fisher >= 0.0) and np.all(before[0] >= 0.0)
    # new arrays hold SigmaF + F and SigmaF*w* + F*w
    assert not any(np.shares_memory(a, b) for a in settled.ewc for b in state.ewc)
    assert np.array_equal(settled.ewc[0], before[0] + fisher)
    assert np.array_equal(settled.ewc[1], before[1] + fisher * state.params)
    assert all(a.shape == (SPEC.param_count,) for a in settled.ewc)


def test_ewc_strength_pulls_toward_anchor():
    tasks = _tasks()
    init = init_params(SPEC, 0)
    dists = []
    for strength in (0.0, 200.0):
        cfg = LearnerConfig(kind="ewc", epochs_per_task=3, ewc_strength=strength)
        state = _train_depths([LearnerState(init)], [(0, 1)], tasks, cfg, SPEC, [0])[0]
        anchor_w = _train_depths([LearnerState(init)], [(0,)], tasks, cfg, SPEC, [0])[0].params
        dists.append(float(np.linalg.norm(state.params - anchor_w)))
    assert dists[1] < dists[0]


def _lockstep_problem(kind, task_kind, sizes, rows, seed):
    """Tasks of the given train sizes, `rows` random orderings of them with
    one seed each, and per-ordering incoming buffers, some of them empty
    or absent, so a stack mixes schedules."""
    rng = np.random.default_rng(seed)
    classify = task_kind == "classification"
    out_dim = int(rng.integers(2, 4)) if classify else int(rng.integers(1, 3))
    spec = ModelSpec((3, int(rng.integers(1, 9)), out_dim), task_kind=task_kind)

    def targets(n):
        return rng.integers(0, out_dim, size=n) if classify else rng.normal(size=(n, out_dim))

    tasks = []
    for tid, n in enumerate(sizes):
        b = Batch(rng.normal(size=(n, 3)), targets(n))
        tasks.append(TaskDataset(tid, b, b, b))
    capacity = int(rng.integers(1, 12))
    cfg = LearnerConfig(kind=kind, learning_rate=0.05, epochs_per_task=2,
                        batch_size=int(rng.integers(1, 9)), buffer_capacity=capacity,
                        ewc_strength=0.5)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=rows)]
    perms = [Permutation(rng.permutation(len(sizes))) for _ in range(rows)]
    buffers = []
    for _ in range(rows):
        m = int(rng.integers(0, capacity + 4))  # past capacity the offers draw evictions
        buf = None
        if m or rng.random() < 0.5:
            buf = ReplayBuffer(capacity)
            if m:
                buf.insert_many(rng.normal(size=(m, 3)), targets(m), rng)
        buffers.append(buf)
    p = spec.param_count
    ewc = _sums([(rng.normal(size=p), rng.random(p)) for _ in range(int(rng.integers(0, 3)))])
    init = init_params(spec, 0) + 0.3 * rng.normal(size=p)
    return spec, tasks, cfg, seeds, perms, buffers, ewc, init, rng


def _clone(buf):
    return buf.clone() if buf is not None else None


def _assert_same_divergence(err, serial_run, serial_task_end):
    """A stack stops at the first step where any row's loss goes
    nonfinite; a lone run of the row it names fails there with the same
    message. A row whose losses stay finite but whose params end a task
    nonfinite is stopped by the check after that task; a nonfinite EWC
    Fisher taken from them, by the check before the next task trains.
    The verbatim reference has no such check, so a lone run of that row
    must end the named task with those nonfinite values:
    `serial_task_end(row, task_id)` gives its (params, EWC SigmaF or None),
    and a nonfinite Fisher leaves SigmaF nonfinite."""
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
        assert same_bits(got.inputs, want.inputs) and same_bits(got.targets, want.targets)


_LOCKSTEP_CASES = dict(
    kind=st.sampled_from(LEARNER_KINDS),
    task_kind=st.sampled_from(("classification", "regression")),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(**_LOCKSTEP_CASES)
def test_lockstep_train_on_task_matches_serial_rows(kind, task_kind, sizes, rows, seed):
    spec, tasks, cfg, seeds, _, buffers, _, init, rng = _lockstep_problem(
        kind, task_kind, sizes, rows, seed)
    p = spec.param_count
    stack = init + 0.1 * rng.normal(size=(rows, p))
    row_tasks = [tasks[int(t)] for t in rng.integers(0, len(tasks), size=rows)]
    mu = rng.random()
    # no pull; FedProx's scalar mu and shared anchor; one pair of shared
    # (p,) arrays; a (P, p) pair, a row of it per ordering
    pull = [None, (mu, mu * rng.normal(size=p)), (rng.random(p), rng.normal(size=p)),
            (rng.random(stack.shape), rng.normal(size=stack.shape))][int(rng.integers(4))]
    rngs = [np.random.default_rng(s) for s in seeds]
    lock_buffers = [_clone(b) for b in buffers]

    def serial_row(i):
        """Row i trained alone: its params, Generator and buffer."""
        ref_rng, ref_buffer = np.random.default_rng(seeds[i]), _clone(buffers[i])
        row_pull = None if pull is None else tuple(x[i] if np.ndim(x) == 2 else x for x in pull)
        want = serial_train_on_task(stack[i], row_tasks[i], cfg, spec, ref_rng,
                                    buffer=ref_buffer, pull=row_pull)
        return want, ref_rng, ref_buffer

    try:
        with np.errstate(all="ignore"):
            out = train_on_task(stack, row_tasks, cfg, spec, rngs, buffer=lock_buffers,
                                pull=pull)
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
        assert same_bits(out[i], want)
        assert rngs[i].bit_generator.state == ref_rng.bit_generator.state
        _assert_same_buffer(lock_buffers[i], ref_buffer)


def _run_keeping_rngs(module, run):
    """run() while `module.train_on_task` records its rng argument: the
    result and the Generator(s) of the last training call (None when run()
    trains nothing, as for an empty ordering)."""
    seen = []
    original = module.train_on_task

    def recording(params, task, cfg, spec, rng, *args, **kwargs):
        seen.append(rng)
        return original(params, task, cfg, spec, rng, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "train_on_task", recording)
        return run(), seen[-1] if seen else None


def _assert_depths_match_serial(parents, orders, tasks, cfg, spec, seeds):
    """The rows' orderings trained one depth call at a time equal each
    ordering trained alone through the serial learner: params, buffer, the
    last Generator's state and, once settled, the EWC sums; or both stop at
    the same row and task with the same message."""
    def serial_ordering(i, order=None):
        return _run_keeping_rngs(learners_reference, lambda: _serial_depths(
            orders[i] if order is None else order, tasks, parents[i].params, cfg, spec,
            seeds[i], _clone(parents[i].buffer), parents[i].ewc))

    try:
        with np.errstate(all="ignore"):
            states, rngs = _run_keeping_rngs(learners, lambda: _train_depths(
                parents, orders, tasks, cfg, spec, seeds))
    except TrainingDiverged as err:
        def serial_task_end(i, task_id):
            """Ordering i trained alone up to and including that task."""
            state = serial_ordering(i, orders[i][: orders[i].index(task_id) + 1])[0]
            return state.params, state.ewc[0] if cfg.kind == "ewc" else None

        _assert_same_divergence(err, lambda i: serial_ordering(i), serial_task_end)
        return
    assert len(states) == len(rngs) == len(parents)
    for i, got in enumerate(states):
        with np.errstate(all="ignore"):
            want, ref_rng = serial_ordering(i)
        assert same_bits(got.params, want.params)
        _assert_same_buffer(got.buffer, want.buffer)
        assert rngs[i].bit_generator.state == ref_rng.bit_generator.state
        # the last task's Fisher is estimated only when the state is settled
        last = tasks[orders[i][-1]]
        assert got.pending is (last if cfg.kind == "ewc" else None)
        try:
            with np.errstate(all="ignore"):
                got = settle(got, spec)
        except TrainingDiverged as err:
            assert str(err) == (f"task {last.task_id}: EWC Fisher is not finite "
                                f"after training; training diverged")
            assert np.isfinite(got.params).all()
            assert not np.isfinite(want.ewc[0]).all()
            # the sums the serial run held before it added that Fisher
            with np.errstate(all="ignore"):
                want = serial_ordering(i, orders[i][:-1])[0]
        assert _same_sums(got.ewc, want.ewc)


@settings(max_examples=80, deadline=None)
@given(**_LOCKSTEP_CASES)
def test_lockstep_train_seq_matches_serial_orderings(kind, task_kind, sizes, rows, seed):
    # every ordering from one start and one incoming sums pair, which every
    # row shares, each with its own incoming buffer
    spec, tasks, cfg, seeds, perms, buffers, ewc, init, _ = _lockstep_problem(
        kind, task_kind, sizes, rows, seed)
    parents = [LearnerState(init, buffer, ewc) for buffer in buffers]
    _assert_depths_match_serial(parents, [perm.order for perm in perms], tasks, cfg, spec, seeds)


@settings(max_examples=80, deadline=None)
@given(**_LOCKSTEP_CASES)
def test_train_seq_from_stacked_starts_and_row_anchors_matches_lone_runs(
        kind, task_kind, sizes, rows, seed):
    # each ordering starts from its own params and carries its own sums
    # (the shared sums plus anchors of its own), as the tries' rows do
    spec, tasks, cfg, seeds, perms, buffers, shared, init, rng = _lockstep_problem(
        kind, task_kind, sizes, rows, seed)
    p = spec.param_count
    starts = init + 0.1 * rng.normal(size=(rows, p))
    m = int(rng.integers(0, 3))
    own = [_sums([(starts[i] + 0.1 * rng.normal(size=p), rng.random(p)) for _ in range(m)],
                 shared) for i in range(rows)]
    parents = [LearnerState(starts[i], buffers[i], own[i]) for i in range(rows)]
    _assert_depths_match_serial(parents, [perm.order for perm in perms], tasks, cfg, spec, seeds)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_train_seq_never_writes_a_parent(kind):
    tasks = _tasks()
    cfg = LearnerConfig(kind=kind, epochs_per_task=1, buffer_capacity=6)
    buffer = ReplayBuffer(6)
    buffer.insert_many(tasks[1].train.inputs[:4], tasks[1].train.targets[:4],
                       np.random.default_rng(0))
    sums = (np.full(SPEC.param_count, 0.5), 0.5 * init_params(SPEC, 1))
    parent = LearnerState(init_params(SPEC, 0), buffer, sums)
    arrays = (parent.params, *sums, buffer.inputs, buffer.targets)
    copies = [a.copy() for a in arrays]
    for child in train_seq([parent, parent], tasks[:2], cfg, SPEC, [0, 1]):
        settle(child, SPEC)
    for got, want in zip(arrays, copies):
        assert np.array_equal(got, want)
    assert parent.buffer is buffer and buffer.seen_count == 4
    assert parent.ewc is sums and parent.pending is None


@pytest.mark.parametrize("task_kind", ("classification", "regression"))
@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_train_seq_runs_on_write_protected_tasks_and_parents(kind, task_kind):
    # the stacked training set, its gathers and the step's in-place updates
    # are the learner's own arrays: read-only inputs give the bits of copies
    if task_kind == "classification":
        spec, tasks = SPEC, _tasks()
    else:
        spec = ModelSpec((1, 8, 1), task_kind="regression")
        tasks = gen_sine_tasks(num_tasks=2, samples_per_task=20, seed=3)
    cfg = LearnerConfig(kind=kind, epochs_per_task=2, batch_size=8, buffer_capacity=6)
    sums = (np.full(spec.param_count, 0.5), 0.5 * init_params(spec, 1))

    def run(freeze):
        def own(a):
            a = a.copy()
            a.setflags(write=not freeze)
            return a

        row_tasks = [TaskDataset(t.task_id, *(Batch(own(b.inputs), own(b.targets))
                                              for b in (t.train, t.val, t.test)))
                     for t in tasks]
        parents = [LearnerState(own(init_params(spec, s)), None,
                                tuple(map(own, sums)) if kind == "ewc" else None)
                   for s in range(2)]
        children = train_seq(parents, row_tasks, cfg, spec, [0, 1])
        return [a for c in children for a in (c.params, *((c.buffer.inputs, c.buffer.targets)
                                                          if c.buffer else ()))]

    want, got = run(False), run(True)
    assert len(got) == len(want) and all(map(same_bits, got, want))


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_each_child_holds_its_parents_anchor_arrays(kind):
    # no per-row copies: a child holds its parent's sums object
    tasks = _tasks()
    p = SPEC.param_count
    parents = [LearnerState(init_params(SPEC, 0), None,
                            (np.full(p, i + 0.5), (i + 0.5) * init_params(SPEC, 1 + i)))
               for i in range(2)]
    children = train_seq(parents, tasks[:2], LearnerConfig(kind=kind, epochs_per_task=1),
                         SPEC, [0, 1])
    for child, parent in zip(children, parents):
        assert child.ewc is parent.ewc


def test_train_seq_needs_one_task_and_one_seed_per_settled_parent():
    tasks, cfg = _tasks(), LearnerConfig(kind="ewc", epochs_per_task=1)
    parents = [LearnerState(init_params(SPEC, 0))] * 2
    with pytest.raises(ValueError, match="one task and one seed per parent"):
        train_seq(parents, tasks[:1], cfg, SPEC, [0, 1])
    with pytest.raises(ValueError, match="one task and one seed per parent"):
        train_seq(parents, tasks[:2], cfg, SPEC, [0])
    with pytest.raises(ValueError, match="no tasks"):
        train_seq([], [], cfg, SPEC, [])
    # a pending Fisher would be lost: the child's penalty never reads it
    unsettled = train_seq(parents[:1], tasks[:1], cfg, SPEC, [0])[0]
    with pytest.raises(ValueError, match="settled parents"):
        train_seq([unsettled], tasks[1:2], cfg, SPEC, [0])


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_train_on_task_gives_the_same_bits_for_any_stack_layout(kind):
    # the params copy is row-major whatever the caller passes, so a
    # column-major stack trains to the bits of a row-major one (one-sample
    # minibatches are where the stacked products round differently)
    tasks = _tasks()
    cfg = LearnerConfig(kind=kind, epochs_per_task=1, batch_size=1, buffer_capacity=6)
    stack = np.stack([init_params(SPEC, s) for s in range(3)])
    pull = (np.full(stack.shape[1], 0.5), 0.5 * stack[0]) if kind == "ewc" else None

    def run(params):
        return train_on_task(params, [tasks[0], tasks[1], tasks[0]], cfg, SPEC,
                             [np.random.default_rng(s) for s in range(3)],
                             buffer=[ReplayBuffer(6) for _ in range(3)], pull=pull)

    want, got = run(stack), run(np.asfortranarray(stack))
    assert got.flags.c_contiguous and same_bits(got, want)


def _mixed_schedule_stack():
    """Eight rows over two 24-sample tasks and a 13-sample one (its last
    minibatch of 8 holds 5), with buffers absent, empty and filled past
    capacity, interleaved so that each schedule's rows are not adjacent."""
    tasks = _tasks()
    head = Batch(tasks[1].train.inputs[:13], tasks[1].train.targets[:13])
    tasks.append(TaskDataset(2, head, head, head))
    filled = ReplayBuffer(6)
    filled.insert_many(tasks[1].train.inputs[:9], tasks[1].train.targets[:9],
                       np.random.default_rng(9))
    layout = [(0, None), (2, filled), (1, ReplayBuffer(6)), (0, filled), (2, None),
              (1, ReplayBuffer(6)), (2, ReplayBuffer(6)), (0, None)]
    return [tasks[t] for t, _ in layout], [_clone(b) for _, b in layout]


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_mixed_schedules_train_every_row_as_a_lone_run(kind):
    row_tasks, buffers = _mixed_schedule_stack()
    rows, p = len(row_tasks), SPEC.param_count
    cfg = LearnerConfig(kind=kind, epochs_per_task=2, batch_size=8, buffer_capacity=6)
    rng = np.random.default_rng(5)
    stack = init_params(SPEC, 0) + 0.1 * rng.normal(size=(rows, p))
    # a (P, p) pair is cut by row; a scalar and a (p,) array pass whole
    pull = {"er": None, "ewc": (rng.random((rows, p)), rng.normal(size=(rows, p))),
            "sgd": (0.3, rng.normal(size=p))}[kind]
    seeds = range(10, 10 + rows)
    lock_buffers = [_clone(b) for b in buffers]
    rngs = [np.random.default_rng(s) for s in seeds]
    out = train_on_task(stack, row_tasks, cfg, SPEC, rngs, buffer=lock_buffers, pull=pull)
    for i, seed in enumerate(seeds):
        ref_rng, ref_buffer = np.random.default_rng(seed), _clone(buffers[i])
        row_pull = None if pull is None else tuple(x[i] if np.ndim(x) == 2 else x for x in pull)
        want = serial_train_on_task(stack[i], row_tasks[i], cfg, SPEC, ref_rng,
                                    buffer=ref_buffer, pull=row_pull)
        assert same_bits(out[i], want)
        assert rngs[i].bit_generator.state == ref_rng.bit_generator.state
        _assert_same_buffer(lock_buffers[i], ref_buffer)


def test_divergence_in_a_later_schedule_names_the_callers_row():
    # rows 0 and 2 train on a 20-sample task, rows 1 and 3 on a 7-sample
    # one; row 3 starts with huge weights, so the second schedule's first
    # loss overflows in its second row
    spec = ModelSpec((1, 16, 1), task_kind="regression")
    long, short = gen_sine_tasks(2, 0)
    head = Batch(short.train.inputs[:7], short.train.targets[:7])
    short = TaskDataset(1, head, head, head)
    stack = np.repeat(init_params(spec, 0)[None], 4, axis=0)
    stack[3] = 1e200
    rngs = [np.random.default_rng(s) for s in range(4)]
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train_on_task(stack, [long, short, long, short], LearnerConfig(), spec, rngs)
    assert info.value.index == 3
    assert str(info.value).startswith("task 1: epoch 0, step 0: minibatch loss is inf")


def test_one_schedule_makes_one_loss_and_grad_call_per_step(monkeypatch):
    # 24 rows on one task size with empty buffers: replay joins from the
    # second step on, and every step is still one call over all rows
    shapes = []
    real = learners.loss_and_grad

    def counting(params, batch, spec):
        shapes.append((params.shape[0], batch.inputs.shape[:2]))
        return real(params, batch, spec)

    monkeypatch.setattr(learners, "loss_and_grad", counting)
    task = _tasks()[0]  # 24 samples: 3 steps of 8
    cfg = LearnerConfig(kind="er", epochs_per_task=2, batch_size=8, buffer_capacity=6)
    stack = np.stack([init_params(SPEC, s) for s in range(24)])
    train_on_task(stack, [task] * 24, cfg, SPEC, [np.random.default_rng(s) for s in range(24)],
                  buffer=[ReplayBuffer(6) for _ in range(24)])
    assert shapes == [(24, (24, 8))] + [(24, (24, 16))] * 5


def test_train_seq_passes_shared_anchor_arrays_and_stacks_the_rest(monkeypatch):
    # the call's one pull (lambda*SigmaF, lambda*SigmaF*w*) is built from
    # (p,) sums when every row holds one sums object, and from their (P, p)
    # stack otherwise, equal values or not
    seen = []

    def recording(params, task, cfg, spec, rng, buffer=None, pull=None):
        seen.append(pull)
        return train_on_task(params, task, cfg, spec, rng, buffer, pull)

    monkeypatch.setattr(learners, "train_on_task", recording)
    tasks, init, p = _tasks(), init_params(SPEC, 0), SPEC.param_count
    sums = (np.full(p, 0.5), np.arange(float(p)))
    twin = (sums[0].copy(), sums[1].copy())  # equal values, but another row's own arrays
    ewc = LearnerConfig(kind="ewc", epochs_per_task=1, ewc_strength=3.0)
    train_seq([LearnerState(init, None, sums), LearnerState(init + 1.0, None, sums)],
              tasks[:2], ewc, SPEC, [0, 1])
    a, b = seen.pop()
    assert same_bits(a, 3.0 * sums[0]) and same_bits(b, 3.0 * sums[1])
    train_seq([LearnerState(init, None, sums), LearnerState(init, None, twin)],
              tasks[:2], ewc, SPEC, [0, 1])
    a, b = seen.pop()
    assert a.shape == b.shape == (2, p)
    assert same_bits(a, 3.0 * np.stack([sums[0]] * 2))
    assert same_bits(b, 3.0 * np.stack([sums[1]] * 2))
    train_seq([LearnerState(init), LearnerState(init)], tasks[:2], ewc, SPEC, [0, 1])
    assert seen.pop() is None  # no task settled yet
    train_seq([LearnerState(init, None, sums)] * 2, tasks[:2], LearnerConfig(epochs_per_task=1),
              SPEC, [0, 1])
    assert seen.pop() is None  # sgd trains without a penalty
    with pytest.raises(ValueError, match="EWC sums, or none does"):
        train_seq([LearnerState(init, None, sums), LearnerState(init)], tasks[:2], ewc, SPEC,
                  [0, 1])


def _one_zero_gradient_step(params, pull, monkeypatch):
    """params after one train_on_task step whose loss gradient is zero, at
    learning rate 1 without momentum or weight decay: the step is the pull."""
    monkeypatch.setattr(learners, "loss_and_grad",
                        lambda w, batch, spec: (np.zeros(len(w)), np.zeros_like(w)))
    task = _tasks()[0]
    cfg = LearnerConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0, epochs_per_task=1,
                        batch_size=task.train.n)
    return train_on_task(params, [task] * len(params), cfg, SPEC,
                         [np.random.default_rng(i) for i in range(len(params))], pull=pull)


@pytest.mark.parametrize("shape", ["scalar", "shared", "stacked"])
def test_train_on_task_adds_the_pull_to_the_gradient_as_a_w_minus_b(monkeypatch, shape):
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, SPEC.param_count))
    size = {"scalar": (), "shared": w.shape[1:], "stacked": w.shape}[shape]
    a, b = rng.random(size), rng.normal(size=size)
    got = _one_zero_gradient_step(w, (a, b), monkeypatch)
    assert same_bits(got, w - (a * w - b))
    assert same_bits(_one_zero_gradient_step(w, None, monkeypatch), w)


def _settled_chain(anchors, monkeypatch):
    """A state settled once per (w*, F) anchor, in list order, through
    `settle`, with `learners.estimate_diag_curvature` giving each F."""
    fishers = iter([fisher for _, fisher in anchors])
    monkeypatch.setattr(learners, "estimate_diag_curvature",
                        lambda params, pool, spec: SimpleNamespace(diag=next(fishers)))
    state, task = LearnerState(anchors[0][0]), _tasks()[0]
    for w_star, _ in anchors:
        state = settle(LearnerState(w_star, None, state.ewc, task), SPEC)
    return state


def _ewc_pull(parents, strength, monkeypatch):
    """The pull train_seq passes to train_on_task under EWC (nothing trains)."""
    seen = []

    def recording(params, task, cfg, spec, rng, buffer=None, pull=None):
        seen.append(pull)
        return np.array(params)

    monkeypatch.setattr(learners, "train_on_task", recording)
    cfg = LearnerConfig(kind="ewc", ewc_strength=strength)
    train_seq(parents, [_tasks()[0]] * len(parents), cfg, SPEC, list(range(len(parents))))
    return seen.pop()


@pytest.mark.parametrize("rows", ["shared", "stacked"])
@pytest.mark.parametrize("k", range(1, 9))
def test_summed_ewc_pull_matches_the_anchor_list_within_rounding(monkeypatch, k, rows):
    # online EWC sums give lambda*SigmaF*w - lambda*SigmaF*w* where the
    # anchor list gave lambda * sum_j F_j*(w - w*_j): equal up to rounding
    # of order k ulps of the summed magnitudes, also where w is close to
    # every w*_j and the difference cancels
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(k)
    p, P = SPEC.param_count, 3
    for case in range(12):
        near = case % 2 == 1
        strength = 10.0 ** rng.uniform(-2, 2)
        w = rng.normal(size=(P, p)) * 10.0 ** rng.uniform(-2, 2, size=p)

        def anchors(center):
            out = []
            for _ in range(k):
                w_star = (center * (1 + 1e-9 * rng.normal(size=p)) if near
                          else rng.normal(size=p) * 10.0 ** rng.uniform(-2, 2, size=p))
                fisher = rng.random(p) * 10.0 ** rng.uniform(-4, 2, size=p)
                fisher[rng.random(p) < 0.1] = 0.0
                out.append((w_star, fisher))
            return out

        if rows == "shared":
            if near:
                w = w[0] * (1 + 1e-9 * rng.normal(size=(P, p)))
            row_anchors = [anchors(w[0])] * P
            parents = [_settled_chain(row_anchors[0], monkeypatch)] * P
        else:
            row_anchors = [anchors(w[i]) for i in range(P)]
            parents = [_settled_chain(a, monkeypatch) for a in row_anchors]
        a, b = _ewc_pull(parents, strength, monkeypatch)
        monkeypatch.undo()
        assert a.shape == b.shape == ((p,) if rows == "shared" else (P, p))
        got = a * w - b
        for i in range(P):
            want = ewc_penalty_grad(w[i], row_anchors[i], strength)
            scale = sum(f * (np.abs(w[i]) + np.abs(w_star)) for w_star, f in row_anchors[i])
            assert np.all(np.abs(got[i] - want) <= 4 * k * eps * strength * scale), (case, i)


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
    """Five rows of one regression task on inputs of 1, on a (1, 1, 1) tanh
    net. Row 4's output weight is 1e100: its loss (about 5.8e199) stays
    finite and a step at lr=1e-300 barely moves it, but its per-sample
    gradient of the hidden weight (about 6e199) overflows when squared, so
    its EWC Fisher is nonfinite. The other rows start at weights of 1."""
    spec = ModelSpec((1, 1, 1), task_kind="regression")
    ones = Batch(np.ones((4, 1)), np.zeros(4))
    tasks = [TaskDataset(0, ones, ones, ones), TaskDataset(1, ones, ones, ones)]
    cfg = LearnerConfig(kind="ewc", learning_rate=1e-300, epochs_per_task=1, batch_size=4)
    params = np.tile([1.0, 0.0, 1.0, 0.0], (5, 1))
    params[4, 2] = 1e100
    return spec, tasks, cfg, [LearnerState(w) for w in params]


def test_train_seq_rejects_an_ordering_whose_ewc_fisher_is_nonfinite():
    # a 1-task ordering's Fisher is estimated when its state is settled
    spec, tasks, cfg, parents = _nonfinite_fisher_problem()
    with np.errstate(all="ignore"):
        states = train_seq(parents, [tasks[0]] * 5, cfg, spec, list(range(5)))
    failed = []
    for i, state in enumerate(states):
        try:
            with np.errstate(all="ignore"):
                settle(state, spec)
        except TrainingDiverged as err:
            failed.append((i, err.index, str(err)))
    assert failed == [(4, 0, "task 0: EWC Fisher is not finite after training; "
                             "training diverged")]


def test_train_seq_from_row_sums_keeps_them_when_the_only_fisher_is_nonfinite():
    # one-task orderings from stacked starts, each with sums of its own:
    # row 4's only Fisher is not finite, so its settled sums must be the
    # parent's own, as a lone run's are before it adds that Fisher
    spec, tasks, cfg, parents = _nonfinite_fisher_problem()
    p = spec.param_count
    parents = [LearnerState(s.params, None, _sums([(s.params + 0.5, np.full(p, 0.25 * (i + 1)))]))
               for i, s in enumerate(parents)]
    with np.errstate(all="ignore"):
        last = train_seq(parents, [tasks[0]] * 5, cfg, spec, list(range(5)))[4]
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        settle(last, spec)
    _assert_depths_match_serial(parents, [(0,)] * 5, tasks, cfg, spec, list(range(5)))


def test_train_seq_rejects_a_nonfinite_fisher_before_the_next_task(monkeypatch):
    # rows 3 and 4, each ordering tasks 0 then 1: task 0's Fishers are
    # estimated when the rows are settled between depths, and row 1's
    # (row 4 of the problem) is nonfinite, so task 1 never trains
    spec, tasks, cfg, parents = _nonfinite_fisher_problem()
    trained = []

    def counting(params, task, *args, **kwargs):
        trained.append([t.task_id for t in task])
        return train_on_task(params, task, *args, **kwargs)

    monkeypatch.setattr("hiercl.learners.train_on_task", counting)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        _train_depths(parents[3:], [(0, 1)] * 2, tasks, cfg, spec, [3, 4])
    assert info.value.index == 1
    assert str(info.value) == "task 0: EWC Fisher is not finite after training; training diverged"
    assert trained == [[0, 0]]
