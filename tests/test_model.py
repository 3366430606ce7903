"""Tests for the flat-parameter dense network and its finite-difference oracles."""

from dataclasses import fields

import numpy as np
import pytest
from bits import same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercl.curvature import estimate_diag_curvature
from hiercl.model import (
    Batch,
    ModelSpec,
    _output_loss_and_delta,
    accuracy_eval,
    init_params,
    loss_and_grad,
    per_sample_grads,
    predict,
    sample_factors,
)
from model_reference import (exact_dense_hessian_oracle, fd_gradient, fd_hessian_from_grad,
                             ref_accuracy_eval, ref_init_params, ref_loss_and_grad,
                             ref_output_loss_and_delta, ref_per_sample_grads)

CLS = ModelSpec((4, 6, 3))
REG = ModelSpec((3, 5, 2), task_kind="regression")


def _cls_batch(rng, n=8, spec=CLS):
    x = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.output_dim, size=n)
    return Batch(x, y)


def _reg_batch(rng, n=8, spec=REG):
    x = rng.normal(size=(n, spec.input_dim))
    y = rng.normal(size=(n, spec.output_dim))
    return Batch(x, y)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec((4,))
    with pytest.raises(ValueError):
        ModelSpec((4, 0, 2))
    with pytest.raises(ValueError):
        ModelSpec((4, 3), task_kind="ranking")


def test_param_count():
    # (4*6 + 6) + (6*3 + 3) = 51
    assert CLS.param_count == 51
    assert init_params(CLS, 0).shape == (51,)
    # the count is computed once per spec and kept out of eq, hash and repr
    fresh = ModelSpec((4, 6, 3))
    assert "param_count" not in vars(fresh) and "param_count" in vars(CLS)
    assert fresh == CLS and hash(fresh) == hash(CLS) and repr(fresh) == repr(CLS)
    assert [f.name for f in fields(CLS)] == ["layer_widths", "task_kind"]


def test_init_deterministic_and_bias_zero():
    a = init_params(CLS, 7)
    b = init_params(CLS, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_params(CLS, 8))
    # biases sit after each weight block and start at zero
    off = 4 * 6
    assert np.all(a[off : off + 6] == 0.0)


@settings(max_examples=60, deadline=None)
@given(widths=st.lists(st.integers(1, 40), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_init_params_matches_chunked_reference_bitwise(widths, seed):
    # each (fan_in, fan_out) draw fills its weight view row-major, as the
    # flat draw of the chunked form did
    spec = ModelSpec(tuple(widths))
    assert np.array_equal(init_params(spec, seed), ref_init_params(spec, seed))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros(4), np.zeros(4))  # 1-D inputs
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 4)), np.zeros(2))  # count mismatch
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 4)), np.zeros(0))


def test_label_range_checked():
    w = init_params(CLS, 0)
    bad = Batch(np.zeros((2, 4)), np.array([0, 3]))  # only 3 classes
    with pytest.raises(ValueError):
        loss_and_grad(w, bad, CLS)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for spec, make in ((CLS, _cls_batch), (REG, _reg_batch)):
        for _ in range(5):
            w = init_params(spec, int(rng.integers(1 << 16))) + 0.1 * rng.normal(
                size=spec.param_count
            )
            batch = make(rng)
            _, g = loss_and_grad(w, batch, spec)
            g_fd = fd_gradient(lambda v: loss_and_grad(v, batch, spec)[0], w)
            assert np.max(np.abs(g - g_fd)) < 1e-6


def test_per_sample_grads_mean_is_batch_grad():
    # a row is its sample's share of the mean gradient: n times it is the
    # sample's own gradient
    rng = np.random.default_rng(1)
    for spec, make in ((CLS, _cls_batch), (REG, _reg_batch)):
        w = init_params(spec, 3) + 0.1 * rng.normal(size=spec.param_count)
        batch = make(rng, n=12)
        rows = per_sample_grads(sample_factors(w, batch, spec)[1], spec)
        assert rows.shape == (12, spec.param_count)
        _, g = loss_and_grad(w, batch, spec)
        assert np.max(np.abs((12 * rows).mean(axis=0) - g)) < 1e-10


def test_per_sample_grad_rows_sum_to_the_gradient():
    # the rows and the gradient are products of the same factors summed in
    # different orders (A^T D against a row-by-row sum). Each sum of n terms
    # is within n*eps times the sum of their magnitudes, so they agree within
    # twice that, entry by entry
    rng = np.random.default_rng(12)
    one_out = ModelSpec((1, 8, 1), task_kind="regression")
    for spec, make in ((CLS, _cls_batch), (REG, _reg_batch), (one_out, _reg_batch)):
        for n in (1, 12, 50):
            w = init_params(spec, n) + 0.3 * rng.normal(size=spec.param_count)
            batch = make(rng, n=n, spec=spec)
            loss, factors = sample_factors(w, batch, spec)
            rows = per_sample_grads(factors, spec)
            want_loss, g = loss_and_grad(w, batch, spec)
            assert same_bits(loss, want_loss)
            bound = 2 * n * np.finfo(float).eps * np.abs(rows).sum(axis=0)
            assert np.all(np.abs(rows.sum(axis=0) - g) <= bound)


def test_per_sample_rows_match_singleton_batches():
    rng = np.random.default_rng(2)
    w = init_params(CLS, 5) + 0.1 * rng.normal(size=CLS.param_count)
    batch = _cls_batch(rng, n=6)
    rows = per_sample_grads(sample_factors(w, batch, CLS)[1], CLS)
    for i in range(batch.n):
        one = Batch(batch.inputs[i : i + 1], batch.targets[i : i + 1])
        _, gi = loss_and_grad(w, one, CLS)
        assert np.max(np.abs(batch.n * rows[i] - gi)) < 1e-12


def _stacked(batch, rows):
    """`batch` as a stack of `rows` copies, for a (rows, p) stack of params."""
    return Batch(*(np.broadcast_to(a, (rows, *a.shape)) for a in (batch.inputs, batch.targets)))


@settings(max_examples=120, deadline=None)
@given(widths=st.lists(st.integers(1, 24), min_size=3, max_size=4),
       task_kind=st.sampled_from(("classification", "regression")),
       n=st.integers(1, 40),
       rows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_match_reference_bitwise(widths, task_kind, n, rows, seed):
    # 3 or 4 widths: 1 or 2 hidden layers
    spec = ModelSpec(tuple(widths), task_kind=task_kind)
    rng = np.random.default_rng(seed)
    w = init_params(spec, seed) + 0.3 * rng.normal(size=spec.param_count)

    def targets(*shape):
        if task_kind == "classification":
            return rng.integers(0, spec.output_dim, size=shape)
        return rng.normal(size=(*shape, spec.output_dim))

    batch = Batch(rng.normal(size=(n, spec.input_dim)), targets(n))
    ref = ref_per_sample_grads(w, batch, spec)
    # array_equal counts -0.0 == +0.0: einsum stores a -0.0 product as +0.0
    loss, factors = sample_factors(w, batch, spec)
    assert np.array_equal(per_sample_grads(factors, spec), ref)
    # into a given block: every entry is written, none kept from before
    out = np.full((n, spec.param_count), np.nan)
    assert per_sample_grads(factors, spec, out=out) is out
    assert np.array_equal(out, ref)
    ref_loss, ref_g = ref_loss_and_grad(w, batch, spec)
    assert loss == ref_loss and np.array_equal(loss_and_grad(w, batch, spec)[1], ref_g)
    # n times the row-ordered sum of the squared rows
    assert np.array_equal(estimate_diag_curvature(factors, spec).diag,
                          n * np.sum(ref * ref, axis=0))
    assert accuracy_eval(w, batch, spec) == ref_accuracy_eval(w, batch, spec)
    # a (P, p) stack: a stacked batch for the loss, the one batch stacked P
    # times for the loss and taken once for the score; every row gets the
    # bits of its own unstacked call
    ws = w + 0.3 * rng.normal(size=(rows, spec.param_count))
    stacked = Batch(rng.normal(size=(rows, n, spec.input_dim)), targets(rows, n))
    losses, grads = loss_and_grad(ws, stacked, spec)
    shared_losses, shared_grads = loss_and_grad(ws, _stacked(batch, rows), spec)
    scores = accuracy_eval(ws, batch, spec)
    assert losses.shape == shared_losses.shape == scores.shape == (rows,)
    assert grads.shape == shared_grads.shape == ws.shape
    for i in range(rows):
        ref_loss, ref_g = ref_loss_and_grad(ws[i], Batch(stacked.inputs[i], stacked.targets[i]), spec)
        assert losses[i] == ref_loss and np.array_equal(grads[i], ref_g)
        ref_loss, ref_g = ref_loss_and_grad(ws[i], batch, spec)
        assert shared_losses[i] == ref_loss and np.array_equal(shared_grads[i], ref_g)
        assert scores[i] == ref_accuracy_eval(ws[i], batch, spec)


# each row is one corner of the class-axis max and the log-sum-exp
_HARD_LOGITS = np.array([
    [1.0, 3.0, 3.0, -2.0],  # a tied maximum
    [-0.0, 0.0, -0.0, -1.0],  # maxima of either signed zero
    [0.0, -0.0, -5.0, -0.0],
    [-0.0, -0.0, -0.0, -0.0],
    [np.inf, 1.0, 0.0, 2.0],
    [np.inf, np.inf, 0.0, 1.0],
    [-np.inf, 1.0, 0.0, 2.0],
    [-np.inf, -np.inf, -np.inf, -np.inf],
    [np.nan, 1.0, 2.0, 0.0],
    [1.0, 2.0, np.nan, np.inf],
    [750.0, -750.0, 0.0, 700.0],  # exp overflows and underflows
])
_HARD_LABELS = np.array([1, 2, 0, 3, 1, 0, 0, 2, 1, 3, 1])


def test_loss_kernel_gives_the_reference_bits_on_hard_logits():
    spec = ModelSpec((1, _HARD_LOGITS.shape[1]))
    n = len(_HARD_LABELS)

    def check(out, y, stack=False):
        loss, delta = _output_loss_and_delta(out, Batch(np.zeros((*y.shape, 1)), y), spec)
        for i in range(len(out)) if stack else [None]:
            row_out, row_y = (out, y) if i is None else (out[i], y[i])
            want = ref_output_loss_and_delta(row_out, Batch(np.zeros((len(row_y), 1)), row_y),
                                             spec)
            got = (loss, delta) if i is None else (loss[i], delta[i])
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (i, row_out)

    with np.errstate(all="ignore"):  # these logits overflow and make NaNs on purpose
        for j in range(n):
            check(_HARD_LOGITS[j : j + 1], _HARD_LABELS[j : j + 1])
        check(_HARD_LOGITS, _HARD_LABELS)
        stack = np.stack([_HARD_LOGITS, _HARD_LOGITS[::-1]])
        check(stack, np.broadcast_to(_HARD_LABELS, stack.shape[:-1]), stack=True)
        check(stack, np.stack([_HARD_LABELS, _HARD_LABELS[::-1]]), stack=True)


@pytest.mark.parametrize("task_kind", ("classification", "regression"))
def test_no_kernel_writes_into_its_callers_arrays(task_kind):
    # the kernels work in place on their own temporaries only: on
    # write-protected params and batches they run, to the bits of copies
    spec = ModelSpec((4, 6, 5, 3), task_kind=task_kind)
    rng = np.random.default_rng(8)
    rows, n = 3, 7

    def targets(*shape):
        if task_kind == "classification":
            return rng.integers(0, spec.output_dim, size=shape)
        return rng.normal(size=(*shape, spec.output_dim))

    w = init_params(spec, 0) + 0.3 * rng.normal(size=spec.param_count)
    ws = w + 0.3 * rng.normal(size=(rows, spec.param_count))
    shared = Batch(rng.normal(size=(n, 4)), targets(n))
    stacked = Batch(rng.normal(size=(rows, n, 4)), targets(rows, n))

    def results(params, batch, freeze):
        if freeze:
            for a in (params, batch.inputs, batch.targets):
                a.setflags(write=False)
        out = [accuracy_eval(params, batch, spec)] if batch.inputs.ndim == 2 else []
        if batch.inputs.ndim == params.ndim + 1:
            out += loss_and_grad(params, batch, spec)
            loss, factors = sample_factors(params, batch, spec)
            out += [loss, *(x for pair in factors for x in pair)]
        return out

    for params, batch in ((w, shared), (ws, shared), (ws, _stacked(shared, rows)), (ws, stacked)):
        copies = [(params.copy(), Batch(batch.inputs.copy(), batch.targets.copy()))
                  for _ in range(2)]
        want, got = (results(*pair, freeze) for pair, freeze in zip(copies, (False, True)))
        assert len(got) == len(want) and all(map(same_bits, got, want))


def test_accuracy_classification():
    w = init_params(CLS, 0)
    batch = _cls_batch(np.random.default_rng(3), n=20)
    pred = predict(w, batch.inputs, CLS).argmax(axis=1)
    want = float(np.mean(pred == batch.targets))
    assert accuracy_eval(w, batch, CLS) == want


def test_accuracy_regression_in_unit_interval():
    rng = np.random.default_rng(4)
    w = init_params(REG, 0)
    batch = _reg_batch(rng, n=20)
    score = accuracy_eval(w, batch, REG)
    assert 0.0 < score <= 1.0
    # perfect targets give exactly 1
    perfect = Batch(batch.inputs, predict(w, batch.inputs, REG))
    assert accuracy_eval(w, perfect, REG) == 1.0


def test_fd_hessian_symmetric_and_matches_quadratic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    fn_grad = lambda w: a @ w
    h = fd_hessian_from_grad(fn_grad, rng.normal(size=6))
    assert np.allclose(h, h.T)
    assert np.max(np.abs(h - a)) < 1e-6


def test_fd_hessian_dim_guard():
    with pytest.raises(ValueError):
        fd_hessian_from_grad(lambda w: w, np.zeros(201))
    with pytest.raises(ValueError):
        fd_hessian_from_grad(lambda w: w, np.zeros(3), h=0.0)


def test_model_hessian_matches_loss_curvature():
    rng = np.random.default_rng(6)
    spec = ModelSpec((2, 3, 2))
    w = init_params(spec, 1) + 0.1 * rng.normal(size=spec.param_count)
    batch = Batch(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
    h = exact_dense_hessian_oracle(w, batch, spec).matrix
    assert h.shape == (spec.param_count, spec.param_count)
    assert np.allclose(h, h.T)
    # directional second difference of the loss agrees with u'Hu
    u = rng.normal(size=spec.param_count)
    u /= np.linalg.norm(u)
    eps = 1e-4
    f = lambda v: loss_and_grad(v, batch, spec)[0]
    second = (f(w + eps * u) - 2.0 * f(w) + f(w - eps * u)) / eps**2
    assert abs(second - u @ h @ u) < 1e-4
