"""Tests for gradient/curvature estimation and the regularized solves."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercl.curvature import (
    VARIANTS,
    CurvatureEstimate,
    estimate_diag_curvature,
    estimate_gradient,
    estimate_lowrank_curvature,
    exact_dense_hessian_oracle,
    materialize,
    parse_curvature_spec,
    quad_form,
    regularized_solve,
)
from hiercl.learners import ReplayBuffer
from hiercl.model import Batch, ModelSpec, init_params, loss_and_grad, per_sample_grads, predict
from hiercl.pipeline import DEFAULT_SAMPLE_CAP, consolidation_pool

SPEC = ModelSpec((3, 6, 3))


def _batch(rng, n=10, spec=SPEC):
    return Batch(rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.output_dim, size=n))


def test_parse_curvature_spec():
    assert parse_curvature_spec("diag") == ("diagonal", None)
    assert parse_curvature_spec("diagonal") == ("diagonal", None)
    assert parse_curvature_spec("dense") == ("dense", None)
    assert parse_curvature_spec("lowrank") == ("lowrank", 10)
    assert parse_curvature_spec("lowrank:7") == ("lowrank", 7)
    with pytest.raises(ValueError):
        parse_curvature_spec("lowrank:0")
    with pytest.raises(ValueError):
        parse_curvature_spec("kfac")


def test_estimate_validation():
    with pytest.raises(ValueError):
        CurvatureEstimate("diagonal", diag=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        CurvatureEstimate("diagonal", diag=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CurvatureEstimate("lowrank", factors=(np.ones((3, 2)), np.ones(2)))  # not orthonormal
    with pytest.raises(ValueError):
        CurvatureEstimate("dense", matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        CurvatureEstimate("sketch", diag=np.ones(2))


def test_gradient_matches_samplewise_average():
    rng = np.random.default_rng(0)
    w = init_params(SPEC, 1)
    batch = _batch(rng, n=14)
    g = estimate_gradient(w, batch, SPEC)
    per = [loss_and_grad(w, Batch(batch.inputs[i : i + 1], batch.targets[i : i + 1]), SPEC)[1]
           for i in range(batch.n)]
    assert np.max(np.abs(g - np.mean(per, axis=0))) < 1e-10


def test_gradient_zero_on_perfect_fit():
    rng = np.random.default_rng(1)
    spec = ModelSpec((2, 4, 1), task_kind="regression")
    w = init_params(spec, 0)
    x = rng.normal(size=(8, 2))
    batch = Batch(x, predict(w, x, spec))
    g = estimate_gradient(w, batch, spec)
    assert np.max(np.abs(g)) == 0.0


def test_gradient_pools_buffer_and_group():
    rng = np.random.default_rng(2)
    w = init_params(SPEC, 2)
    group = _batch(rng, n=5)
    buf = ReplayBuffer(4)
    buf.insert_many(rng.normal(size=(4, 3)), rng.integers(0, 3, size=4), 0, rng)
    g = estimate_gradient(w, consolidation_pool(buf, [group], DEFAULT_SAMPLE_CAP, 0), SPEC)
    merged = Batch(
        np.concatenate([buf.as_batch().inputs, group.inputs]),
        np.concatenate([buf.as_batch().targets, group.targets]),
    )
    assert np.array_equal(g, loss_and_grad(w, merged, SPEC)[1])
    with pytest.raises(ValueError):
        consolidation_pool(ReplayBuffer(1), [], DEFAULT_SAMPLE_CAP, 0)


def test_diag_is_mean_squared_per_sample_grads():
    rng = np.random.default_rng(3)
    w = init_params(SPEC, 3)
    batch = _batch(rng, n=9)
    est = estimate_diag_curvature(w, batch, SPEC)
    rows = per_sample_grads(w, batch, SPEC)
    assert np.array_equal(est.diag, np.mean(rows * rows, axis=0))
    assert est.source_sample_count == 9
    assert np.all(est.diag >= 0.0)


def test_diag_curvature_holds_one_per_sample_gradient_array():
    # the consolidate-wide-k1 shape: p = 26,122 at n = 240, about 50 MB
    spec = ModelSpec((64, 128, 128, 10))
    rng = np.random.default_rng(7)
    w = init_params(spec, 7)
    batch = _batch(rng, n=240, spec=spec)
    tracemalloc.start()
    try:
        estimate_diag_curvature(w, batch, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * batch.n * spec.param_count * 8


def test_sample_cap_thins_pool_deterministically():
    rng = np.random.default_rng(4)
    w = init_params(SPEC, 4)
    batch = _batch(rng, n=40)
    empty = ReplayBuffer(1)
    a = estimate_diag_curvature(w, consolidation_pool(empty, [batch], 16, 5), SPEC)
    b = estimate_diag_curvature(w, consolidation_pool(empty, [batch], 16, 5), SPEC)
    assert a.source_sample_count == 16
    assert np.array_equal(a.diag, b.diag)
    c = estimate_diag_curvature(w, consolidation_pool(empty, [batch], 16, 6), SPEC)
    assert not np.array_equal(a.diag, c.diag)
    assert DEFAULT_SAMPLE_CAP == 512


def test_lowrank_rank_one_case():
    rng = np.random.default_rng(5)
    spec = ModelSpec((2, 3, 2))
    w = init_params(spec, 0) + 0.1 * rng.normal(size=spec.param_count)
    batch = Batch(rng.normal(size=(1, 2)), np.array([1]))
    est = estimate_lowrank_curvature(w, batch, spec, r=5)
    v = per_sample_grads(w, batch, spec)[0]
    u, d = est.factors
    assert u.shape[1] == 1
    assert abs(d[0] - v @ v) < 1e-10
    assert np.max(np.abs(np.abs(u[:, 0]) - np.abs(v) / np.linalg.norm(v))) < 1e-10


def test_lowrank_reconstructs_low_rank_fisher():
    # gram route (n < p) against the dense Fisher
    rng = np.random.default_rng(6)
    w = init_params(SPEC, 6) + 0.1 * rng.normal(size=SPEC.param_count)
    batch = _batch(rng, n=6)
    est = estimate_lowrank_curvature(w, batch, SPEC, r=6)
    g = per_sample_grads(w, batch, SPEC)
    fisher = g.T @ g / batch.n
    assert np.max(np.abs(materialize(est) - fisher)) < 1e-8
    u, d = est.factors
    assert np.all(np.diff(d) <= 1e-12)  # nonincreasing
    assert np.all(d >= 0.0)
    assert np.allclose(u.T @ u, np.eye(d.size), atol=1e-8)


def test_lowrank_direct_route_matches_gram_route():
    # p <= n forces the direct eigendecomposition path
    rng = np.random.default_rng(7)
    spec = ModelSpec((2, 2, 2))  # p = 12
    w = init_params(spec, 0) + 0.1 * rng.normal(size=spec.param_count)
    batch = Batch(rng.normal(size=(20, 2)), rng.integers(0, 2, size=20))
    small = Batch(batch.inputs[:8], batch.targets[:8])  # n < p takes the gram route
    for data in (batch, small):
        est = estimate_lowrank_curvature(w, data, spec, r=4)
        u, d = est.factors
        assert np.allclose(u.T @ u, np.eye(d.size), atol=1e-8)
        g = per_sample_grads(w, data, spec)
        fisher = g.T @ g / g.shape[0]
        # top eigenvalues agree with the dense Fisher's
        vals = np.linalg.eigvalsh(fisher)[::-1][: d.size]
        assert np.max(np.abs(vals - d)) < 1e-8


def test_dense_oracle_recovers_quadratic():
    rng = np.random.default_rng(8)
    spec = ModelSpec((2, 3, 2))
    w = init_params(spec, 1)
    batch = Batch(rng.normal(size=(6, 2)), rng.integers(0, 2, size=6))
    est = exact_dense_hessian_oracle(w, batch, spec)
    m = est.matrix
    assert m.shape == (spec.param_count, spec.param_count)
    assert np.allclose(m, m.T)
    # directional curvature agrees with a second difference of the loss
    u = rng.normal(size=spec.param_count)
    u /= np.linalg.norm(u)
    f = lambda v: loss_and_grad(v, batch, spec)[0]
    eps = 1e-4
    second = (f(w + eps * u) - 2 * f(w) + f(w - eps * u)) / eps**2
    assert abs(second - u @ m @ u) < 1e-4


def test_quad_form_matches_materialized():
    rng = np.random.default_rng(9)
    w = init_params(SPEC, 2)
    batch = _batch(rng, n=8)
    v = rng.normal(size=SPEC.param_count)
    for est in (
        estimate_diag_curvature(w, batch, SPEC),
        estimate_lowrank_curvature(w, batch, SPEC, r=4),
    ):
        assert abs(quad_form(est, v) - v @ materialize(est) @ v) < 1e-8


def min_eig_lower_bound(curv: CurvatureEstimate) -> float:
    """Smallest eigenvalue (exact for diagonal/dense; 0 for a strictly
    low-rank PSD factorization, whose nullspace contributes eigenvalue 0)."""
    if curv.variant == "diagonal":
        return float(curv.diag.min()) if curv.diag.size else 0.0
    if curv.variant == "lowrank":
        u, d = curv.factors
        if u.shape[1] < u.shape[0]:
            return min(0.0, float(d.min())) if d.size else 0.0
        return float(d.min())
    return float(np.linalg.eigvalsh(curv.matrix)[0])


def test_min_eig_examples():
    assert min_eig_lower_bound(CurvatureEstimate("dense", matrix=np.eye(3))) == 1.0
    assert min_eig_lower_bound(CurvatureEstimate("dense", matrix=np.diag([-2.0, 5.0]))) == -2.0
    assert min_eig_lower_bound(CurvatureEstimate("diagonal", diag=np.array([0.5, 2.0]))) == 0.5
    # strictly low-rank PSD estimate has a nullspace
    u = np.eye(4)[:, :2]
    est = CurvatureEstimate("lowrank", factors=(u, np.array([3.0, 1.0])))
    assert min_eig_lower_bound(est) == 0.0


def test_min_eig_matches_char_poly_roots():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        roots = np.roots(np.poly(a))
        want = float(np.sort(roots.real)[0])
        got = min_eig_lower_bound(CurvatureEstimate("dense", matrix=a))
        assert abs(got - want) < 1e-8


def test_diag_solve_elementwise():
    diag = np.array([0.0, 1.0, 3.0])
    est = CurvatureEstimate("diagonal", diag=diag)
    rhs = np.array([2.0, 2.0, 2.0])
    res = regularized_solve(est, 1.0, rhs)
    assert np.array_equal(res.x, rhs / (diag + 1.0))
    # the solve writes into its own temporary, never into H or rhs
    assert np.array_equal(est.diag, [0.0, 1.0, 3.0]) and np.array_equal(rhs, [2.0, 2.0, 2.0])
    assert res.lambda_used == 1.0
    assert res.min_eig_bound is None
    # H = 0 -> x = rhs / lambda
    zero = CurvatureEstimate("diagonal", diag=np.zeros(3))
    assert np.array_equal(regularized_solve(zero, 2.0, rhs).x, rhs / 2.0)
    with pytest.raises(ValueError):
        regularized_solve(est, 0.0, rhs)
    with pytest.raises(ValueError):
        regularized_solve(est, 1.0, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        regularized_solve(est, 1.0, np.ones(4))


def test_woodbury_matches_dense_solve():
    rng = np.random.default_rng(11)
    p, r = 30, 4
    for _ in range(25):
        q, _ = np.linalg.qr(rng.normal(size=(p, r)))
        d = np.abs(rng.normal(size=r)) + 0.1
        est = CurvatureEstimate("lowrank", factors=(q, d))
        lam = float(np.abs(rng.normal()) + 0.05)
        rhs = rng.normal(size=p)
        x = regularized_solve(est, lam, rhs).x
        want = np.linalg.solve(materialize(est) + lam * np.eye(p), rhs)
        assert np.max(np.abs(x - want)) < 1e-8


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       p=st.integers(1, 30),
       rank=st.integers(0, 30),
       lam=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_regularized_solve_matches_dense_solve_and_writes_nothing(variant, p, rank, lam, seed):
    rng = np.random.default_rng(seed)
    if variant == "diagonal":
        curv = CurvatureEstimate("diagonal", diag=rng.random(p) * 10.0)
    elif variant == "lowrank":
        q, _ = np.linalg.qr(rng.normal(size=(p, min(rank, p))))
        curv = CurvatureEstimate("lowrank", factors=(q, rng.random(q.shape[1]) * 10.0))
    else:
        a = rng.normal(size=(p, p))
        h = (a + a.T) / 2.0  # indefinite in general; lam clears its lowest eigenvalue
        curv = CurvatureEstimate("dense", matrix=h)
        lam = lam + max(0.0, -float(np.linalg.eigvalsh(h)[0]))
    rhs = rng.normal(size=p)
    before = [a.copy() for a in (curv.diag, curv.matrix, *(curv.factors or ())) if a is not None]
    rhs_before = rhs.copy()
    x = regularized_solve(curv, lam, rhs).x
    want = np.linalg.solve(materialize(curv) + lam * np.eye(p), rhs)
    assert np.max(np.abs(x - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))
    after = [a for a in (curv.diag, curv.matrix, *(curv.factors or ())) if a is not None]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert np.array_equal(rhs, rhs_before)


def test_dense_solve_and_pd_guard():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    h = a @ a.T  # PSD
    est = CurvatureEstimate("dense", matrix=h)
    rhs = rng.normal(size=8)
    res = regularized_solve(est, 0.5, rhs)
    assert np.max(np.abs((h + 0.5 * np.eye(8)) @ res.x - rhs)) < 1e-8
    assert res.min_eig_bound is not None
    neg = CurvatureEstimate("dense", matrix=np.diag([-2.0, 1.0]))
    with pytest.raises(ValueError):
        regularized_solve(neg, 1.5, np.ones(2))  # needs lambda > 2
    ok = regularized_solve(neg, 2.5, np.ones(2))
    assert np.allclose(ok.x, [2.0, 1.0 / 3.5])
