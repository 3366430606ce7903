"""Tests for gradient/curvature estimation and the regularized solves."""

import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from bits import same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercl import curvature
from hiercl.curvature import (
    DiagFisher,
    LowRankFisher,
    estimate_diag_curvature,
    estimate_gradient,
    estimate_lowrank_curvature,
    parse_curvature_spec,
    regularized_solve,
)
from hiercl.learners import ReplayBuffer
from hiercl.model import (Batch, ModelSpec, init_params, loss_and_grad, per_sample_grads,
                          predict, sample_factors)
from hiercl.pipeline import SAMPLE_CAP, consolidation_pool
from consolidation_reference import DenseCurvature, materialize

SPEC = ModelSpec((3, 6, 3))


def _batch(rng, n=10, spec=SPEC):
    return Batch(rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.output_dim, size=n))


def _factors(w, pool, spec=SPEC):
    """The factors of one sample_factors pass, which every estimate takes."""
    return sample_factors(w, pool, spec)[1]


def test_parse_curvature_spec():
    assert parse_curvature_spec("diag") == ("diagonal", None)
    assert parse_curvature_spec("diagonal") == ("diagonal", None)
    assert parse_curvature_spec("lowrank") == ("lowrank", 10)
    assert parse_curvature_spec("lowrank:7") == ("lowrank", 7)
    assert parse_curvature_spec(" LowRank : 7 ") == ("lowrank", 7)
    # runs estimate only the empirical Fisher; a rank is written after a colon
    for text in ("lowrank:0", "lowrank:", "lowrank:abc", "lowrank5", "lowrankish", "dense",
                 "kfac"):
        with pytest.raises(ValueError, match=r"^run\.curvature=.*expected diag, lowrank"):
            parse_curvature_spec(text)


def test_estimate_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        DiagFisher(np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="1-D"):
        DiagFisher(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="orthonormal"):
        LowRankFisher(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ValueError, match=r"\(p x r, r\)"):
        LowRankFisher(np.eye(3)[:, :2], np.ones(3))
    with pytest.raises(ValueError, match="rank exceeds"):
        LowRankFisher(np.ones((1, 2)), np.ones(2))
    with pytest.raises(ValueError, match="nonnegative"):
        LowRankFisher(np.eye(3)[:, :1], np.array([-1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        DenseCurvature(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        DenseCurvature(np.zeros((2, 3)))
    # the estimates are frozen, and hold float64 arrays of what they were given
    est = DiagFisher([1, 2])
    assert est.diag.dtype == np.float64 and est.dim == 2
    with pytest.raises(FrozenInstanceError):
        est.diag = np.zeros(2)
    lr = LowRankFisher(np.eye(3)[:, :1], [2])
    assert lr.u.dtype == lr.d.dtype == np.float64 and lr.dim == 3


def test_gradient_matches_samplewise_average():
    rng = np.random.default_rng(0)
    w = init_params(SPEC, 1)
    batch = _batch(rng, n=14)
    g = estimate_gradient(_factors(w, batch), SPEC)
    per = [loss_and_grad(w, Batch(batch.inputs[i : i + 1], batch.targets[i : i + 1]), SPEC)[1]
           for i in range(batch.n)]
    assert np.max(np.abs(g - np.mean(per, axis=0))) < 1e-10


def test_gradient_zero_on_perfect_fit():
    rng = np.random.default_rng(1)
    spec = ModelSpec((2, 4, 1), task_kind="regression")
    w = init_params(spec, 0)
    x = rng.normal(size=(8, 2))
    batch = Batch(x, predict(w, x, spec))
    g = estimate_gradient(_factors(w, batch, spec), spec)
    assert np.max(np.abs(g)) == 0.0


def test_gradient_pools_buffer_and_group():
    rng = np.random.default_rng(2)
    w = init_params(SPEC, 2)
    group = _batch(rng, n=5)
    buf = ReplayBuffer(4)
    buf.insert_many(rng.normal(size=(4, 3)), rng.integers(0, 3, size=4), rng)
    g = estimate_gradient(_factors(w, consolidation_pool(buf, [group], 0)), SPEC)
    merged = Batch(
        np.concatenate([buf.as_batch().inputs, group.inputs]),
        np.concatenate([buf.as_batch().targets, group.targets]),
    )
    assert np.array_equal(g, loss_and_grad(w, merged, SPEC)[1])
    with pytest.raises(ValueError, match="buffer is empty"):
        consolidation_pool(ReplayBuffer(1), [group], 0)


def test_gradient_from_factors_is_bitwise_loss_and_grads():
    # a classification pool, an (n, 1) regression pool and a (P, p) stack
    # with a stacked batch
    rng = np.random.default_rng(13)
    reg = ModelSpec((2, 5, 1), task_kind="regression")
    ws = init_params(SPEC, 13) + 0.3 * rng.normal(size=(4, SPEC.param_count))
    stacked = Batch(rng.normal(size=(4, 9, 3)), rng.integers(0, 3, size=(4, 9)))
    for w, pool, spec in ((ws[0], _batch(rng, n=30), SPEC),
                          (init_params(reg, 1), Batch(rng.normal(size=(12, 2)),
                                                      rng.normal(size=(12, 1))), reg),
                          (ws, stacked, SPEC)):
        g = estimate_gradient(_factors(w, pool, spec), spec)
        assert same_bits(g, loss_and_grad(w, pool, spec)[1])


def test_diag_is_mean_squared_per_sample_grads():
    # a row is its sample's share of the mean gradient, g_i / n, so the mean
    # of the squared g_i is n times the row-ordered sum of the squared rows
    rng = np.random.default_rng(3)
    w = init_params(SPEC, 3)
    batch = _batch(rng, n=9)
    factors = _factors(w, batch)
    est = estimate_diag_curvature(factors, SPEC)
    rows = per_sample_grads(factors, SPEC)
    assert same_bits(est.diag, 9 * np.sum(rows * rows, axis=0))
    assert np.all(est.diag >= 0.0)


@pytest.mark.parametrize("spec, n", [
    # the consolidate-wide-k1 net; 240 is its pool, 512 SAMPLE_CAP
    pytest.param(ModelSpec((64, 128, 128, 10)), 240, id="240"),
    pytest.param(ModelSpec((64, 128, 128, 10)), 512, id="512"),
    # where blocks of 16-row tiles, each with its own forward pass, lost
    # the last bits of the whole-pool call
    pytest.param(ModelSpec((64, 256, 10)), 511, id="64-256-10-511"),
    pytest.param(ModelSpec((64, 256, 10)), 512, id="64-256-10-512"),
])
def test_blocked_diag_is_bitwise_the_whole_pool_mean_on_the_wide_net(spec, n):
    rng = np.random.default_rng(n)
    w = init_params(spec, 7)
    batch = _batch(rng, n=n, spec=spec)
    assert n * spec.param_count * 8 > curvature.DIAG_BLOCK_BYTES
    factors = _factors(w, batch, spec)
    rows = per_sample_grads(factors, spec)
    assert same_bits(estimate_diag_curvature(factors, spec).diag, n * np.sum(rows * rows, axis=0))


def test_diag_curvature_sums_one_row_blocks_in_order(monkeypatch):
    # a one-byte budget forces one row per block
    monkeypatch.setattr(curvature, "DIAG_BLOCK_BYTES", 1)
    seen, blocks = [], []

    def recording(factors, spec, out=None):
        seen.append(factors)
        blocks.append(out)
        return per_sample_grads(factors, spec, out=out)

    monkeypatch.setattr(curvature, "per_sample_grads", recording)
    rng = np.random.default_rng(11)
    w = init_params(SPEC, 11)
    batch = _batch(rng, n=37)
    factors = _factors(w, batch)
    est = estimate_diag_curvature(factors, SPEC)
    # consecutive single rows of the pool's factors, in order
    assert len(seen) == batch.n
    for layer, (a, d) in enumerate(factors):
        assert same_bits(np.concatenate([f[layer][0] for f in seen]), a)
        assert same_bits(np.concatenate([f[layer][1] for f in seen]), d)
    # every block is written into the one buffer of the estimate
    assert all(len(b) == 1 and np.shares_memory(b, blocks[0]) for b in blocks)
    rows = per_sample_grads(factors, SPEC)
    assert same_bits(est.diag, batch.n * np.sum(rows * rows, axis=0))


def test_diag_curvature_holds_one_row_block_of_per_sample_gradients():
    # the consolidate-wide-k1 shape: p = 26,122 at n = 240, about 50 MB whole
    spec = ModelSpec((64, 128, 128, 10))
    n, p = 240, spec.param_count
    rng = np.random.default_rng(7)
    w = init_params(spec, 7)
    batch = _batch(rng, n=n, spec=spec)
    block = curvature.DIAG_BLOCK_BYTES // (8 * p) * 8 * p
    factor_bytes = 8 * n * sum(spec.layer_widths[:-1] + spec.layer_widths[1:])
    tracemalloc.start()
    try:
        estimate_diag_curvature(_factors(w, batch, spec), spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block plus the pool's factors, and the pass's temporaries; a
    # second block held at once would pass the bound
    assert block + factor_bytes < peak <= 1.25 * (block + factor_bytes)
    assert 1.25 * (block + factor_bytes) < 2 * block + factor_bytes


def test_sample_cap_thins_pool_deterministically(monkeypatch):
    assert SAMPLE_CAP == 512
    monkeypatch.setattr("hiercl.pipeline.SAMPLE_CAP", 16)
    rng = np.random.default_rng(4)
    w = init_params(SPEC, 4)
    batch = _batch(rng, n=40)
    buf = ReplayBuffer(1)  # a pool's buffer has been offered a task
    buf.insert_many(batch.inputs[:1], batch.targets[:1], rng)
    pool = consolidation_pool(buf, [batch], 5)
    a = estimate_diag_curvature(_factors(w, pool), SPEC)
    b = estimate_diag_curvature(_factors(w, consolidation_pool(buf, [batch], 5)), SPEC)
    assert pool.n == 16
    assert np.array_equal(a.diag, b.diag)
    c = estimate_diag_curvature(_factors(w, consolidation_pool(buf, [batch], 6)), SPEC)
    assert not np.array_equal(a.diag, c.diag)


def test_lowrank_rank_one_case():
    rng = np.random.default_rng(5)
    spec = ModelSpec((2, 3, 2))
    w = init_params(spec, 0) + 0.1 * rng.normal(size=spec.param_count)
    batch = Batch(rng.normal(size=(1, 2)), np.array([1]))
    est = estimate_lowrank_curvature(_factors(w, batch, spec), spec, r=5)
    v = per_sample_grads(_factors(w, batch, spec), spec)[0]  # n = 1: the row is the gradient
    u, d = est.u, est.d
    assert u.shape[1] == 1
    assert abs(d[0] - v @ v) < 1e-10
    assert np.max(np.abs(np.abs(u[:, 0]) - np.abs(v) / np.linalg.norm(v))) < 1e-10


def test_lowrank_reconstructs_low_rank_fisher():
    # gram route (n < p) against the dense Fisher
    rng = np.random.default_rng(6)
    w = init_params(SPEC, 6) + 0.1 * rng.normal(size=SPEC.param_count)
    batch = _batch(rng, n=6)
    est = estimate_lowrank_curvature(_factors(w, batch), SPEC, r=6)
    g = batch.n * per_sample_grads(_factors(w, batch), SPEC)
    fisher = g.T @ g / batch.n
    assert np.max(np.abs(materialize(est) - fisher)) < 1e-8
    u, d = est.u, est.d
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
        est = estimate_lowrank_curvature(_factors(w, data, spec), spec, r=4)
        u, d = est.u, est.d
        assert np.allclose(u.T @ u, np.eye(d.size), atol=1e-8)
        g = data.n * per_sample_grads(_factors(w, data, spec), spec)
        fisher = g.T @ g / g.shape[0]
        # top eigenvalues agree with the dense Fisher's
        vals = np.linalg.eigvalsh(fisher)[::-1][: d.size]
        assert np.max(np.abs(vals - d)) < 1e-8


@pytest.mark.parametrize("seed", [0, 2, 3, 4])
@pytest.mark.parametrize("rank", [10, 200])
def test_lowrank_gram_route_keeps_only_eigenpairs_it_can_map_back(seed, rank):
    # p = 25 > n = 12 takes the Gram route. These pools' Grams have
    # eigenvalues between 1e-12 and 1e-8 of the top one: mapped back through
    # G^T, such a vector's rounding grows by about d_max / d, and an absolute
    # 1e-12 floor kept them and failed the orthonormality check
    spec = ModelSpec((1, 8, 1), task_kind="regression")
    rng = np.random.default_rng(seed)
    w = init_params(spec, seed) + 0.3 * rng.normal(size=spec.param_count)
    pool = Batch(rng.normal(size=(12, 1)), rng.normal(size=(12, 1)))
    est = estimate_lowrank_curvature(_factors(w, pool, spec), spec, rank)
    assert est.d.size and est.d.min() > 1e-8 * est.d.max()
    g = 12 * per_sample_grads(_factors(w, pool, spec), spec)
    assert np.abs(g.T @ (g @ est.u) / 12 - est.u * est.d).max() < 1e-10


def test_quad_form_matches_materialized():
    rng = np.random.default_rng(9)
    w = init_params(SPEC, 2)
    batch = _batch(rng, n=8)
    v = rng.normal(size=SPEC.param_count)
    a = rng.normal(size=(SPEC.param_count, SPEC.param_count))
    for est in (
        estimate_diag_curvature(_factors(w, batch), SPEC),
        estimate_lowrank_curvature(_factors(w, batch), SPEC, r=4),
        DenseCurvature((a + a.T) / 2),
    ):
        assert abs(est.quad_form(v) - v @ materialize(est) @ v) < 1e-8


def min_eig_lower_bound(curv) -> float:
    """Smallest eigenvalue (exact for diagonal/dense; 0 for a strictly
    low-rank PSD factorization, whose nullspace contributes eigenvalue 0)."""
    if isinstance(curv, DiagFisher):
        return float(curv.diag.min()) if curv.diag.size else 0.0
    if isinstance(curv, LowRankFisher):
        u, d = curv.u, curv.d
        if u.shape[1] < u.shape[0]:
            return min(0.0, float(d.min())) if d.size else 0.0
        return float(d.min())
    return float(np.linalg.eigvalsh(curv.matrix)[0])


def test_min_eig_examples():
    assert min_eig_lower_bound(DenseCurvature(np.eye(3))) == 1.0
    assert min_eig_lower_bound(DenseCurvature(np.diag([-2.0, 5.0]))) == -2.0
    assert min_eig_lower_bound(DiagFisher(np.array([0.5, 2.0]))) == 0.5
    # strictly low-rank PSD estimate has a nullspace
    u = np.eye(4)[:, :2]
    est = LowRankFisher(u, np.array([3.0, 1.0]))
    assert min_eig_lower_bound(est) == 0.0


def test_min_eig_matches_char_poly_roots():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        roots = np.roots(np.poly(a))
        want = float(np.sort(roots.real)[0])
        got = min_eig_lower_bound(DenseCurvature(a))
        assert abs(got - want) < 1e-8


def test_diag_solve_elementwise():
    diag = np.array([0.0, 1.0, 3.0])
    est = DiagFisher(diag)
    rhs = np.array([2.0, 2.0, 2.0])
    x = regularized_solve(est, 1.0, rhs)
    assert np.array_equal(x, rhs / (diag + 1.0))
    # the solve writes into its own temporary, never into H or rhs
    assert np.array_equal(est.diag, [0.0, 1.0, 3.0]) and np.array_equal(rhs, [2.0, 2.0, 2.0])
    # H = 0 -> x = rhs / lambda
    zero = DiagFisher(np.zeros(3))
    assert np.array_equal(regularized_solve(zero, 2.0, rhs), rhs / 2.0)
    with pytest.raises(ValueError):
        regularized_solve(est, 0.0, rhs)
    with pytest.raises(ValueError):
        regularized_solve(est, 1.0, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        regularized_solve(est, 1.0, np.ones(4))


# one estimate of each representation; every one goes through the same
# shared checks in regularized_solve and require_finite
_SOLVE_CASES = {
    "diagonal": DiagFisher(np.array([0.0, 1.0, 3.0])),
    "lowrank": LowRankFisher(np.eye(3)[:, :1], np.array([2.0])),
    "dense": DenseCurvature(np.diag([1.0, 2.0, 3.0])),
}


@pytest.mark.parametrize("variant", sorted(_SOLVE_CASES))
@pytest.mark.parametrize("lam, bad", [(1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
                                      (np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5)])
def test_regularized_solve_rejects_nonfinite_inputs(variant, lam, bad):
    rhs = np.array([1.0, -2.0, bad])
    with pytest.raises(ValueError, match="^nonfinite inputs to regularized_solve$"):
        regularized_solve(_SOLVE_CASES[variant], lam, rhs)


@pytest.mark.parametrize("variant", sorted(_SOLVE_CASES))
def test_regularized_solve_accepts_a_finite_rhs_whose_sum_overflows(variant):
    x = regularized_solve(_SOLVE_CASES[variant], 1.0, np.array([1e308, 1e308, 0.5]))
    assert np.isfinite(x).all()


@pytest.mark.parametrize("variant", ["diagonal", "lowrank"])
@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_regularized_solve_rejects_a_nonpositive_lambda(variant, lam):
    with pytest.raises(ValueError, match=f"^lambda must be positive, got {lam}$"):
        regularized_solve(_SOLVE_CASES[variant], lam, np.ones(3))
    # a nonfinite rhs is named before the lambda
    with pytest.raises(ValueError, match="^nonfinite inputs to regularized_solve$"):
        regularized_solve(_SOLVE_CASES[variant], lam, np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("p", [7, 100_003])
def test_chunked_diag_solve_is_bitwise_the_unchunked_one(monkeypatch, p):
    if p < curvature.SOLVE_CHUNK:
        monkeypatch.setattr(curvature, "SOLVE_CHUNK", 3)  # chunks of 3, 3 and 1
    assert p % curvature.SOLVE_CHUNK and p > 2 * curvature.SOLVE_CHUNK
    rng = np.random.default_rng(p)
    est = DiagFisher(rng.uniform(0.0, 3.0, size=p))
    rhs = rng.normal(size=p)
    assert same_bits(regularized_solve(est, 0.7, rhs), rhs / (est.diag + 0.7))
    # a nonfinite entry in the first or the last chunk is refused
    for i in (0, p - 1):
        bad = rhs.copy()
        bad[i] = np.inf
        with pytest.raises(ValueError, match="^nonfinite inputs to regularized_solve$"):
            regularized_solve(est, 0.7, bad)


def test_diag_solve_on_a_finite_rhs_builds_no_mask():
    # the result is the solve's only p-sized allocation; a p-sized mask, or
    # a p-sized temporary, would pass the bound
    p = 100_003
    rng = np.random.default_rng(1)
    est, rhs = DiagFisher(rng.uniform(0.0, 3.0, size=p)), rng.normal(size=p)
    tracemalloc.start()
    try:
        regularized_solve(est, 0.5, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rhs.nbytes <= peak < rhs.nbytes + p // 2


def test_woodbury_matches_dense_solve():
    rng = np.random.default_rng(11)
    p, r = 30, 4
    for _ in range(25):
        q, _ = np.linalg.qr(rng.normal(size=(p, r)))
        d = np.abs(rng.normal(size=r)) + 0.1
        est = LowRankFisher(q, d)
        lam = float(np.abs(rng.normal()) + 0.05)
        rhs = rng.normal(size=p)
        x = regularized_solve(est, lam, rhs)
        want = np.linalg.solve(materialize(est) + lam * np.eye(p), rhs)
        assert np.max(np.abs(x - want)) < 1e-8


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(sorted(_SOLVE_CASES)),
       p=st.integers(1, 30),
       rank=st.integers(0, 30),
       lam=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_regularized_solve_matches_dense_solve_and_writes_nothing(variant, p, rank, lam, seed):
    rng = np.random.default_rng(seed)
    if variant == "diagonal":
        curv = DiagFisher(rng.random(p) * 10.0)
    elif variant == "lowrank":
        q, _ = np.linalg.qr(rng.normal(size=(p, min(rank, p))))
        curv = LowRankFisher(q, rng.random(q.shape[1]) * 10.0)
    else:
        a = rng.normal(size=(p, p))
        h = (a + a.T) / 2.0  # indefinite in general; lam clears its lowest eigenvalue
        curv = DenseCurvature(h)
        lam = lam + max(0.0, -float(np.linalg.eigvalsh(h)[0]))
    rhs = rng.normal(size=p)
    before = [a.copy() for a in vars(curv).values()]
    rhs_before = rhs.copy()
    x = regularized_solve(curv, lam, rhs)
    want = np.linalg.solve(materialize(curv) + lam * np.eye(p), rhs)
    assert np.max(np.abs(x - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))
    after = list(vars(curv).values())
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert np.array_equal(rhs, rhs_before)


def test_dense_solve_and_pd_guard():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    h = a @ a.T  # PSD
    est = DenseCurvature(h)
    rhs = rng.normal(size=8)
    x = regularized_solve(est, 0.5, rhs)
    assert np.max(np.abs((h + 0.5 * np.eye(8)) @ x - rhs)) < 1e-8
    neg = DenseCurvature(np.diag([-2.0, 1.0]))
    with pytest.raises(ValueError, match="positive definite"):
        regularized_solve(neg, 1.5, np.ones(2))  # needs lambda > 2
    ok = regularized_solve(neg, 2.5, np.ones(2))
    assert np.allclose(ok, [2.0, 1.0 / 3.5])
