"""Tests for the closed-form consolidation step, the hierarchy recursion,
catch-up, and the two-step identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from hiercl.consolidation import (
    HierarchyState,
    catch_up,
    init_hierarchy,
    lambda_schedule,
    multi_level_consolidate,
    surrogate_value,
    taylor_consolidate,
)
from hiercl.curvature import (DiagFisher, LowRankFisher, estimate_diag_curvature,
                              estimate_gradient)
from hiercl.model import Batch, ModelSpec, init_params, sample_factors
from consolidation_reference import (DenseCurvature, descent_reference_min, materialize,
                                     two_step_recursive_check)


def _dense_psd(rng, p, shift=0.0):
    a = rng.normal(size=(p, p))
    h = a @ a.T / p + shift * np.eye(p)
    return DenseCurvature(h)


def _zero_diag(p):
    return DiagFisher(np.zeros(p))


def test_state_validation():
    with pytest.raises(ValueError):
        HierarchyState([], ())
    with pytest.raises(ValueError):
        HierarchyState([np.zeros(3), np.zeros(4)], (1.0, 1.0))
    with pytest.raises(ValueError):
        HierarchyState([np.zeros(3)], (0.0,))
    # a nonfinite lambda is refused here, not at the first solve
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^lambdas must be positive and finite"):
            HierarchyState([np.zeros(3), np.zeros(3)], (1.0, bad))
    with pytest.raises(ValueError):
        HierarchyState([np.zeros(3)], (1.0, 1.0))
    st = HierarchyState([np.zeros(3), np.ones(3)], (1.0, 2.0))
    assert np.array_equal(st.top, np.ones(3))


def test_lambda_schedule():
    assert lambda_schedule(2.0, 3) == (2.0, 2.0, 2.0)
    assert lambda_schedule(2.0, 3, factor=0.5) == (2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        lambda_schedule(0.0, 2)


def test_zero_grad_zero_curv_lands_on_target():
    rng = np.random.default_rng(0)
    for lam in (0.1, 1.0, 10.0):
        w_prev = rng.normal(size=6)
        w_target = rng.normal(size=6)
        out = taylor_consolidate(w_prev, w_target, np.zeros(6), _zero_diag(6), lam)
        assert np.max(np.abs(out - w_target)) < 1e-12


def test_noop_when_target_and_grad_vanish():
    w = np.arange(5, dtype=np.float64)
    out = taylor_consolidate(w, w, np.zeros(5), _zero_diag(5), 3.0)
    assert np.array_equal(out, w)


def test_closed_form_matches_descent_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        p = 12
        curv = _dense_psd(rng, p)
        g = rng.normal(size=p)
        dd = rng.normal(size=p)
        lam = float(rng.uniform(0.2, 3.0))
        w_prev = rng.normal(size=p)
        out = taylor_consolidate(w_prev, w_prev + dd, g, curv, lam)
        ref = descent_reference_min(g, curv, lam, dd)
        rel = np.linalg.norm((out - w_prev) - ref) / max(np.linalg.norm(ref), 1e-12)
        assert rel < 1e-6


@settings(max_examples=150, deadline=None)
@given(variant=strategies.sampled_from(("diagonal", "lowrank", "dense")),
       p=strategies.integers(1, 30),
       rank=strategies.integers(0, 30),
       lam=strategies.floats(0.05, 20.0),
       clip=strategies.floats(1e-3, 10.0),
       seed=strategies.integers(0, 2**32 - 1))
def test_step_solves_the_regularized_system_and_clips_along_it(variant, p, rank, lam,
                                                              clip, seed):
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
    g, dd = rng.normal(size=p), rng.normal(size=p)
    # from w_prev = 0 the returned weights are the step itself, bit for bit
    dw = taylor_consolidate(np.zeros(p), dd, g, curv, lam, eta=1.0, clip=None)
    a = materialize(curv) + lam * np.eye(p)
    b = lam * dd - g
    scale = max(1.0, float(np.max(np.abs(a) @ np.abs(dw))), float(np.max(np.abs(b))))
    assert np.max(np.abs(a @ dw - b)) <= 1e-10 * scale

    clipped = taylor_consolidate(np.zeros(p), dd, g, curv, lam, eta=1.0, clip=clip)
    norm = float(np.linalg.norm(dw))
    assert np.linalg.norm(clipped) <= clip * (1 + 1e-12)
    # parallel to the unclipped step, shortened only when it was too long
    shrink = min(1.0, clip / norm) if norm > 0 else 1.0
    assert np.max(np.abs(clipped - shrink * dw)) <= 1e-12 * max(clip, norm)


def test_minimizer_beats_local_perturbations():
    rng = np.random.default_rng(2)
    p = 10
    curv = _dense_psd(rng, p)
    g = rng.normal(size=p)
    dd = rng.normal(size=p)
    lam = 0.7
    dw = taylor_consolidate(np.zeros(p), dd, g, curv, lam)
    base = surrogate_value(dw, g, curv, lam, dd)
    for _ in range(100):
        u = rng.normal(size=p)
        u /= np.linalg.norm(u)
        assert surrogate_value(dw + 1e-3 * u, g, curv, lam, dd) >= base


def test_eta_damps_and_clip_bounds_the_step():
    rng = np.random.default_rng(3)
    w_prev = rng.normal(size=8)
    w_target = w_prev + rng.normal(size=8)
    g = rng.normal(size=8)
    curv = _dense_psd(rng, 8)
    full = taylor_consolidate(w_prev, w_target, g, curv, 1.0, eta=1.0)
    damped = taylor_consolidate(w_prev, w_target, g, curv, 1.0, eta=0.5)
    assert np.max(np.abs((damped - w_prev) - 0.5 * (full - w_prev))) < 1e-12
    tight = taylor_consolidate(w_prev, w_target, g, curv, 1.0, eta=1.0, clip=1e-3)
    assert np.linalg.norm(tight - w_prev) <= 1e-3 + 1e-15


def test_larger_lambda_pulls_closer_to_target():
    rng = np.random.default_rng(4)
    p = 10
    curv = _dense_psd(rng, p)
    g = rng.normal(size=p)
    w_prev = rng.normal(size=p)
    w_target = w_prev + rng.normal(size=p)
    dists = []
    for lam in (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
        out = taylor_consolidate(w_prev, w_target, g, curv, lam)
        dists.append(float(np.linalg.norm(out - w_target)))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0]


def test_init_hierarchy_copies_every_level():
    w = np.arange(4, dtype=np.float64)
    out = init_hierarchy(w, (1.0, 2.0, 3.0))
    assert out.lambdas == (1.0, 2.0, 3.0)
    for level in out.levels:
        assert np.array_equal(level, w)
    out.levels[0][:] = -1.0  # copies, not views
    assert np.array_equal(out.levels[1], w)
    assert np.array_equal(w, np.arange(4, dtype=np.float64))


def test_single_level_equals_plain_step():
    rng = np.random.default_rng(5)
    p = 7
    w0 = rng.normal(size=p)
    w_local = rng.normal(size=p)
    g = rng.normal(size=p)
    curv = _dense_psd(rng, p)
    st = HierarchyState([w0], (1.3,))
    new, norms = multi_level_consolidate(st, w_local, lambda w: (g, curv), eta=0.9, clip=1.0)
    direct = taylor_consolidate(w0, w_local, g, curv, 1.3, eta=0.9, clip=1.0)
    assert np.array_equal(new.levels[0], direct)
    assert len(norms) == 1
    assert abs(norms[0] - np.linalg.norm(direct - w0)) < 1e-15


def test_cascaded_identity_collapses_all_levels():
    rng = np.random.default_rng(6)
    p = 5
    st = init_hierarchy(rng.normal(size=p), (0.5, 1.0, 2.0))
    st = HierarchyState([rng.normal(size=p) for _ in range(3)], st.lambdas)
    w_local = rng.normal(size=p)
    zero = lambda w: (np.zeros(p), _zero_diag(p))
    new, _ = multi_level_consolidate(st, w_local, zero, eta=1.0, clip=None)
    for level in new.levels:
        assert np.max(np.abs(level - w_local)) < 1e-12


def test_levels_update_in_order_each_chasing_the_one_below():
    rng = np.random.default_rng(7)
    p = 6
    st = HierarchyState([rng.normal(size=p) for _ in range(3)], (1.0, 1.0, 1.0))
    w_local = rng.normal(size=p)
    g = rng.normal(size=p) * 0.1
    curv = _dense_psd(rng, p)
    new, norms = multi_level_consolidate(st, w_local, lambda w: (g, curv), eta=0.9, clip=None)
    target = w_local
    for i in range(3):
        want = taylor_consolidate(st.levels[i], target, g, curv, 1.0, eta=0.9, clip=None)
        assert np.array_equal(new.levels[i], want)
        target = want
    assert len(norms) == 3


def test_levels_with_the_bits_of_the_level_below_share_its_estimates():
    # group 1 at L=3: init_hierarchy made every level a copy of the local
    # model, so one (g, H) serves all three
    spec = ModelSpec((3, 5, 2))
    rng = np.random.default_rng(11)
    pool = Batch(rng.normal(size=(30, 3)), rng.integers(0, 2, size=30))
    calls = []

    def estimate(w):
        calls.append(w)
        factors = sample_factors(w, pool, spec)[1]
        return estimate_gradient(factors, spec), estimate_diag_curvature(factors, spec)

    def per_level(state, w_local):
        """Every level evaluates its own estimates."""
        levels, target = [], w_local
        for w, lam in zip(state.levels, state.lambdas):
            target = taylor_consolidate(w, target, *estimate(w), lam, eta=0.9, clip=0.5)
            levels.append(target)
        return levels

    lambdas = lambda_schedule(0.3, 3, 0.5)
    state = init_hierarchy(init_params(spec, 1), lambdas)
    w_local = init_params(spec, 2)
    new, _ = multi_level_consolidate(state, w_local, estimate, eta=0.9, clip=0.5)
    assert len(calls) == 1
    want = per_level(state, w_local)
    assert all(np.array_equal(a, b) for a, b in zip(new.levels, want))
    # distinct levels each get their own estimates
    calls.clear()
    newer, _ = multi_level_consolidate(new, w_local, estimate, eta=0.9, clip=0.5)
    assert len(calls) == 3
    assert all(np.array_equal(a, b) for a, b in zip(newer.levels, per_level(new, w_local)))
    # equal values are not enough: -0.0 and 0.0 have different bits
    w = init_params(spec, 3)  # biases are 0.0
    signed = w.copy()
    signed[spec.param_count - 1] = -0.0
    calls.clear()
    multi_level_consolidate(HierarchyState([w, w, signed], lambdas), w_local, estimate)
    assert len(calls) == 2


def test_catch_up_zero_iterations_is_identity():
    rng = np.random.default_rng(8)
    st = init_hierarchy(rng.normal(size=4), (1.0, 1.0))
    zero = lambda w: (np.zeros(4), _zero_diag(4))
    new, norms = catch_up(st, rng.normal(size=4), zero, n_catch=0)
    assert norms == []
    for a, b in zip(st.levels, new.levels):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        catch_up(st, st.top, zero, n_catch=-1)


def test_catch_up_identity_curvature_is_idempotent_at_target():
    rng = np.random.default_rng(9)
    p = 5
    st = HierarchyState([rng.normal(size=p) for _ in range(2)], (1.0, 1.0))
    target = rng.normal(size=p)
    zero = lambda w: (np.zeros(p), _zero_diag(p))
    new, norms = catch_up(st, target, zero, n_catch=3, eta=1.0, clip=None)
    # first pass lands every level on the target (within an ulp of the
    # w_prev + dd arithmetic); later passes only mop up rounding residue
    assert len(norms) == 3
    for level in new.levels:
        assert np.max(np.abs(level - target)) < 1e-12
    assert max(norms[1]) < 1e-12 and max(norms[2]) < 1e-12


def test_catch_up_objective_nonincreasing_on_fixed_quadratic():
    # a true quadratic loss: the estimate is its exact gradient and Hessian,
    # so each pass is a damped Newton step on J(w) + (lam/2)||w - target||^2
    rng = np.random.default_rng(10)
    p = 8
    h = _dense_psd(rng, p, shift=0.5)
    hm = materialize(h)
    w_star = rng.normal(size=p)
    target = rng.normal(size=p)
    lam = 0.8

    def objective(w):
        d = w - w_star
        r = w - target
        return 0.5 * d @ hm @ d + 0.5 * lam * r @ r

    cur = HierarchyState([rng.normal(size=p)], (lam,))
    values = [objective(cur.levels[0])]
    for _ in range(6):
        cur, _ = catch_up(cur, target, lambda w: (hm @ (w - w_star), h),
                          n_catch=1, eta=0.7, clip=None)
        values.append(objective(cur.levels[0]))
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_two_step_identity_random_instances():
    rng = np.random.default_rng(11)
    for lam in (0.1, 1.0, 10.0):
        for _ in range(10):
            p = 9
            w0 = rng.normal(size=p)
            t1 = rng.normal(size=p)
            t2 = rng.normal(size=p)
            c0 = _dense_psd(rng, p)
            c1 = DiagFisher(np.abs(rng.normal(size=p)))
            g0 = rng.normal(size=p)
            g1 = rng.normal(size=p)
            diff = two_step_recursive_check(w0, (t1, t2), (g0, c0), (g1, c1), lam)
            assert diff <= 1e-10


def test_two_step_identity_degenerate_case():
    p = 6
    w0 = np.zeros(p)
    t2 = np.full(p, 2.0)
    diff = two_step_recursive_check(
        w0, (np.ones(p), t2), (np.zeros(p), _zero_diag(p)), (np.zeros(p), _zero_diag(p)), 0.5
    )
    assert diff == 0.0


def save_hierarchy(path: str, state: HierarchyState):
    """Flat text snapshot, one line per level: level index, lambda, the p
    weight values."""
    with open(path, "w") as fh:
        for i, (w, lam) in enumerate(zip(state.levels, state.lambdas)):
            vals = " ".join(repr(float(v)) for v in w)
            fh.write(f"{i} {lam!r} {vals}\n")


def load_hierarchy(path: str) -> HierarchyState:
    with open(path) as fh:
        levels, lambdas = [], []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            lambdas.append(float(parts[1]))
            levels.append(np.array([float(v) for v in parts[2:]]))
    return HierarchyState(levels, tuple(lambdas))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    st = HierarchyState([rng.normal(size=6) for _ in range(3)], (0.5, 1.0, 2.0))
    path = str(tmp_path / "hier.txt")
    save_hierarchy(path, st)
    back = load_hierarchy(path)
    assert back.lambdas == st.lambdas
    for a, b in zip(st.levels, back.levels):
        assert np.array_equal(a, b)
