"""Tests for the closed-form consolidation step, the hierarchy recursion,
catch-up, and the two-step identity."""

import numpy as np
import pytest

from hiercl.consolidation import (
    HierarchyState,
    catch_up,
    descent_reference_min,
    init_hierarchy,
    initialize_from_local,
    lambda_schedule,
    multi_level_consolidate,
    surrogate_value,
    taylor_consolidate,
    two_step_recursive_check,
)
from hiercl.curvature import CurvatureEstimate, materialize


def _dense_psd(rng, p, shift=0.0):
    a = rng.normal(size=(p, p))
    h = a @ a.T / p + shift * np.eye(p)
    return CurvatureEstimate("dense", matrix=h)


def _zero_diag(p):
    return CurvatureEstimate("diagonal", diag=np.zeros(p))


def test_state_validation():
    with pytest.raises(ValueError):
        HierarchyState([], ())
    with pytest.raises(ValueError):
        HierarchyState([np.zeros(3), np.zeros(4)], (1.0, 1.0))
    with pytest.raises(ValueError):
        HierarchyState([np.zeros(3)], (0.0,))
    with pytest.raises(ValueError):
        HierarchyState([np.zeros(3)], (1.0, 1.0))
    st = HierarchyState([np.zeros(3), np.ones(3)], (1.0, 2.0))
    assert st.num_levels == 2
    assert np.array_equal(st.top, np.ones(3))


def test_lambda_schedule():
    assert lambda_schedule(2.0, 3) == (2.0, 2.0, 2.0)
    assert lambda_schedule(2.0, 3, factor=0.5) == (2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        lambda_schedule(0.0, 2)


def test_clone_is_deep():
    st = init_hierarchy(np.zeros(4), (1.0, 1.0))
    twin = st.clone()
    twin.levels[0][:] = 5.0
    assert np.all(st.levels[0] == 0.0)


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


def test_initialize_from_local_copies_every_level():
    st = init_hierarchy(np.zeros(4), (1.0, 2.0, 3.0))
    w = np.arange(4, dtype=np.float64)
    out = initialize_from_local(st, w)
    assert out.group_counter == 1
    for level in out.levels:
        assert np.array_equal(level, w)
    out.levels[0][:] = -1.0  # copies, not views
    assert np.array_equal(out.levels[1], w)


def test_single_level_equals_plain_step():
    rng = np.random.default_rng(5)
    p = 7
    w0 = rng.normal(size=p)
    w_local = rng.normal(size=p)
    g = rng.normal(size=p)
    curv = _dense_psd(rng, p)
    st = HierarchyState([w0.copy()], (1.3,), group_counter=1)
    new, norms = multi_level_consolidate(st, w_local, lambda w: g, lambda w: curv,
                                         eta=0.9, clip=1.0)
    direct = taylor_consolidate(w0, w_local, g, curv, 1.3, eta=0.9, clip=1.0)
    assert np.array_equal(new.levels[0], direct)
    assert new.group_counter == 2
    assert len(norms) == 1
    assert abs(norms[0] - np.linalg.norm(direct - w0)) < 1e-15


def test_cascaded_identity_collapses_all_levels():
    rng = np.random.default_rng(6)
    p = 5
    st = init_hierarchy(rng.normal(size=p), (0.5, 1.0, 2.0))
    st = HierarchyState([rng.normal(size=p) for _ in range(3)], st.lambdas, 1)
    w_local = rng.normal(size=p)
    zero = lambda w: np.zeros(p)
    new, _ = multi_level_consolidate(st, w_local, zero, lambda w: _zero_diag(p),
                                     eta=1.0, clip=None)
    for level in new.levels:
        assert np.max(np.abs(level - w_local)) < 1e-12


def test_levels_update_in_order_each_chasing_the_one_below():
    rng = np.random.default_rng(7)
    p = 6
    st = HierarchyState([rng.normal(size=p) for _ in range(3)], (1.0, 1.0, 1.0), 1)
    w_local = rng.normal(size=p)
    g = rng.normal(size=p) * 0.1
    curv = _dense_psd(rng, p)
    new, norms = multi_level_consolidate(st, w_local, lambda w: g, lambda w: curv,
                                         eta=0.9, clip=None)
    target = w_local
    for i in range(3):
        want = taylor_consolidate(st.levels[i], target, g, curv, 1.0, eta=0.9, clip=None)
        assert np.array_equal(new.levels[i], want)
        target = want
    assert len(norms) == 3


def test_catch_up_zero_iterations_is_identity():
    rng = np.random.default_rng(8)
    st = init_hierarchy(rng.normal(size=4), (1.0, 1.0))
    new, norms = catch_up(st, rng.normal(size=4), lambda w: np.zeros(4),
                          lambda w: _zero_diag(4), n_catch=0)
    assert norms == []
    for a, b in zip(st.levels, new.levels):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        catch_up(st, st.top, lambda w: np.zeros(4), lambda w: _zero_diag(4), n_catch=-1)


def test_catch_up_identity_curvature_is_idempotent_at_target():
    rng = np.random.default_rng(9)
    p = 5
    st = HierarchyState([rng.normal(size=p) for _ in range(2)], (1.0, 1.0), 1)
    target = rng.normal(size=p)
    zero = lambda w: np.zeros(p)
    new, norms = catch_up(st, target, zero, lambda w: _zero_diag(p),
                          n_catch=3, eta=1.0, clip=None)
    # first pass lands every level on the target (within an ulp of the
    # w_prev + dd arithmetic); later passes only mop up rounding residue
    assert len(norms) == 3
    for level in new.levels:
        assert np.max(np.abs(level - target)) < 1e-12
    assert max(norms[1]) < 1e-12 and max(norms[2]) < 1e-12


def test_catch_up_objective_nonincreasing_on_fixed_quadratic():
    # a true quadratic loss: grad_fn is its exact gradient, curv its Hessian,
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

    cur = HierarchyState([rng.normal(size=p)], (lam,), 1)
    values = [objective(cur.levels[0])]
    for _ in range(6):
        cur, _ = catch_up(cur, target, lambda w: hm @ (w - w_star), lambda w: h,
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
            c1 = CurvatureEstimate("diagonal", diag=np.abs(rng.normal(size=p)))
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
    """Flat text snapshot: first line the group counter, then one line per
    level: level index, lambda, the p weight values."""
    with open(path, "w") as fh:
        fh.write(f"{state.group_counter}\n")
        for i, (w, lam) in enumerate(zip(state.levels, state.lambdas)):
            vals = " ".join(repr(float(v)) for v in w)
            fh.write(f"{i} {lam!r} {vals}\n")


def load_hierarchy(path: str) -> HierarchyState:
    with open(path) as fh:
        counter = int(fh.readline())
        levels, lambdas = [], []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            lambdas.append(float(parts[1]))
            levels.append(np.array([float(v) for v in parts[2:]]))
    return HierarchyState(levels, tuple(lambdas), counter)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    st = HierarchyState([rng.normal(size=6) for _ in range(3)], (0.5, 1.0, 2.0), 4)
    path = str(tmp_path / "hier.txt")
    save_hierarchy(path, st)
    back = load_hierarchy(path)
    assert back.group_counter == 4
    assert back.lambdas == st.lambdas
    for a, b in zip(st.levels, back.levels):
        assert np.array_equal(a, b)
