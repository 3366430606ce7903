"""Tests for task generators, grouping and permutation enumeration."""

import os
import tempfile

import numpy as np
import pytest
from bits import same_bits
from hypothesis import given, settings
from hypothesis import strategies as st
from tasks_reference import load_tasks

from hiercl import tasks as tasks_module
from hiercl.model import Batch, ModelSpec, accuracy_eval, init_params
from hiercl.tasks import (
    Permutation,
    TaskGroup,
    dump_tasks,
    enumerate_intra_group_perms,
    gen_permuted_features,
    gen_sine_tasks,
    gen_split_gaussians,
    partition_into_groups,
    sample_full_permutations,
    task_accuracies,
)


def test_permutation_rejects_repeats():
    with pytest.raises(ValueError):
        Permutation((0, 1, 1))
    assert Permutation((2, 0, 1)).label() == "2-0-1"
    assert list(Permutation((2, 0, 1))) == [2, 0, 1]


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_task_accuracies_score_each_test_shape_once_with_the_lone_bits(monkeypatch, kind):
    if kind == "classification":
        spec = ModelSpec((4, 7, 6))
        tasks = gen_split_gaussians(6, 2, 4, 10, 1.0, seed=3, val_per_class=4, test_per_class=9)
    else:
        spec = ModelSpec((1, 9, 1), task_kind="regression")
        tasks = gen_sine_tasks(3, 3)
    # one test set cut short, so a stack of two test sets and one of one
    t = tasks[1]
    tasks[1] = type(t)(t.task_id, t.train, t.val, Batch(t.test.inputs[:-3], t.test.targets[:-3]))
    n, width = tasks[0].test.n, sum(spec.layer_widths[1:])
    # three rows of the two-set stack's layer outputs at a time
    bound = 3 * 8 * 2 * n * width
    monkeypatch.setattr(tasks_module, "SCORE_STACK_BYTES", bound)
    calls = []

    def counting(params, batch, spec):
        calls.append((params.shape[0], *batch.inputs.shape[:2]))
        return accuracy_eval(params, batch, spec)

    monkeypatch.setattr(tasks_module, "accuracy_eval", counting)
    for rows in (None, 1, 7):  # a vector, a one-row stack, more rows than one sub-stack
        w = (init_params(spec, 5) if rows is None
             else np.stack([init_params(spec, 5 + r) for r in range(rows)]))
        calls.clear()
        got = task_accuracies(w, tasks, spec)
        # each shape's rows are scored once, in sub-stacks within the bound
        per_shape = {}
        for lead, sets, samples in calls:
            per_shape[sets, samples] = per_shape.get((sets, samples), 0) + lead
            assert lead == 1 or 8 * lead * sets * samples * width <= bound
        assert per_shape == {(2, n): rows or 1, (1, n - 3): rows or 1}
        # 7 rows: 3 + 3 + 1 of the two-set stack; of the one-set stack, whose
        # rows are smaller, all 7 (n = 18) or 6 + 1 (n = 100)
        assert len(calls) == (2 if rows in (None, 1) else 4 + (kind == "regression"))
        want = np.array([[accuracy_eval(v, t.test, spec) for t in tasks]
                         for v in np.atleast_2d(w)])
        assert same_bits(got, want[0] if rows is None else want)
        if rows:  # each row has the bits of the vector call on it
            assert all(same_bits(got[r], task_accuracies(w[r], tasks, spec))
                       for r in range(rows))


def test_split_gaussians_shapes_and_classes():
    tasks = gen_split_gaussians(
        num_classes=10, classes_per_task=2, dim=4, samples_per_class=15, spread=2.0, seed=0,
        val_per_class=4, test_per_class=15,
    )
    assert len(tasks) == 5
    for t, task in enumerate(tasks):
        assert task.task_id == t
        assert task.class_ids == (2 * t, 2 * t + 1)
        assert task.train.inputs.shape == (30, 4)
        assert set(np.unique(task.train.targets)) == set(task.class_ids)
        # splits are disjoint draws, not shared arrays
        assert task.train.n and task.val.n and task.test.n


def test_split_gaussians_last_task_absorbs_remainder():
    tasks = gen_split_gaussians(
        num_classes=7, classes_per_task=2, dim=3, samples_per_class=5, spread=1.0, seed=1,
        val_per_class=4, test_per_class=5,
    )
    assert len(tasks) == 3
    assert tasks[-1].class_ids == (4, 5, 6)
    assert tasks[-1].train.n == 15


def test_split_gaussians_deterministic():
    a = gen_split_gaussians(4, 2, 3, 6, 1.5, 9, 4, 6)
    b = gen_split_gaussians(4, 2, 3, 6, 1.5, 9, 4, 6)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train.inputs, tb.train.inputs)
        assert np.array_equal(ta.test.targets, tb.test.targets)


def test_permuted_features_task0_identity():
    tasks = gen_permuted_features(3, num_classes=4, dim=6, samples_per_class=10, spread=2.0, seed=2,
                                  val_per_class=4, test_per_class=10)
    assert len(tasks) == 3
    base = tasks[0]
    for task in tasks[1:]:
        # same multiset of feature values per sample, permuted columns
        assert np.allclose(np.sort(task.train.inputs, axis=1), np.sort(base.train.inputs, axis=1))
        assert np.array_equal(task.train.targets, base.train.targets)
    assert not np.array_equal(tasks[1].train.inputs, base.train.inputs)


def test_sine_tasks_bounded_targets():
    tasks = gen_sine_tasks(4, seed=3, samples_per_task=50)
    assert len(tasks) == 4
    for task in tasks:
        assert task.train.inputs.shape == (50, 1)
        assert task.train.targets.shape == (50, 1)
        # noiseless: |y| <= the largest amplitude of SINE_AMPLITUDES
        assert np.max(np.abs(task.train.targets)) <= 2.0 + 1e-12


def test_generators_draw_the_given_counts_and_reject_bad_ones():
    base = dict(num_classes=4, classes_per_task=2, dim=3, samples_per_class=8, spread=2.0,
                seed=0, val_per_class=4, test_per_class=8)
    task = gen_split_gaussians(**base)[0]
    assert task.val.n == 2 * 4 and task.test.n == 2 * 8
    for bad in (dict(val_per_class=0), dict(test_per_class=0), dict(test_per_class=-1)):
        with pytest.raises(ValueError, match="counts must be positive"):
            gen_split_gaussians(**{**base, **bad})
    with pytest.raises(ValueError, match="spread must be nonnegative and finite"):
        gen_split_gaussians(**{**base, "spread": float("nan")})
    with pytest.raises(ValueError, match="noise_std must be nonnegative and finite"):
        gen_sine_tasks(2, 0, noise_std=-1.0)


def test_partition_sizes():
    groups = partition_into_groups(10, 3)
    assert [g.task_ids for g in groups] == [(0, 1, 2), (3, 4, 5), (6, 7, 8, 9)]
    assert [g.group_index for g in groups] == [0, 1, 2]
    groups = partition_into_groups(6, 2)
    assert [len(g.task_ids) for g in groups] == [2, 2, 2]
    assert partition_into_groups(3, 3) == [TaskGroup(0, (0, 1, 2))]
    with pytest.raises(ValueError, match="group size 5 exceeds the number of tasks 3"):
        partition_into_groups(3, 5)
    with pytest.raises(ValueError):
        partition_into_groups(5, 0)


def test_enumerate_perms_lexicographic_over_sorted_ids():
    group = TaskGroup(0, (5, 3, 4))
    perms = enumerate_intra_group_perms(group)
    assert len(perms) == 6
    orders = [p.order for p in perms]
    assert orders[0] == (3, 4, 5)
    assert orders == sorted(orders)
    # membership alone decides the enumeration
    same = enumerate_intra_group_perms(TaskGroup(1, (4, 5, 3)))
    assert [p.order for p in same] == orders


def test_enumerate_perms_guards():
    with pytest.raises(ValueError):
        enumerate_intra_group_perms(TaskGroup(0, tuple(range(7))))
    # the count is the group's prefix trie: sum_j k!/(k-j)!
    with pytest.warns(UserWarning, match=r"^group size 5 costs 325 task trainings, one per "
                                         r"ordering prefix$"):
        enumerate_intra_group_perms(TaskGroup(0, tuple(range(5))))
    with pytest.warns(UserWarning, match=r"^group size 6 costs 1956 task trainings"):
        enumerate_intra_group_perms(TaskGroup(0, tuple(range(6))))


def test_sample_full_permutations_exhaustive():
    perms = sample_full_permutations(3, 6, seed=0)
    assert len(perms) == 6
    assert sorted(p.order for p in perms) == [p.order for p in perms]
    # budget below total: distinct uniform samples
    sampled = sample_full_permutations(5, 10, seed=0)
    assert len(sampled) == 10
    assert len({p.order for p in sampled}) == 10
    again = sample_full_permutations(5, 10, seed=0)
    assert [p.order for p in again] == [p.order for p in sampled]


def test_dump_load_roundtrip_classification(tmp_path):
    tasks = gen_split_gaussians(4, 2, 3, 5, 1.0, 4, 4, 5)
    path = str(tmp_path / "tasks.txt")
    dump_tasks(tasks, path)
    back = load_tasks(path)
    assert len(back) == len(tasks)
    for a, b in zip(tasks, back):
        assert a.task_id == b.task_id
        assert a.class_ids == b.class_ids
        for split in ("train", "val", "test"):
            sa, sb = getattr(a, split), getattr(b, split)
            assert np.array_equal(sa.inputs, sb.inputs)
            assert np.array_equal(sa.targets, sb.targets)


def test_dump_load_roundtrip_regression(tmp_path):
    tasks = gen_sine_tasks(2, seed=5, samples_per_task=12)
    path = str(tmp_path / "sine.txt")
    dump_tasks(tasks, path)
    back = load_tasks(path, task_kind="regression")
    for a, b in zip(tasks, back):
        for split in ("train", "val", "test"):
            sa, sb = getattr(a, split), getattr(b, split)
            assert np.array_equal(sa.inputs, sb.inputs)
            assert np.array_equal(sa.targets, sb.targets)
            assert sb.targets.shape == sa.targets.shape


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("gaussians", "permuted", "sine")),
       count=st.integers(1, 4),
       classes=st.integers(1, 5),
       dim=st.integers(1, 5),
       per=st.integers(1, 6),
       noise=st.sampled_from((0.0, 0.3)),
       seed=st.integers(0, 2**32 - 1))
def test_dump_load_roundtrip(kind, count, classes, dim, per, noise, seed):
    if kind == "gaussians":
        tasks = gen_split_gaussians(count * classes, classes, dim, per, 1.5, seed,
                                    max(4, per // 4), per)
    elif kind == "permuted":
        tasks = gen_permuted_features(count, classes, dim, per, 1.5, seed, max(4, per // 4), per)
    else:
        tasks = gen_sine_tasks(count, seed, samples_per_task=per, noise_std=noise)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tasks.txt")
        dump_tasks(tasks, path)
        back = load_tasks(path, "regression" if kind == "sine" else "classification")
    assert [t.task_id for t in back] == [t.task_id for t in tasks]
    for a, b in zip(tasks, back):
        assert a.class_ids == b.class_ids
        for split in ("train", "val", "test"):
            sa, sb = getattr(a, split), getattr(b, split)
            for want, got in ((sa.inputs, sb.inputs), (sa.targets, sb.targets)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
