"""The one check for "the same bits" between two arrays, and the one-cell
plan of a runner called on its own.

`np.array_equal` counts -0.0 equal to +0.0 (and NaN unequal to itself,
or equal to any NaN with `equal_nan`), so it cannot tell whether two
computations gave the same bits. `same_bits` compares the dtype, the
shape and the raw 64-bit words; so a run that overflowed without a
nonfinite loss (the loss is checked before each step) must hold the same
NaN bits in the same places as its reference.
"""

import numpy as np

from hiercl.memo import ArrivalPlan
from hiercl.pipeline import arrival_groups, membership_chain


def same_bits(got, want) -> bool:
    """Whether two arrays of 8-byte items have the same dtype, shape and
    bit patterns."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


def lone_plan(perm, group_size: int | None = None) -> ArrivalPlan:
    """The plan of one cell that runs the arrival order `perm` (a
    Permutation or a sequence of task ids): run_baseline_seq and
    fed_compare_run key it by the order, run_pipeline by the group
    memberships of `group_size` tasks."""
    order = tuple(int(t) for t in perm)
    if group_size is None:
        return ArrivalPlan([order])
    return ArrivalPlan([membership_chain(arrival_groups(order, group_size))])
