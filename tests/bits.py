"""The one check for "the same bits" between two arrays.

`np.array_equal` counts -0.0 equal to +0.0 (and NaN unequal to itself,
or equal to any NaN with `equal_nan`), so it cannot tell whether two
computations gave the same bits. `same_bits` compares the dtype, the
shape and the raw 64-bit words; so a run that overflowed without a
nonfinite loss (the loss is checked before each step) must hold the same
NaN bits in the same places as its reference.
"""

import numpy as np


def same_bits(got, want) -> bool:
    """Whether two arrays of 8-byte items have the same dtype, shape and
    bit patterns."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))
