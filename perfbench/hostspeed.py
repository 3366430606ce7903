"""Host speed, measured by a fixed reference kernel run between cells.

On a shared host the speed of this machine's CPUs drifts by 20% and
more over minutes, so no run length averages it out. Work driven by the
Python interpreter through small numpy calls slows down and speeds up
in step with a reference kernel of the same kind run right next to it.
So the benchmark runs a fixed reference kernel, in slices, right after
every cell, and divides the cell's time by how slow the reference ran:
a timing is reported in seconds at the host speed at which one slice
takes NOMINAL_SLICE_S. A change to the program does not change the
reference, so it moves the scaled timing as much as the raw one.

The kernel is the shape of most of the program's work: a forward and
backward pass of a small ReLU network through numpy, driven from a
Python loop. Work on large arrays does not follow it (see the
workloads' `host_scaled`).
"""

from __future__ import annotations

import gc
import statistics
import time

# a typical median slice time on a 2-vCPU Xeon VM (numpy 2.4, one BLAS
# thread); it only fixes the unit of the scaled timings
NOMINAL_SLICE_S = 0.0042
# reference seconds run after a cell, per second the cell took
DUTY = 0.5
_STEPS = 200


class HostSpeed:
    """Runs reference slices and keeps how long each took."""

    def __init__(self):
        import numpy as np  # not at import time: set-up probes time numpy's import
        self._np = np
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 8))
        self._w = rng.standard_normal((8, 16))
        self._v = rng.standard_normal((16, 4))
        self.busy_s = 0.0       # wall time spent in sample(), loop included

    def slice(self) -> float:
        """One fixed slice of reference work; returns its wall time. The
        cyclic collector is off meanwhile, so that the program's heap
        does not bill its scans to the reference."""
        np = self._np
        x, v, w = self._x, self._v, self._w.copy()
        was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(_STEPS):
            h = np.maximum(x @ w, 0.0)
            o = h @ v
            e = np.exp(o - o.max(axis=1, keepdims=True))
            w -= 1e-6 * (x.T @ (e @ v.T))
        elapsed = time.perf_counter() - start
        if was_enabled:
            gc.enable()
        return elapsed

    def sample(self, busy: float) -> list[float]:
        """Slices worth DUTY * `busy` seconds, at least one."""
        start = time.perf_counter()
        times = [self.slice()]
        while sum(times) < DUTY * busy:
            times.append(self.slice())
        self.busy_s += time.perf_counter() - start
        return times


def slowdown(slice_times) -> float:
    """How much slower than nominal the host ran these slices."""
    return statistics.median(slice_times) / NOMINAL_SLICE_S
