"""Results do not depend on the BLAS thread count.

A tiny sweep of hier, seq and fedavg (seq and fed score each trie stack
in one stacked forward pass) and one pool's gradient and diagonal Fisher,
from one pass's factors, run in two child processes, one at OPENBLAS_NUM_THREADS=1 and one at 2, set before numpy
loads. OpenBLAS splits a long sum between threads (a 1-D dot of more than
10,000 entries, say), and a split sum can round differently, so a product
put on such an axis would show here as a changed bit.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from bits import same_bits

import hiercl

SRC = Path(hiercl.__file__).resolve().parents[1]

# argv: the CSV path, then the .npz path for the pool's gradient and Fisher diagonal
CHILD = """
import sys
import numpy as np
from hiercl.cli import main
from hiercl.curvature import estimate_diag_curvature, estimate_gradient
from hiercl.model import Batch, ModelSpec, init_params, sample_factors

sets = ["dataset.num_classes=8", "dataset.classes_per_task=2", "learner.kind=er",
        "run.group_size=2", "run.hidden=128", "run.perms=2", "run.seeds=0",
        "run.methods=hier,seq,fedavg", "run.out=" + sys.argv[1]]
assert main(["run", *(a for s in sets for a in ("--set", s))]) == 0
# the consolidate-wide-k1 net, p = 26,122, and a 240-row pool
spec = ModelSpec((64, 128, 128, 10))
rng = np.random.default_rng(0)
pool = Batch(rng.normal(size=(240, 64)), rng.integers(0, 10, size=240))
factors = sample_factors(init_params(spec, 1), pool, spec)[1]
np.savez(sys.argv[2], grad=estimate_gradient(factors, spec),
         diag=estimate_diag_curvature(factors, spec).diag)
"""


def _run_child(tmp_path: Path, threads: int) -> tuple[list[list[str]], dict]:
    out_csv, out_est = tmp_path / f"t{threads}.csv", tmp_path / f"t{threads}.npz"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(out_csv), str(out_est)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wall_time_seconds" and len(rows) == 7
    with np.load(out_est) as est:
        return [row[:-1] for row in rows], dict(est)


def test_sweep_rows_and_fisher_bits_hold_at_one_and_two_blas_threads(tmp_path):
    (rows1, est1), (rows2, est2) = _run_child(tmp_path, 1), _run_child(tmp_path, 2)
    assert rows1 == rows2
    for name in ("grad", "diag"):
        a, b = est1[name], est2[name]
        assert same_bits(a, b), \
            f"{name} entries {np.flatnonzero(a != b)[:10]} differ between 1 and 2 threads"
