"""Gradient and curvature estimates of the cumulative loss over one
sample Batch, plus the regularized solve (H + lambda*I)x = v.

Runs estimate only the empirical Fisher (mean squared per-sample
gradients), as its diagonal (DiagFisher) or its top eigenpairs
(LowRankFisher); each has its own validation, dim, quad_form and solve.
The Fisher is PSD, so any lambda > 0 makes the system positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch, ModelSpec, loss_and_grad, per_sample_grads, sample_factors

_ORTHO_TOL = 1e-8

# bytes of per-sample gradients the diagonal estimate expands at once. A
# block is squared and summed while it is still in the core's 2 MiB L2
# cache. At p = 26,122 and n = 240 on a 2-core Xeon, 1 BLAS thread, best
# of 25 calls: 10.6-10.8 ms at 1 MiB, 10.3-10.4 ms at 2 MiB, 11.8-11.9 ms
# at 4 MiB and 12.6-13.1 ms at 512 KiB. 1 MiB is within 5% of the fastest
# at half its memory
DIAG_BLOCK_BYTES = 1 << 20

# entries of rhs the diagonal solve takes at once (256 KiB per array), so
# its finite check, add and divide read a chunk still in L2 rather than
# stream three p-sized arrays through memory. 2-core Xeon, 2 MiB L2 per
# core, 10 runs of criterion 12's best-of-9 time(2p)/time(p): median 2.2 and
# max 2.33-2.52 at this size, 2.56 and 2.85 at 131,072, 2.7 and 2.88-3.10
# unchunked. One solve at p = 1e6 takes 2.8 ms, against 2.1 ms unchunked
SOLVE_CHUNK = 1 << 15


def require_finite(v: np.ndarray) -> None:
    """Raise unless every entry of v is finite. A nonfinite entry makes the
    sum nonfinite, so a finite sum clears v without a v-sized mask; the
    mask is built only when the sum is not, which finite v reach by overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = v.sum()
    if not (np.isfinite(total) or np.isfinite(v).all()):
        raise ValueError("nonfinite inputs to regularized_solve")


@dataclass(frozen=True, eq=False)
class DiagFisher:
    """The Fisher's diagonal, a nonnegative (p,) vector."""

    diag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=np.float64)
        if diag.ndim != 1:
            raise ValueError("diagonal estimate must be a 1-D vector")
        if diag.size and diag.min() < 0:
            raise ValueError("Fisher diagonal entries must be nonnegative")
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.size

    def quad_form(self, v: np.ndarray) -> float:
        return float(self.diag @ (v * v))

    def solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        """rhs / (diag + lam), elementwise, one SOLVE_CHUNK at a time."""
        x = np.empty_like(rhs)
        for lo in range(0, rhs.size, SOLVE_CHUNK):
            part, out = rhs[lo : lo + SOLVE_CHUNK], x[lo : lo + SOLVE_CHUNK]
            require_finite(part)
            np.add(self.diag[lo : lo + SOLVE_CHUNK], lam, out=out)
            np.divide(part, out, out=out)
        return x


@dataclass(frozen=True, eq=False)
class LowRankFisher:
    """The Fisher's top eigenpairs: H = U diag(d) U^T, with U (p x r)
    column-orthonormal and d (r,) nonnegative."""

    u: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        u, d = (np.asarray(a, dtype=np.float64) for a in (self.u, self.d))
        if u.ndim != 2 or d.ndim != 1 or u.shape[1] != d.size:
            raise ValueError("lowrank factors must be (p x r, r)")
        if u.shape[1] > u.shape[0]:
            raise ValueError("rank exceeds dimension")
        if d.size and d.min() < 0:
            raise ValueError("lowrank scales must be nonnegative")
        if not np.allclose(u.T @ u, np.eye(d.size), atol=_ORTHO_TOL):
            raise ValueError("lowrank basis is not column-orthonormal")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def quad_form(self, v: np.ndarray) -> float:
        w = self.u.T @ v
        return float(self.d @ (w * w))

    def solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        """Woodbury form x = (rhs - U diag(d_i/(lam+d_i)) U^T rhs)/lam."""
        require_finite(rhs)
        if not self.d.size:
            return rhs / lam
        coeff = self.u.T @ rhs * (self.d / (lam + self.d))
        return (rhs - self.u @ coeff) / lam


def parse_curvature_spec(text: str) -> tuple[str, int | None]:
    """A `run.curvature` value -> (variant, rank): "diag" -> ("diagonal",
    None), "lowrank" -> ("lowrank", 10) and "lowrank:R" -> ("lowrank", R)."""
    spec = text.strip().lower()
    if spec in ("diag", "diagonal"):
        return "diagonal", None
    head, colon, rank = (part.strip() for part in spec.partition(":"))
    if head == "lowrank" and not colon:
        return "lowrank", 10
    if head == "lowrank" and rank.isdecimal() and int(rank) >= 1:
        return "lowrank", int(rank)
    raise ValueError(f"run.curvature={text!r}: expected diag, lowrank (rank 10) or lowrank:R "
                     f"with R a positive integer")


def estimate_gradient(params, pool: Batch, spec: ModelSpec) -> np.ndarray:
    """Mean gradient over the pool."""
    return loss_and_grad(params, pool, spec)[1]


def estimate_diag_curvature(params, pool: Batch, spec: ModelSpec) -> DiagFisher:
    """Diagonal of the empirical Fisher: mean squared per-sample gradients.

    One sample_factors pass; then consecutive row slices of at most
    DIAG_BLOCK_BYTES of gradients (at least one row) are expanded into one
    reused block, squared in place and summed into a running (p,) total,
    so the call holds one block and the factors, not the (n, p) array.
    np.add.reduce over axis 0 adds rows one after another and np.mean
    divides that sum by n; adding the running total into a block's first
    row before reducing it keeps that association, and a row's gradient
    does not depend on its block, so the result is bitwise the whole-pool
    mean at any block size."""
    n, p = pool.n, spec.param_count
    factors = sample_factors(params, pool, spec)
    step = max(1, DIAG_BLOCK_BYTES // (8 * p))
    block = np.empty((min(step, n), p))
    total = np.zeros(p)
    for lo in range(0, n, step):
        g = per_sample_grads([(a[lo : lo + step], d[lo : lo + step]) for a, d in factors], spec,
                             out=block[: min(step, n - lo)])
        np.multiply(g, g, out=g)
        g[0] += total
        np.add.reduce(g, axis=0, out=total)
    return DiagFisher(total / n)


def estimate_lowrank_curvature(params, pool: Batch, spec: ModelSpec, r: int) -> LowRankFisher:
    """Top-r eigenpairs of the empirical Fisher F = G^T G / n.

    When n < p the eigenproblem is solved on the n x n Gram matrix
    G G^T / n; eigenvectors map back through G^T. Effective rank can come
    out below r when the Fisher itself is rank-deficient.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    g = per_sample_grads(sample_factors(params, pool, spec), spec)
    n, p = g.shape
    vals, vecs = np.linalg.eigh(g.T @ g / n if p <= n else g @ g.T / n)
    top = np.argsort(vals)[::-1][:r]
    # drop directions with negligible mass; keeps the basis well-conditioned
    top = top[vals[top] > 1e-12]
    d, vecs = vals[top], vecs[:, top]
    return LowRankFisher(vecs if p <= n else g.T @ vecs / np.sqrt(n * d), d)


def regularized_solve(curv: DiagFisher | LowRankFisher, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (H + lambda*I)x = rhs by curv.solve, after the checks every
    representation shares: rhs's length, finite inputs (curv.solve checks
    rhs by require_finite; a nonfinite rhs is named first) and lambda > 0."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 1 or rhs.size != curv.dim:
        raise ValueError("rhs length does not match the estimate dimension")
    if not np.isfinite(lam):
        raise ValueError("nonfinite inputs to regularized_solve")
    if lam <= 0:
        require_finite(rhs)
        raise ValueError(f"lambda must be positive, got {lam}")
    return curv.solve(lam, rhs)
