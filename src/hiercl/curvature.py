"""Gradient and curvature estimates of the cumulative loss over one
sample Batch, plus the regularized solve (H + lambda*I)x = v under three
representations.

Runs estimate only the empirical Fisher (mean squared per-sample
gradients): its diagonal or its top eigenpairs. It is PSD by
construction, so any lambda > 0 makes the system positive definite. A
dense estimate holds a given symmetric matrix, which may be indefinite;
its solve checks positive definiteness first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch, ModelSpec, loss_and_grad, per_sample_grads, sample_factors

VARIANTS = ("diagonal", "lowrank", "dense")

_ORTHO_TOL = 1e-8

# bytes of per-sample gradients the diagonal estimate expands at once. A
# block is squared and summed while it is still in the core's 2 MiB L2
# cache. At p = 26,122 and n = 240 on a 2-core Xeon, 1 BLAS thread, best
# of 25 calls: 10.6-10.8 ms at 1 MiB, 10.3-10.4 ms at 2 MiB, 11.8-11.9 ms
# at 4 MiB and 12.6-13.1 ms at 512 KiB. 1 MiB is within 5% of the fastest
# at half its memory
DIAG_BLOCK_BYTES = 1 << 20


@dataclass
class CurvatureEstimate:
    variant: str
    diag: np.ndarray | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None  # (U p x r, d r)
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown curvature variant {self.variant!r}")
        if self.variant == "diagonal":
            self.diag = np.asarray(self.diag, dtype=np.float64)
            if self.diag.ndim != 1:
                raise ValueError("diagonal estimate must be a 1-D vector")
            if self.diag.size and self.diag.min() < 0:
                raise ValueError("Fisher diagonal entries must be nonnegative")
        elif self.variant == "lowrank":
            u, d = self.factors
            u = np.asarray(u, dtype=np.float64)
            d = np.asarray(d, dtype=np.float64)
            if u.ndim != 2 or d.ndim != 1 or u.shape[1] != d.size:
                raise ValueError("lowrank factors must be (p x r, r)")
            if u.shape[1] > u.shape[0]:
                raise ValueError("rank exceeds dimension")
            if d.size and d.min() < 0:
                raise ValueError("lowrank scales must be nonnegative")
            gram = u.T @ u
            if not np.allclose(gram, np.eye(d.size), atol=_ORTHO_TOL):
                raise ValueError("lowrank basis is not column-orthonormal")
            self.factors = (u, d)
        else:
            self.matrix = np.asarray(self.matrix, dtype=np.float64)
            m = self.matrix
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("dense estimate must be square")
            if not np.allclose(m, m.T, atol=_ORTHO_TOL):
                raise ValueError("dense estimate must be symmetric")

    @property
    def dim(self) -> int:
        if self.variant == "diagonal":
            return self.diag.size
        if self.variant == "lowrank":
            return self.factors[0].shape[0]
        return self.matrix.shape[0]


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


def estimate_diag_curvature(params, pool: Batch, spec: ModelSpec) -> CurvatureEstimate:
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
    return CurvatureEstimate("diagonal", diag=total / n)


def estimate_lowrank_curvature(params, pool: Batch, spec: ModelSpec, r: int) -> CurvatureEstimate:
    """Top-r eigenpairs of the empirical Fisher F = G^T G / n.

    When n < p the eigenproblem is solved on the n x n Gram matrix
    G G^T / n; eigenvectors map back through G^T. Effective rank can come
    out below r when the Fisher itself is rank-deficient.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    g = per_sample_grads(sample_factors(params, pool, spec), spec)
    n, p = g.shape
    r = min(r, n, p)
    if p <= n:
        f = g.T @ g / n
        vals, vecs = np.linalg.eigh(f)
        order = np.argsort(vals)[::-1][:r]
        d = vals[order]
        u = vecs[:, order]
    else:
        gram = g @ g.T / n
        vals, vecs = np.linalg.eigh(gram)
        order = np.argsort(vals)[::-1][:r]
        d = vals[order]
        cols = []
        for i, di in zip(order, d):
            if di <= 1e-12:
                break
            cols.append(g.T @ vecs[:, i] / np.sqrt(n * di))
        u = np.stack(cols, axis=1) if cols else np.empty((p, 0))
        d = d[: u.shape[1]]
    # drop directions with negligible mass; keeps the basis well-conditioned
    keep = d > 1e-12
    u, d = u[:, keep], np.maximum(d[keep], 0.0)
    return CurvatureEstimate("lowrank", factors=(u, d))


def quad_form(curv: CurvatureEstimate, v: np.ndarray) -> float:
    """v^T H v without materializing, O(p) or O(pr)."""
    if curv.variant == "diagonal":
        return float(curv.diag @ (v * v))
    if curv.variant == "lowrank":
        u, d = curv.factors
        w = u.T @ v
        return float(d @ (w * w))
    return float(v @ curv.matrix @ v)


def regularized_solve(curv: CurvatureEstimate, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (H + lambda*I)x = rhs.

    Diagonal: elementwise, O(p). Lowrank: Woodbury form
    x = (rhs - U diag(d_i/(lambda+d_i)) U^T rhs)/lambda. Dense: direct
    solve, after checking lambda > -mu_min.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 1 or rhs.size != curv.dim:
        raise ValueError("rhs length does not match the estimate dimension")
    # any nonfinite entry makes the sum nonfinite, so a finite sum clears rhs
    # in one pass without a p-sized mask; the mask is built only when the sum
    # is not finite, which a finite rhs reaches only by overflow
    with np.errstate(over="ignore", invalid="ignore"):
        total = rhs.sum()
    if not (np.isfinite(lam) and (np.isfinite(total) or np.isfinite(rhs).all())):
        raise ValueError("nonfinite inputs to regularized_solve")
    if curv.variant == "diagonal":
        if lam <= 0:
            raise ValueError("lambda must be positive for a diagonal estimate")
        x = curv.diag + lam
        return np.divide(rhs, x, out=x)
    if curv.variant == "lowrank":
        if lam <= 0:
            raise ValueError("lambda must be positive for a lowrank estimate")
        u, d = curv.factors
        coeff = u.T @ rhs * (d / (lam + d)) if d.size else np.empty(0)
        return (rhs - u @ coeff) / lam if d.size else rhs / lam
    mu = float(np.linalg.eigvalsh(curv.matrix)[0])
    if lam <= -mu:
        raise ValueError(
            f"lambda {lam} does not make the dense system positive definite "
            f"(needs lambda > {-mu})"
        )
    return np.linalg.solve(curv.matrix + lam * np.eye(curv.dim), rhs)
