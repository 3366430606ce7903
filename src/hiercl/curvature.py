"""Gradient and curvature estimates of the cumulative loss over one
sample Batch, plus the regularized solve (H + lambda*I)x = v under three
representations.

Diagonal and low-rank variants use the empirical Fisher (mean squared
per-sample gradients), which is PSD by construction, so any lambda > 0
makes the system positive definite. The dense variant is a
finite-difference oracle for small parameter counts only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch, ModelSpec, finite_diff_hessian, loss_and_grad, per_sample_grads

VARIANTS = ("diagonal", "lowrank", "dense")

_ORTHO_TOL = 1e-8


@dataclass
class CurvatureEstimate:
    variant: str
    diag: np.ndarray | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None  # (U p x r, d r)
    matrix: np.ndarray | None = None
    source_sample_count: int = 0

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


@dataclass
class SolveResult:
    x: np.ndarray
    lambda_used: float
    min_eig_bound: float | None = None  # dense route only


def parse_curvature_spec(text: str) -> tuple[str, int | None]:
    """"diag" | "lowrank:R" | "dense" -> (variant, rank)."""
    text = text.strip().lower()
    if text in ("diag", "diagonal"):
        return "diagonal", None
    if text == "dense":
        return "dense", None
    if text.startswith("lowrank"):
        _, _, r = text.partition(":")
        rank = int(r) if r else 10
        if rank < 1:
            raise ValueError("lowrank rank must be positive")
        return "lowrank", rank
    raise ValueError(f"unknown curvature spec {text!r}")


def estimate_gradient(params, pool: Batch, spec: ModelSpec) -> np.ndarray:
    """Mean gradient over the pool."""
    return loss_and_grad(params, pool, spec)[1]


def estimate_diag_curvature(params, pool: Batch, spec: ModelSpec) -> CurvatureEstimate:
    """Diagonal of the empirical Fisher: mean squared per-sample gradients.
    The (n, p) gradient array is squared in place, so the call holds one
    array of that size."""
    g = per_sample_grads(params, pool, spec)
    np.multiply(g, g, out=g)
    return CurvatureEstimate("diagonal", diag=np.mean(g, axis=0),
                             source_sample_count=pool.n)


def estimate_lowrank_curvature(params, pool: Batch, spec: ModelSpec, r: int) -> CurvatureEstimate:
    """Top-r eigenpairs of the empirical Fisher F = G^T G / n.

    When n < p the eigenproblem is solved on the n x n Gram matrix
    G G^T / n; eigenvectors map back through G^T. Effective rank can come
    out below r when the Fisher itself is rank-deficient.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    g = per_sample_grads(params, pool, spec)
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
    return CurvatureEstimate("lowrank", factors=(u, d), source_sample_count=pool.n)


def exact_dense_hessian_oracle(params, pool: Batch, spec: ModelSpec,
                               h: float = 1e-4) -> CurvatureEstimate:
    """Finite-difference Hessian of the pool's mean loss. Small p only;
    the dimension guard lives in the differencing helper."""
    hess = finite_diff_hessian(params, pool, spec, h=h)
    return CurvatureEstimate("dense", matrix=hess, source_sample_count=pool.n)


def materialize(curv: CurvatureEstimate) -> np.ndarray:
    """Dense p x p view of any estimate. For checks and small problems."""
    if curv.variant == "diagonal":
        return np.diag(curv.diag)
    if curv.variant == "lowrank":
        u, d = curv.factors
        return (u * d) @ u.T
    return curv.matrix.copy()


def quad_form(curv: CurvatureEstimate, v: np.ndarray) -> float:
    """v^T H v without materializing, O(p) or O(pr)."""
    if curv.variant == "diagonal":
        return float(curv.diag @ (v * v))
    if curv.variant == "lowrank":
        u, d = curv.factors
        w = u.T @ v
        return float(d @ (w * w))
    return float(v @ curv.matrix @ v)


def regularized_solve(curv: CurvatureEstimate, lam: float, rhs: np.ndarray) -> SolveResult:
    """Solve (H + lambda*I)x = rhs.

    Diagonal: elementwise, O(p). Lowrank: Woodbury form
    x = (rhs - U diag(d_i/(lambda+d_i)) U^T rhs)/lambda. Dense: direct
    solve, after checking lambda > -mu_min.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 1 or rhs.size != curv.dim:
        raise ValueError("rhs length does not match the estimate dimension")
    if not np.isfinite(lam) or not np.isfinite(rhs).all():
        raise ValueError("nonfinite inputs to regularized_solve")
    if curv.variant == "diagonal":
        if lam <= 0:
            raise ValueError("lambda must be positive for a diagonal estimate")
        x = curv.diag + lam
        return SolveResult(np.divide(rhs, x, out=x), lam)
    if curv.variant == "lowrank":
        if lam <= 0:
            raise ValueError("lambda must be positive for a lowrank estimate")
        u, d = curv.factors
        coeff = u.T @ rhs * (d / (lam + d)) if d.size else np.empty(0)
        x = (rhs - u @ coeff) / lam if d.size else rhs / lam
        return SolveResult(x, lam)
    mu = float(np.linalg.eigvalsh(curv.matrix)[0])
    if lam <= -mu:
        raise ValueError(
            f"lambda {lam} does not make the dense system positive definite "
            f"(needs lambda > {-mu})"
        )
    x = np.linalg.solve(curv.matrix + lam * np.eye(curv.dim), rhs)
    return SolveResult(x, lam, min_eig_bound=mu)
