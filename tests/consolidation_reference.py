"""Reference oracles for the consolidation and curvature tests.

`DenseCurvature` holds a given symmetric matrix, which may be indefinite,
behind the same dim/quad_form/solve as the package's Fisher estimates.
`materialize` gives the dense p x p matrix behind any curvature
estimate. `descent_reference_min` minimizes the consolidation surrogate
by steepest descent, never calling the regularized solve, and
`two_step_recursive_check` compares two chained consolidation steps with
the unrolled two-term closed form. Acceptance criteria 1, 2 and 7 rest on
them.
"""

from dataclasses import dataclass

import numpy as np

from hiercl.consolidation import taylor_consolidate
from hiercl.curvature import DiagFisher, LowRankFisher, require_finite

_SYM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DenseCurvature:
    """A dense symmetric p x p curvature. Its solve is direct, after
    checking that lambda clears the lowest eigenvalue (lambda > -mu_min)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense estimate must be square")
        if not np.allclose(m, m.T, atol=_SYM_TOL):
            raise ValueError("dense estimate must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def quad_form(self, v: np.ndarray) -> float:
        return float(v @ self.matrix @ v)

    def solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        require_finite(rhs)
        mu = float(np.linalg.eigvalsh(self.matrix)[0])
        if lam <= -mu:
            raise ValueError(f"lambda {lam} does not make the dense system positive definite "
                             f"(needs lambda > {-mu})")
        return np.linalg.solve(self.matrix + lam * np.eye(self.dim), rhs)


def materialize(curv) -> np.ndarray:
    """Dense p x p view of any estimate. For checks and small problems."""
    if isinstance(curv, DiagFisher):
        return np.diag(curv.diag)
    if isinstance(curv, LowRankFisher):
        return (curv.u * curv.d) @ curv.u.T
    return curv.matrix.copy()


def descent_reference_min(
    grad: np.ndarray,
    curv,
    lam: float,
    dd: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 200_000,
) -> np.ndarray:
    """Minimize the surrogate by steepest descent with exact line search.

    First-order route only (never calls the regularized solver); used to
    cross-check the closed form. The surrogate gradient is
    A dw - b with A = H + lambda*I and b = lambda*dd - g.
    """
    h = materialize(curv)
    a = h + lam * np.eye(h.shape[0])
    b = lam * dd - grad
    x = np.zeros_like(b)
    scale = max(1.0, float(np.linalg.norm(b)))
    for _ in range(max_iters):
        r = b - a @ x
        rr = float(r @ r)
        if np.sqrt(rr) <= tol * scale:
            break
        x = x + (rr / float(r @ (a @ r))) * r
    return x


def two_step_recursive_check(
    w0: np.ndarray,
    targets: tuple[np.ndarray, np.ndarray],
    first: tuple[np.ndarray, object],
    second: tuple[np.ndarray, object],
    lam: float,
) -> float:
    """Max-abs difference between two chained consolidation steps and the
    unrolled two-term closed form.

    Chained route: two taylor_consolidate calls (eta=1). Closed form:
    w0 + S0(lam*dd1 - g0) + S1(lam*dd2 - g1) with each S_j applied by a
    direct dense solve, dd2 measured from the once-updated point.
    """
    t1, t2 = (np.asarray(t, dtype=np.float64) for t in targets)
    g0, c0 = first
    g1, c1 = second
    w0 = np.asarray(w0, dtype=np.float64)

    w1 = taylor_consolidate(w0, t1, g0, c0, lam, eta=1.0)
    w2 = taylor_consolidate(w1, t2, g1, c1, lam, eta=1.0)

    def dense_step(curv, rhs):
        a = materialize(curv) + lam * np.eye(curv.dim)
        return np.linalg.solve(a, rhs)

    s0 = dense_step(c0, lam * (t1 - w0) - g0)
    s1 = dense_step(c1, lam * (t2 - (w0 + s0)) - g1)
    closed = w0 + s0 + s1
    return float(np.max(np.abs(w2 - closed)))
