"""Second-order consolidation of local weights into a slow hierarchy.

Core update: with retention pull lambda and target displacement
dd = w_target - w_prev, the step dw* = (H + lambda*I)^(-1)(lambda*dd - g)
minimizes the quadratic surrogate

    g . dw + 0.5 dw^T H dw + 0.5 lambda ||dw - dd||^2

and the new weights are w_prev + eta*dw* (eta = 1 is the exact minimizer;
a damped eta plus norm clipping is the practical default). An L-level
hierarchy applies the same update level by level, each level chasing the
freshly updated level below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureEstimate, quad_form, regularized_solve


@dataclass
class HierarchyState:
    """levels[0] is the fastest consolidated model; levels[-1] the slowest,
    which serves as the final predictor. group_counter counts absorbed
    groups (0 = nothing absorbed yet)."""

    levels: list[np.ndarray]
    lambdas: tuple[float, ...]
    group_counter: int = 0

    def __post_init__(self):
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")
        self.levels = [np.array(w, dtype=np.float64) for w in self.levels]
        p = self.levels[0].size
        if any(w.ndim != 1 or w.size != p for w in self.levels):
            raise ValueError("level vectors must be 1-D and same length")
        self.lambdas = tuple(float(l) for l in self.lambdas)
        if len(self.lambdas) != len(self.levels):
            raise ValueError("need one lambda per level")
        if any(l <= 0 for l in self.lambdas):
            raise ValueError("lambdas must be positive")

    @property
    def top(self) -> np.ndarray:
        return self.levels[-1]


def lambda_schedule(base: float, num_levels: int, factor: float = 1.0) -> tuple[float, ...]:
    """Constant by default; factor != 1 gives a geometric per-level scale.
    Every level's lambda must come out positive and finite."""
    if not (0 < base < math.inf and 0 < factor < math.inf):
        raise ValueError(f"lambda and lambda_factor must be positive and finite: {base}, {factor}")
    lambdas = []
    for i in range(num_levels):
        try:
            lam = base * factor**i
        except OverflowError:  # factor**i alone is past the float range
            lam = math.inf
        if not 0 < lam < math.inf:
            raise ValueError(f"the level-{i} lambda {base} * {factor}**{i} is {lam}, "
                             f"not positive and finite")
        lambdas.append(lam)
    return tuple(lambdas)


def init_hierarchy(init: np.ndarray, lambdas) -> HierarchyState:
    return HierarchyState([np.array(init) for _ in lambdas], tuple(lambdas), 0)


def taylor_consolidate(
    w_prev: np.ndarray,
    w_target: np.ndarray,
    grad: np.ndarray,
    curv: CurvatureEstimate,
    lam: float,
    eta: float = 1.0,
    clip: float | None = None,
) -> np.ndarray:
    """One consolidation step of w_prev toward w_target."""
    w_prev = np.asarray(w_prev, dtype=np.float64)
    dd = np.asarray(w_target, dtype=np.float64) - w_prev
    if dd.size != grad.size:
        raise ValueError("weight and gradient lengths disagree")
    dw = regularized_solve(curv, lam, lam * dd - grad)
    if clip is not None:
        norm = float(np.linalg.norm(dw))
        if norm > clip:
            dw = dw * (clip / norm)
    return w_prev + eta * dw


def surrogate_value(
    dw: np.ndarray, grad: np.ndarray, curv: CurvatureEstimate, lam: float, dd: np.ndarray
) -> float:
    """The quadratic objective the consolidation step minimizes over dw."""
    diff = dw - dd
    return float(grad @ dw) + 0.5 * quad_form(curv, dw) + 0.5 * lam * float(diff @ diff)


def initialize_from_local(state: HierarchyState, w_local: np.ndarray) -> HierarchyState:
    """First-group rule: every level copies the local model."""
    return HierarchyState([np.array(w_local) for _ in state.levels], state.lambdas,
                          state.group_counter + 1)


def multi_level_consolidate(
    state: HierarchyState,
    w_local: np.ndarray,
    grad_fn,
    curv_fn,
    eta: float = 0.9,
    clip: float | None = 1.0,
) -> tuple[HierarchyState, list[float]]:
    """Update levels in order: level 0 chases w_local, level i chases the
    freshly updated level i-1. grad_fn/curv_fn evaluate the cumulative-loss
    estimates at each level's own current weights.

    Returns the new state and the applied update norm per level.
    """
    w_local = np.asarray(w_local, dtype=np.float64)
    if w_local.size != state.levels[0].size:
        raise ValueError("local model length does not match the hierarchy")
    target = w_local
    new_levels = []
    norms = []
    for w_prev, lam in zip(state.levels, state.lambdas):
        w_new = taylor_consolidate(w_prev, target, grad_fn(w_prev), curv_fn(w_prev),
                                   lam, eta=eta, clip=clip)
        norms.append(float(np.linalg.norm(w_new - w_prev)))
        new_levels.append(w_new)
        target = w_new
    return HierarchyState(new_levels, state.lambdas, state.group_counter + 1), norms


def catch_up(
    state: HierarchyState,
    w_target: np.ndarray,
    grad_fn,
    curv_fn,
    n_catch: int,
    eta: float = 0.9,
    clip: float | None = 1.0,
) -> tuple[HierarchyState, list[list[float]]]:
    """n_catch extra consolidation passes toward a fixed target, with the
    estimates recomputed at the moving weights each pass."""
    if n_catch < 0:
        raise ValueError("n_catch must be nonnegative")
    norms_per_iter = []
    for _ in range(n_catch):
        state, norms = multi_level_consolidate(state, w_target, grad_fn, curv_fn,
                                               eta=eta, clip=clip)
        norms_per_iter.append(norms)
    return state, norms_per_iter

