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

from .curvature import DiagFisher, LowRankFisher, regularized_solve


@dataclass
class HierarchyState:
    """levels[0] is the fastest consolidated model; levels[-1] the slowest,
    which serves as the final predictor. Each level is a copy of the array
    given for it."""

    levels: list[np.ndarray]
    lambdas: tuple[float, ...]

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
        if not all(0 < l < math.inf for l in self.lambdas):
            raise ValueError(f"lambdas must be positive and finite: {self.lambdas}")

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
    """Every level a copy of `init`: the start of a run, and the first
    group's rule, which copies the local model into every level."""
    return HierarchyState([init for _ in lambdas], lambdas)


def taylor_consolidate(
    w_prev: np.ndarray,
    w_target: np.ndarray,
    grad: np.ndarray,
    curv: DiagFisher | LowRankFisher,
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
    dw: np.ndarray, grad: np.ndarray, curv: DiagFisher | LowRankFisher, lam: float,
    dd: np.ndarray) -> float:
    """The quadratic objective the consolidation step minimizes over dw."""
    diff = dw - dd
    return float(grad @ dw) + 0.5 * curv.quad_form(dw) + 0.5 * lam * float(diff @ diff)


def multi_level_consolidate(
    state: HierarchyState,
    w_local: np.ndarray,
    estimate,
    eta: float = 0.9,
    clip: float | None = 1.0,
) -> tuple[HierarchyState, list[float]]:
    """Update levels in order: level 0 chases w_local, level i chases the
    freshly updated level i-1. estimate(w) returns the cumulative-loss
    gradient and curvature (g, H) at a level's own current weights.

    A level whose weights have the bits of the level before it (every
    level does right after init_hierarchy) reuses that level's (g, H),
    which nothing writes into. Bits, not values, because -0.0 and 0.0
    compare equal. A ValueError from estimate or the solve is raised
    again with its level first ("level 1: ...").

    Returns the new state and the applied update norm per level.
    """
    w_local = np.asarray(w_local, dtype=np.float64)
    if w_local.size != state.levels[0].size:
        raise ValueError("local model length does not match the hierarchy")
    target = w_local
    new_levels = []
    norms = []
    below = grad = curv = None
    for i, (w_prev, lam) in enumerate(zip(state.levels, state.lambdas)):
        try:
            if below is None or not np.array_equal(w_prev.view(np.uint64),
                                                   below.view(np.uint64)):
                grad = curv = None  # the level below's estimates go before these are made
                grad, curv = estimate(w_prev)
            w_new = taylor_consolidate(w_prev, target, grad, curv, lam, eta=eta, clip=clip)
        except ValueError as err:
            raise ValueError(f"level {i}: {err}") from err
        below = w_prev
        norms.append(float(np.linalg.norm(w_new - w_prev)))
        new_levels.append(w_new)
        target = w_new
    return HierarchyState(new_levels, state.lambdas), norms


def catch_up(
    state: HierarchyState,
    w_target: np.ndarray,
    estimate,
    n_catch: int,
    eta: float = 0.9,
    clip: float | None = 1.0,
) -> tuple[HierarchyState, list[list[float]]]:
    """n_catch extra consolidation passes toward a fixed target; each pass
    calls estimate(w) -> (g, H) at the moving weights, as
    multi_level_consolidate does, and names itself in a ValueError it
    raises ("catch-up pass 0: level 1: ...")."""
    if n_catch < 0:
        raise ValueError("n_catch must be nonnegative")
    norms_per_iter = []
    for j in range(n_catch):
        try:
            state, norms = multi_level_consolidate(state, w_target, estimate, eta=eta, clip=clip)
        except ValueError as err:
            raise ValueError(f"catch-up pass {j}: {err}") from err
        norms_per_iter.append(norms)
    return state, norms_per_iter

