"""Warm-started fitting across a grid of penalty strengths.

Each sparsity-penalty chain runs from the strongest penalty down, seeding
every fit with the previous solution; ridge changes restart cold because
they alter every curvature constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import ConfigError, DesignMatrix, HyperParams, engine, objective
from .swap import FitStats, check_ordering, fit_swap_1opt, resolve_cut

WARM_START_MAX_SWEEPS = 500
SWEEP_STABLE_TOL = 1e-10


@dataclass(frozen=True)
class PathSpec:
    """Penalty grid: sparsity strengths strictly descending, one chain per
    ridge value."""

    lambda0_grid: tuple[float, ...]
    lambda2_grid: tuple[float, ...] = (0.0,)
    loss: str = "logistic"
    base: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        if not self.lambda0_grid:
            raise ConfigError("lambda0_grid must not be empty")
        if not self.lambda2_grid:
            raise ConfigError("lambda2_grid must not be empty")
        if not all(0 < v < math.inf for v in self.lambda0_grid):
            raise ConfigError("lambda0 grid values must be positive and finite")
        if any(b >= a for a, b in zip(self.lambda0_grid, self.lambda0_grid[1:])):
            raise ConfigError("lambda0_grid must be strictly descending")
        for lam2 in self.lambda2_grid:
            self.hyperparams(self.lambda0_grid[0], lam2)

    def hyperparams(self, lam0: float, lam2: float) -> HyperParams:
        return replace(self.base, lambda0=lam0, lambda2=lam2, loss=self.loss)


@dataclass(kw_only=True)
class PathEntry(FitStats):
    """One grid point's fit, with the ``FitStats`` counters of that fit."""

    lambda0: float
    lambda2: float
    state: object | None
    support_size: int
    objective: float
    wall_ms: float
    error: str | None = None


@dataclass
class PathResult:
    entries: list[PathEntry]


def warm_start(data: DesignMatrix, hp: HyperParams, init=None,
               stats: FitStats | None = None):
    """Cyclic thresholding sweeps (sparsity penalty active) until no
    coefficient moves, starting from ``init`` or from zero.

    Once the engine's ``SUPPORT_SETTLED_SWEEPS`` sweeps in a row leave the
    support unchanged, the engine's ``solve_support`` minimizes the smooth
    loss over that support and the intercept exactly, and the sweeps go on
    (the active-set scheme of Hazimeh and Mazumder).  A support that the
    warm start has already solved is not solved again.  A solve that is
    not certified (as on a separable support), or that leaves a coefficient
    on the engine's ``COEF_BOUND`` box, where a support that separates the
    data drives it, is undone, and that warm start runs no more solves.

    The returned state cannot be improved by any single thresholding step,
    unless the sweep cap was hit first (counted in ``stats.cap_hits``); the
    intercept is refit each sweep and never penalized.
    """
    eng = engine(hp.loss)
    state = eng.new_state(data) if init is None else init.copy()
    eng.refit_intercept(state, data, stats)
    settle = eng.SUPPORT_SETTLED_SWEEPS
    support = solved = None
    settled = 0
    for _ in range(WARM_START_MAX_SWEEPS):
        move = eng.sweep(state, data, hp, hp.lambda0, range(data.p))
        shift = eng.refit_intercept(state, data, stats)
        if move <= SWEEP_STABLE_TOL and abs(shift) <= SWEEP_STABLE_TOL:
            break
        settled = settled + 1 if state.support == support else 0
        support = set(state.support)
        if settled >= settle and support != solved:
            before = state.copy()
            if not (eng.solve_support(state, data, hp)
                    and np.abs(state.w).max(initial=0.0) < eng.COEF_BOUND):
                state, settle = before, math.inf
            solved, settled = support, 0
    else:
        if stats is not None:
            stats.cap_hits += 1
    return state


def fit_one(data: DesignMatrix, hp: HyperParams, ordering: str = "dynamic",
            cut: str = "auto", init=None, stats: FitStats | None = None):
    """Warm start then swap search; the standard single fit.  ``ordering``
    and ``cut`` (against the ridge) are checked before the warm start runs."""
    check_ordering(ordering)
    resolve_cut(cut, hp)
    state = warm_start(data, hp, init=init, stats=stats)
    return fit_swap_1opt(state, data, hp, ordering=ordering, cut=cut, stats=stats)


def fit_path(data: DesignMatrix, spec: PathSpec, ordering: str = "dynamic",
             cut: str = "auto") -> PathResult:
    """Fit the full grid; failures are recorded per grid point and the rest
    of the grid still runs.  ``cut`` is checked against every ridge value
    of the grid before anything is fitted."""
    for lam2 in spec.lambda2_grid:
        resolve_cut(cut, spec.hyperparams(spec.lambda0_grid[0], lam2))
    entries: list[PathEntry] = []
    for lam2 in spec.lambda2_grid:
        prev = None
        for lam0 in spec.lambda0_grid:
            hp = spec.hyperparams(lam0, lam2)
            stats = FitStats()
            t0 = time.perf_counter()
            try:
                state = fit_one(data, hp, ordering=ordering, cut=cut, init=prev, stats=stats)
                wall_ms = (time.perf_counter() - t0) * 1000.0
                obj, error = objective(state, data, hp), None
                prev = state
            except Exception as exc:  # keep the grid going, record the failure
                wall_ms = (time.perf_counter() - t0) * 1000.0
                state, obj = None, math.nan
                error = f"lambda0={lam0}, lambda2={lam2}: {exc}"
            entries.append(PathEntry(
                lambda0=lam0,
                lambda2=lam2,
                state=state,
                support_size=0 if state is None else len(state.support),
                objective=obj,
                wall_ms=wall_ms,
                error=error,
                **asdict(stats),
            ))
    return PathResult(entries)
