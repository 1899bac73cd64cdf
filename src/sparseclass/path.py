"""Warm-started fitting across a grid of penalty strengths.

Each sparsity-penalty chain runs from the strongest penalty down, seeding
every fit with the previous solution; ridge changes restart cold because
they alter every curvature constant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import exponential as expeng
from . import logistic as logeng
from .core import ConfigError, DesignMatrix, HyperParams, smooth_loss, objective
from .exponential import ExpState
from .core import ModelState
from .swap import FitStats, fit_swap_1opt

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
        if any(v <= 0 for v in self.lambda0_grid):
            raise ConfigError("lambda0 grid values must be positive")
        if any(b >= a for a, b in zip(self.lambda0_grid, self.lambda0_grid[1:])):
            raise ConfigError("lambda0_grid must be strictly descending")
        if any(v < 0 for v in self.lambda2_grid):
            raise ConfigError("lambda2 grid values must be nonnegative")
        if self.loss == "exponential" and any(v != 0 for v in self.lambda2_grid):
            raise ConfigError("the exponential loss does not take a ridge penalty")

    def hyperparams(self, lam0: float, lam2: float) -> HyperParams:
        return replace(self.base, lambda0=lam0, lambda2=lam2, loss=self.loss)


@dataclass
class PathEntry:
    lambda0: float
    lambda2: float
    state: object | None
    support_size: int
    objective: float
    smooth_loss: float
    wall_ms: float
    swap_evals: int
    cut_prunes: int
    candidates: int
    line_searches: int
    error: str | None = None


@dataclass
class PathResult:
    entries: list[PathEntry]


def warm_start(data: DesignMatrix, hp: HyperParams, init=None):
    """Cyclic thresholding sweeps (sparsity penalty active) until no
    coefficient moves, starting from ``init`` or from zero.

    The returned state cannot be improved by any single thresholding step;
    the intercept is refit each sweep and never penalized.
    """
    if hp.loss == "exponential":
        state = ExpState.zeros(data) if init is None else init.copy()
        expeng.refit_intercept(state, data)
        for _ in range(WARM_START_MAX_SWEEPS):
            move = expeng.cd_sweep(state, data, hp.lambda0, range(data.p))
            shift = expeng.refit_intercept(state, data)
            if move <= SWEEP_STABLE_TOL and abs(shift) <= SWEEP_STABLE_TOL:
                break
        return state
    state = ModelState.zeros(data) if init is None else init.copy()
    lip = logeng.lipschitz_all(data, hp.lambda2)
    logeng.refit_intercept(state, data)
    for _ in range(WARM_START_MAX_SWEEPS):
        move = logeng.cd_sweep(state, data, hp.lambda0, hp.lambda2, lip, range(data.p))
        shift = logeng.refit_intercept(state, data)
        if move <= SWEEP_STABLE_TOL and abs(shift) <= SWEEP_STABLE_TOL:
            break
    return state


def fit_one(data: DesignMatrix, hp: HyperParams, ordering: str = "dynamic",
            cut: str = "auto", init=None, stats: FitStats | None = None):
    """Warm start then swap search; the standard single fit."""
    state = warm_start(data, hp, init=init)
    return fit_swap_1opt(state, data, hp, ordering=ordering, cut=cut, stats=stats)


def fit_path(data: DesignMatrix, spec: PathSpec, ordering: str = "dynamic",
             cut: str = "auto") -> PathResult:
    """Fit the full grid; failures are recorded per grid point and the rest
    of the grid still runs."""
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
                entries.append(
                    PathEntry(
                        lambda0=lam0,
                        lambda2=lam2,
                        state=state,
                        support_size=len(state.support),
                        objective=objective(state, data, hp),
                        smooth_loss=smooth_loss(state, data, hp),
                        wall_ms=wall_ms,
                        swap_evals=stats.swap_evals,
                        cut_prunes=stats.cut_prunes,
                        candidates=stats.candidates,
                        line_searches=stats.line_searches,
                    )
                )
                prev = state
            except Exception as exc:  # keep the grid going, record the failure
                wall_ms = (time.perf_counter() - t0) * 1000.0
                entries.append(
                    PathEntry(
                        lambda0=lam0,
                        lambda2=lam2,
                        state=None,
                        support_size=0,
                        objective=float("nan"),
                        smooth_loss=float("nan"),
                        wall_ms=wall_ms,
                        swap_evals=stats.swap_evals,
                        cut_prunes=stats.cut_prunes,
                        candidates=stats.candidates,
                        line_searches=stats.line_searches,
                        error=f"lambda0={lam0}, lambda2={lam2}: {exc}",
                    )
                )
    return PathResult(entries)
