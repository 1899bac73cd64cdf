"""Analytical coordinate updates for the exponential loss.

On a -1/+1 feature matrix every 1-D line search has a closed form in the
per-observation weights exp(-margin), which the state reads from its margin
cache, so no surrogate bounds or cut pruning are needed.

The engine functions (see ``core.engine``) are at the end of the module.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DataError,
    DesignMatrix,
    HyperParams,
    ModelState,
    newton_solve,
    sweep_visits,
)

# Engine constants (see ``core.engine``): the probability is sigmoid(2f),
# the loss takes no ridge, it needs -1/+1 features, and the warm start
# solves a support that 3 sweeps in a row left unchanged.  The fifth,
# COEF_BOUND, follows SEPARATION_EPS below.
PROBABILITY_SCALE = 2.0
TAKES_RIDGE = False
BINARIZE_ENCODING = "-1/+1"
SUPPORT_SETTLED_SWEEPS = 3

# Weighted fractions are kept this far from {0, 1} so perfectly separating
# columns get a large finite coefficient instead of an infinite one.
SEPARATION_EPS = 1e-10

# Support coefficients stay in [-COEF_BOUND, COEF_BOUND], the range of
# ``analytic_coefficient`` (whose lower end lies 4e-8 inside -COEF_BOUND:
# 1 - d rounds near d = 1).
COEF_BOUND = 0.5 * math.log((1.0 - SEPARATION_EPS) / SEPARATION_EPS)


class ExpState(ModelState):
    """The exponential engine's coefficient state, on a -1/+1 feature
    matrix.  Its weights c_i = exp(-margin_i) and their sum ``H``, the loss,
    are read from the margins where they are used; it keeps no copy."""

    __slots__ = ()

    def __init__(self, data: DesignMatrix):
        if not data.binary:
            raise DataError("the exponential loss requires a -1/+1 feature matrix")
        super().__init__(data)

    @property
    def c(self) -> np.ndarray:
        """The weights exp(-margins)."""
        return np.exp(-self.margins)

    @property
    def H(self) -> float:
        """The loss: the sum of the weights."""
        return float(self.c.sum())


def _reference(c: np.ndarray, H: float, z: np.ndarray, old: float) -> tuple[float, float]:
    """The reference loss and weighted -1 fraction of a coordinate with
    signed column ``z`` and coefficient ``old`` under the weights ``c`` of
    sum ``H``: their sum and its fraction on {z = -1} were it zero.

    Zeroing the coefficient rescales the two weight masses by e^{+-old},
    so both come from one dot product instead of a rebuilt weight vector.
    """
    dot = float(c @ z)
    if old == 0.0:
        H_ref, neg_ref = H, 0.5 * (H - dot)
    else:
        scale = math.exp(old)
        neg_ref = 0.5 * (H - dot) / scale
        H_ref = scale * (0.5 * (H + dot)) + neg_ref
    return H_ref, min(max(neg_ref / H_ref, 0.0), 1.0)


def zero_interval(H_ref: float, lam0: float) -> tuple[float, float]:
    """Closed range of the -1 fraction inside which a coefficient cannot pay
    for its sparsity penalty and is set to zero.

    When lam0 >= 2*H_ref the loss cannot drop by enough no matter the
    fraction, so the interval is the whole of [0, 1].
    """
    if H_ref <= 0.0:
        raise ValueError("reference loss must be positive")
    if lam0 < 0.0:
        raise ValueError("lambda0 must be nonnegative")
    if lam0 == 0.0:
        return (0.5, 0.5)
    if lam0 >= 2.0 * H_ref:
        return (0.0, 1.0)
    half = math.sqrt(lam0 * (2.0 * H_ref - lam0)) / (2.0 * H_ref)
    return (0.5 - half, 0.5 + half)


def analytic_coefficient(d: float) -> float:
    """Closed-form 1-D minimizer 0.5*ln((1-d)/d), clamped away from +-inf."""
    d = min(max(d, SEPARATION_EPS), 1.0 - SEPARATION_EPS)
    return 0.5 * math.log((1.0 - d) / d)


def updated_loss(H_ref: float, d: float, x: float) -> float:
    """Loss after setting the coordinate to x under reference weighting."""
    return H_ref * ((1.0 - d) * math.exp(-x) + d * math.exp(x))


def refit_intercept(state: ExpState, data: DesignMatrix, stats=None) -> float:
    """Closed-form intercept refit; returns the applied shift.  ``stats`` is
    unused: the closed form has no cap."""
    if data.n == 0:
        return 0.0
    c = state.c
    H, dot = float(c.sum()), float(c @ data.y)
    c_pos = max(0.5 * (H + dot), SEPARATION_EPS)
    c_neg = max(0.5 * (H - dot), SEPARATION_EPS)
    delta = 0.5 * math.log(c_pos / c_neg)
    state.set_intercept(data, state.intercept + delta)
    return delta


def cd_sweep(state: ExpState, data: DesignMatrix, lam0: float, coords) -> float:
    """One pass of analytical coordinate updates over ``coords``, a
    contiguous range, with the weights c and their sum H held here and read
    again only after a coefficient changes; returns the largest move.

    An update zeroes the coefficient when its weighted -1 fraction, under
    the weights with the coordinate zeroed (``_reference``: one dot
    product), falls in the zero interval, and otherwise moves it to the
    closed-form optimum (``exp_coordinate_update`` in ``tests/oracles.py``
    is one such update).  The decisions are those of the cyclic order.  A
    sweep at ``lam0 > 0`` screens its runs of zero coordinates with one
    product ``Z[:, run].T @ c`` against the current weights
    (``core.sweep_visits``, ``DesignMatrix.signed_products``); every
    coordinate the screen flags, and every support coordinate, takes the
    scalar update.  Only the summation order of the screening products
    differs from the loop, so a zero coordinate can be decided differently
    only when its test lies within rounding of its threshold; on threshold
    dummies, whose products are prefix sums, the screen flags every column
    within their ``prefix_sum_allowance`` of its threshold, so there the
    sweep is the loop's bit for bit.  Runs shorter than
    ``core.SCREEN_MIN_RUN`` (8) stay in the loop: a screen costs about as
    much as six loop visits (measurements at the constant).  A ``lam0 = 0``
    sweep goes coordinate by coordinate.
    """
    c = state.c
    H = float(c.sum())

    def screen(cols):
        # The zero test of the update below at w_j = 0, whose d falls as
        # z_j . c grows, for every product within ``tol`` of the screen's:
        # the scalar test's d lies in [d_lo, d_hi], as each of its steps
        # rounds monotonically.  Rounding can put d a hair outside [0, 1],
        # where the scalar test clips it; such a column is flagged and the
        # scalar test decides.
        lo, hi = zero_interval(H, lam0)
        dots = data.signed_products(c, cols)
        tol = data.prefix_sum_allowance(c)
        d_lo = 0.5 * (H - (dots + tol)) / H
        d_hi = 0.5 * (H - (dots - tol)) / H
        return ~((lo <= d_lo) & (d_hi <= hi))

    max_move = 0.0
    for j in sweep_visits(coords, state.w, screen if lam0 > 0.0 else None):
        old = float(state.w[j])
        H_ref, d = _reference(c, H, data.signed[:, j], old)
        lo, hi = zero_interval(H_ref, lam0)
        new = 0.0 if lo <= d <= hi else analytic_coefficient(d)
        if new != old:
            state.set_coefficient(data, j, new)
            c = state.c
            H = float(c.sum())
            max_move = max(max_move, abs(new - old))
    return max_move


# --- engine -----------------------------------------------------------------

def new_state(data: DesignMatrix) -> ExpState:
    return ExpState.zeros(data)


def smooth_loss(state: ExpState, data: DesignMatrix, hp: HyperParams) -> float:
    """Sum of exp(-margin), the weight sum ``H``."""
    return state.H


def sweep(state: ExpState, data: DesignMatrix, hp: HyperParams) -> float:
    return cd_sweep(state, data, hp.lambda0, range(data.p))


def find_swap(trial: ExpState, data: DesignMatrix, hp: HyperParams, forbidden: set[int],
              f0: float, threshold: float, cut: str, stats) -> tuple[int, float] | None:
    """The feature outside ``forbidden`` of largest gradient magnitude (the
    lowest index on ties), with its closed-form coefficient, when that
    brings the loss ``f0`` of ``trial`` below ``threshold``; else None.
    The closed-form loss 2 * sqrt(d * (1 - d)) * f0 falls as |z_j . c|
    grows, so no later candidate in gradient order does better and
    ``hp.candidate_limit`` changes nothing.  Needs no cut; the one
    candidate tested is counted in ``stats.candidates``.

    The gradient comes from ``DesignMatrix.signed_products``, prefix sums
    on threshold dummies, so a tie is broken by index only up to that
    product's rounding (3 n EPS sum(c)); dummies that are 1 on every row
    tie exactly."""
    if len(forbidden) >= data.p:
        return None
    dots = data.signed_products(trial.c)  # -gradient of the loss at the trial state
    mags = np.abs(dots)
    mags[list(forbidden)] = -1.0
    j2 = int(mags.argmax())
    if stats is not None:
        stats.candidates += 1
    d = min(max(0.5 * (f0 - float(dots[j2])) / f0, 0.0), 1.0)
    x = analytic_coefficient(d)
    if updated_loss(f0, d, x) < threshold:
        return j2, x
    return None


def _terms(m):
    """The loss sum and the weights c = exp(-m), which are both the gradient
    and the curvature weights of ``core.newton_solve``."""
    with np.errstate(over="ignore"):
        c = np.exp(-m)
    return float(c.sum()), c, c


def solve_support(state: ExpState, data: DesignMatrix, hp: HyperParams) -> bool:
    """Exact minimization of H over the support coefficients (each kept in
    [-COEF_BOUND, COEF_BOUND]) and the free intercept by
    ``core.newton_solve``, from the current state, with the weights rebuilt
    exactly; returns whether it is certified (``core.NEWTON_GRAD_TOL``).

    With beta the support coefficients then the intercept and a_i row i of
    A = [Z_S, y], H = sum_i exp(-a_i . beta), its gradient is -A^T c and
    its Hessian A^T diag(c) A, for c_i = exp(-a_i . beta).  A solve ends
    uncertified at ``core.REOPT_MAX_SWEEPS`` iterations or when
    ``core.MAX_HALVINGS`` halvings do not lower H.
    """
    return newton_solve(state, data, _terms, COEF_BOUND, 0.0)
