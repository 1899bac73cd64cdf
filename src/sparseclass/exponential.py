"""Analytical coordinate updates for the exponential loss.

On a -1/+1 feature matrix every 1-D line search has a closed form, and the
per-observation weights exp(-margin) can be maintained multiplicatively, so
no surrogate bounds or cut pruning are needed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DataError, DesignMatrix, sweep_visits

# Weighted fractions are kept this far from {0, 1} so perfectly separating
# columns get a large finite coefficient instead of an infinite one.
SEPARATION_EPS = 1e-10

# Exact weight/margin recomputation cadence; multiplicative updates drift.
WEIGHT_REFRESH_EVERY = 64


class ExpState:
    """Coefficient state plus cached per-observation weights c_i = exp(-margin_i).

    Coefficient and intercept changes rescale the weights multiplicatively,
    as boosting does; every ``WEIGHT_REFRESH_EVERY`` updates the cache is
    rebuilt exactly from the (sparse) coefficients.  Single-owner during a
    fit.
    """

    __slots__ = ("w", "support", "intercept", "c", "H", "_updates")

    def __init__(self, w, support, intercept, c, H, _updates=0):
        self.w = w
        self.support = support
        self.intercept = intercept
        self.c = c
        self.H = H
        self._updates = _updates

    @classmethod
    def zeros(cls, data: DesignMatrix) -> "ExpState":
        if not data.binary:
            raise DataError("the exponential loss requires a -1/+1 feature matrix")
        n = data.n
        return cls(
            w=np.zeros(data.p),
            support=set(),
            intercept=0.0,
            c=np.ones(n),
            H=float(n),
        )

    def copy(self) -> "ExpState":
        return ExpState(
            w=self.w.copy(),
            support=set(self.support),
            intercept=self.intercept,
            c=self.c.copy(),
            H=self.H,
            _updates=self._updates,
        )

    def set_coefficient(self, data: DesignMatrix, j: int, value: float) -> None:
        value = float(value)
        delta = value - self.w[j]
        if delta == 0.0:
            return
        z = data.signed[:, j]
        self.c *= np.where(z > 0.0, math.exp(-delta), math.exp(delta))
        self.w[j] = value
        if value == 0.0:
            self.support.discard(j)
        else:
            self.support.add(j)
        self._bump(data)

    def set_intercept(self, data: DesignMatrix, value: float) -> None:
        value = float(value)
        delta = value - self.intercept
        if delta == 0.0:
            return
        self.c *= np.where(data.y > 0.0, math.exp(-delta), math.exp(delta))
        self.intercept = value
        self._bump(data)

    def _bump(self, data: DesignMatrix) -> None:
        self._updates += 1
        if self._updates % WEIGHT_REFRESH_EVERY == 0:
            self.refresh(data)
        else:
            self.H = float(self.c.sum())

    def refresh(self, data: DesignMatrix) -> None:
        """Rebuild the weights exactly from the coefficients."""
        self.c = np.exp(-(data.y * self.scores(data)))
        self.H = float(self.c.sum())

    def scores(self, data: DesignMatrix) -> np.ndarray:
        """Raw decision scores f_i = w . x_i + intercept (sparse in |support|)."""
        support = sorted(self.support)
        if support:
            f = data.x[:, support] @ self.w[support] + self.intercept
        else:
            f = np.full(data.n, self.intercept)
        return f


def _weights_without(state: ExpState, data: DesignMatrix, j: int) -> np.ndarray:
    """Weights re-expressed with coordinate j zeroed (one multiplicative pass)."""
    wj = float(state.w[j])
    z = data.signed[:, j]
    return state.c * np.where(z > 0.0, math.exp(wj), math.exp(-wj))


def _neg_fraction(c: np.ndarray, z: np.ndarray, total: float) -> float:
    # For z in {-1, +1}: sum of c over {z = -1} equals (total - c.z) / 2.
    d = 0.5 * (total - float(c @ z)) / total
    return min(max(d, 0.0), 1.0)


def d_minus(state: ExpState, data: DesignMatrix, j: int, exclude_own: bool = False) -> float:
    """Weighted fraction of observations whose signed entry z_ij is -1.

    With ``exclude_own`` the weights are first re-expressed as if coordinate
    j were zero, which is the reference weighting when updating a coordinate
    that is already in the support.
    """
    if not data.binary:
        raise DataError("the exponential loss requires a -1/+1 feature matrix")
    z = data.signed[:, j]
    if exclude_own:
        c = _weights_without(state, data, j)
        total = float(c.sum())
    else:
        c = state.c
        total = state.H
    return _neg_fraction(c, z, total)


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


def exp_line_search(state: ExpState, data: DesignMatrix, j: int) -> float:
    """Penalty-free analytical line-search optimum for coordinate j."""
    d = d_minus(state, data, j, exclude_own=float(state.w[j]) != 0.0)
    return analytic_coefficient(d)


def exp_coordinate_update(state: ExpState, data: DesignMatrix, j: int, lam0: float) -> float:
    """One analytical coordinate update with the sparsity penalty active.

    Zeroes the coefficient when its weighted -1 fraction falls in the
    zero interval, otherwise moves it to the closed-form optimum; the
    weight cache is updated in place.  Returns the new coefficient.

    For a coordinate already in the support, zeroing it rescales the two
    weight masses by e^{+-w_j}, so the reference loss and fraction come
    from one dot product instead of a rebuilt weight vector.
    """
    old = float(state.w[j])
    z = data.signed[:, j]
    if old == 0.0:
        H_ref = state.H
        d = _neg_fraction(state.c, z, H_ref)
    else:
        dot = float(state.c @ z)
        mass_neg = 0.5 * (state.H - dot)
        mass_pos = 0.5 * (state.H + dot)
        scale = math.exp(old)
        neg_ref = mass_neg / scale
        H_ref = scale * mass_pos + neg_ref
        d = min(max(neg_ref / H_ref, 0.0), 1.0)
    lo, hi = zero_interval(H_ref, lam0)
    if lo <= d <= hi:
        new = 0.0
    else:
        new = analytic_coefficient(d)
    state.set_coefficient(data, j, new)
    return new


def refit_intercept(state: ExpState, data: DesignMatrix) -> float:
    """Closed-form intercept refit; returns the applied shift."""
    if data.n == 0:
        return 0.0
    dot = float(state.c @ data.y)
    c_pos = 0.5 * (state.H + dot)
    c_neg = 0.5 * (state.H - dot)
    c_pos = max(c_pos, SEPARATION_EPS)
    c_neg = max(c_neg, SEPARATION_EPS)
    delta = 0.5 * math.log(c_pos / c_neg)
    state.set_intercept(data, state.intercept + delta)
    return delta


def cd_sweep(state: ExpState, data: DesignMatrix, lam0: float, coords) -> float:
    """One pass of analytical coordinate updates; returns the largest move.

    The dominant case, a zero coefficient that stays zero, is decided with a
    single dot product against the current weights; everything else defers
    to ``exp_coordinate_update``.

    The decisions are those of the cyclic order.  Runs of zero coordinates
    are screened with one product ``Z[:, run].T @ c`` against the current
    weights (``core.sweep_visits``); every coordinate the screen flags,
    and every support coordinate, takes the scalar update below.  Only the
    summation order of the screening products differs from the loop, so
    a zero coordinate can be decided differently only when its test lies
    within rounding of its threshold.
    Runs shorter than ``core.SCREEN_MIN_RUN`` (8) stay in the loop: a
    screen costs about as much as six loop visits (measurements at the
    constant).
    """
    z_all = data.signed
    max_move = 0.0
    c = state.c
    H = state.H
    lo, hi = zero_interval(H, lam0)

    def screen(cols):
        # The zero test below.  Rounding can put d a hair outside [0, 1],
        # where the scalar test clips it; such a column is flagged and the
        # scalar test decides.
        d = 0.5 * (H - z_all[:, cols].T @ c) / H
        return ~((lo <= d) & (d <= hi))

    for j in sweep_visits(coords, state.w, len(state.support), screen):
        if state.w[j] == 0.0:
            dot = float(c @ z_all[:, j])
            d = 0.5 * (H - dot) / H
            d = 0.0 if d < 0.0 else (1.0 if d > 1.0 else d)
            if lo <= d <= hi:
                continue
            new = analytic_coefficient(d)
            state.set_coefficient(data, j, new)
            move = abs(new)
        else:
            old = float(state.w[j])
            new = exp_coordinate_update(state, data, j, lam0)
            move = abs(new - old)
        if move > 0.0:
            c = state.c
            H = state.H
            lo, hi = zero_interval(H, lam0)
            if move > max_move:
                max_move = move
    return max_move
