"""Coordinate machinery for the logistic loss.

Gradients, curvature bounds, the surrogate thresholding step, the iterated
line search, and the tangent-based lower bounds used to rule features out
without running a line search.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .core import (
    ConfigError,
    DesignMatrix,
    HyperParams,
    ModelState,
    log1p_exp_neg_sum,
    sweep_visits,
)

# Two quadratic minorants with nearly equal curvature-adjusted slopes have no
# usable intersection; below this denominator we fall back to the one-point
# bound.
DEGENERATE_DENOM = 1e-12


def grad_j(state: ModelState, data: DesignMatrix, j: int, lam2: float = 0.0) -> float:
    """Partial derivative of the smooth loss along coordinate j."""
    g = -float(data.signed[:, j] @ expit(-state.margins))
    if lam2:
        g += 2.0 * lam2 * float(state.w[j])
    return g


def lipschitz_j(data: DesignMatrix, j: int, lam2: float = 0.0) -> float:
    """Curvature bound for coordinate j: sum(x_ij^2)/4 plus the ridge term.

    A zero column with no ridge gives 0; such coordinates are inert and
    callers must skip them.
    """
    return 0.25 * float(data.column_sq_sums[j]) + 2.0 * lam2


def lipschitz_all(data: DesignMatrix, lam2: float = 0.0) -> np.ndarray:
    return 0.25 * data.column_sq_sums + 2.0 * lam2


def threshold_step(state: ModelState, data: DesignMatrix, j: int, hp: HyperParams) -> float:
    """Candidate new coefficient for coordinate j under the quadratic surrogate.

    Returns c = w_j - grad_j/L_j when |c| clears sqrt(2*lambda0/L_j), else 0.
    With lambda0 = 0 this is the plain surrogate step used when the support
    is held fixed.
    """
    L = lipschitz_j(data, j, hp.lambda2)
    if L <= 0.0:
        raise ValueError(f"coordinate {j} is inert (zero column, no ridge)")
    c = float(state.w[j]) - grad_j(state, data, j, hp.lambda2) / L
    if hp.lambda0 > 0.0 and c * c < 2.0 * hp.lambda0 / L:
        return 0.0
    return c


class CoordinateProbe:
    """One-dimensional restriction of the smooth loss along a coordinate.

    f(t) is the smooth logistic objective of the base state with the probed
    coordinate set to t; the base margins must already exclude any
    contribution from that coordinate.  ``base_sq`` is the squared norm of
    the other coefficients so that values stay comparable with full-state
    losses when a ridge is present.
    """

    __slots__ = ("j", "base_margins", "u", "lam2", "base_sq", "lipschitz", "_f0")

    def __init__(self, base_margins, u, lam2=0.0, base_sq=0.0, lipschitz=None, f0=None, j=-1):
        self.j = j
        self.base_margins = base_margins
        self.u = u
        self.lam2 = lam2
        self.base_sq = base_sq
        if lipschitz is None:
            lipschitz = 0.25 * float(u @ u) + 2.0 * lam2
        self.lipschitz = lipschitz
        self._f0 = f0

    @property
    def f0(self) -> float:
        if self._f0 is None:
            self._f0 = self.value_at(0.0)
        return self._f0

    def value_at(self, t: float) -> float:
        val = log1p_exp_neg_sum(self.base_margins + t * self.u)
        return val + self.lam2 * (t * t + self.base_sq)

    def slope_at(self, t: float) -> float:
        q = expit(-(self.base_margins + t * self.u))
        return -float(self.u @ q) + 2.0 * self.lam2 * t

    def eval_at(self, t: float) -> tuple[float, float]:
        """Value and slope from one shared exponential pass."""
        m = self.base_margins + t * self.u
        e = np.exp(-np.abs(m))
        value = float((np.maximum(-m, 0.0) + np.log1p(e)).sum())
        q = np.where(m >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
        slope = -float(self.u @ q)
        if self.lam2:
            value += self.lam2 * (t * t + self.base_sq)
            slope += 2.0 * self.lam2 * t
        return value, slope


def coordinate_probe(state: ModelState, data: DesignMatrix, j: int, lam2: float = 0.0) -> CoordinateProbe:
    """Probe for coordinate j of ``state`` with that coordinate zeroed out.

    The probe may reference the state's margin cache directly; treat it as a
    snapshot that is only valid while the state is unchanged.
    """
    u = data.signed[:, j]
    wj = float(state.w[j])
    base_margins = state.margins if wj == 0.0 else state.margins - wj * u
    base_sq = float(state.w @ state.w) - wj * wj
    return CoordinateProbe(
        base_margins,
        u,
        lam2=lam2,
        base_sq=base_sq,
        lipschitz=lipschitz_j(data, j, lam2),
        j=j,
    )


def iterate_threshold(probe: CoordinateProbe, start: float, iterations: int) -> float:
    """Repeated penalty-free surrogate steps along the probe."""
    t = float(start)
    L = probe.lipschitz
    for _ in range(iterations):
        t = t - probe.slope_at(t) / L
    return t


def find_new_coefficient(state: ModelState, data: DesignMatrix, j: int, hp: HyperParams) -> float:
    """Near-optimal coefficient for coordinate j via iterated thresholding.

    Runs ``hp.max_inner_iter`` penalty-free steps starting from the current
    coefficient; successive iterates approach the 1-D optimum monotonically
    from one side.
    """
    probe = coordinate_probe(state, data, j, hp.lambda2)
    return iterate_threshold(probe, float(state.w[j]), hp.max_inner_iter)


# --- lower bounds for the 1-D minimum ------------------------------------

def _lin_cut_val(f1, a1, x1, f2, a2, x2):
    if a1 == a2:
        return f1
    return (a1 * f2 - a2 * f1 + a1 * a2 * (x1 - x2)) / (a1 - a2)


def _quad_cut_one_val(f1, a1, lam2):
    return f1 - a1 * a1 / (4.0 * lam2)


def _quad_cut_two_val(f1, a1, x1, f2, a2, x2, lam2):
    # Exact minimum of max(p1, p2) where p_k is the quadratic minorant
    # anchored at x_k.  The minorants share curvature lam2, so they cross
    # exactly once at xhat; the max switches branches there.  Evaluating the
    # crossing alone can overshoot the true minimum when a branch's vertex
    # falls on its own side of the crossing, so each branch is minimized
    # over its side.
    denom = a1 - a2 - 2.0 * lam2 * (x1 - x2)
    if abs(denom) <= DEGENERATE_DENOM:
        return max(_quad_cut_one_val(f1, a1, lam2), _quad_cut_one_val(f2, a2, lam2))
    xhat = (-f1 + f2 + a1 * x1 - a2 * x2 - lam2 * (x1 * x1 - x2 * x2)) / denom

    def p1(x):
        return f1 + a1 * (x - x1) + lam2 * (x - x1) ** 2

    def p2(x):
        return f2 + a2 * (x - x2) + lam2 * (x - x2) ** 2

    v1 = x1 - a1 / (2.0 * lam2)
    v2 = x2 - a2 / (2.0 * lam2)
    if denom < 0.0:  # p1 is the max left of xhat, p2 right of it
        return min(p1(min(v1, xhat)), p2(max(v2, xhat)))
    return min(p2(min(v2, xhat)), p1(max(v1, xhat)))


def lin_cut(x1: float, x2: float, probe) -> float:
    """Tangent-intersection lower bound on the probe's minimum.

    Requires tangent slopes of opposite sign (the two points straddle the
    minimizer).  When both slopes vanish the value at x1 already is the
    minimum.
    """
    a1 = probe.slope_at(x1)
    a2 = probe.slope_at(x2)
    if a1 * a2 > 0.0:
        raise ValueError("tangent slopes must not share a sign")
    if a1 == a2:
        return probe.value_at(x1)
    return _lin_cut_val(probe.value_at(x1), a1, x1, probe.value_at(x2), a2, x2)


def quad_cut_one(x1: float, probe, lam2: float) -> float:
    """Single-point strong-convexity lower bound: f(x1) - f'(x1)^2 / (4*lam2)."""
    if lam2 <= 0.0:
        raise ConfigError("quadratic cuts need a positive ridge coefficient")
    a1 = probe.slope_at(x1)
    return _quad_cut_one_val(probe.value_at(x1), a1, lam2)


def quad_cut_two(x1: float, x2: float, probe, lam2: float) -> float:
    """Two-point strong-convexity lower bound: the minimum of the pointwise
    max of the quadratic minorants anchored at x1 and x2.

    In the usual configuration this is the minorants' intersection value;
    when a minorant bottoms out before the intersection its vertex value is
    the binding one.  Falls back to the better one-point bound when the
    minorants are (nearly) the same parabola and have no unique
    intersection.  Never below the tangent-line bound on the same points.
    """
    if lam2 <= 0.0:
        raise ConfigError("quadratic cuts need a positive ridge coefficient")
    a1 = probe.slope_at(x1)
    a2 = probe.slope_at(x2)
    if a1 * a2 > 0.0:
        raise ValueError("tangent slopes must not share a sign")
    f1 = probe.value_at(x1)
    f2 = probe.value_at(x2)
    return _quad_cut_two_val(f1, a1, x1, f2, a2, x2, lam2)


# --- intercept ------------------------------------------------------------

_INTERCEPT_SPAN = 40.0


def refit_intercept(state: ModelState, data: DesignMatrix, max_iter: int = 60) -> float:
    """Exact 1-D minimization of the logistic loss over the intercept.

    Newton steps on the derivative, safeguarded by a shrinking sign bracket
    (midpoint fallback when a step leaves it); the intercept carries no
    penalty and is clamped to a wide span on separable data.  Returns the
    applied shift.
    """
    if data.n == 0:
        return 0.0
    y = data.y
    m = state.margins
    lo, hi = -_INTERCEPT_SPAN, _INTERCEPT_SPAN
    delta = 0.0
    for _ in range(max_iter):
        q = expit(-(m + delta * y))
        g = -float(y @ q)
        if g > 0.0:
            hi = delta
        else:
            lo = delta
        curvature = float(q @ (1.0 - q))
        nxt = delta - g / curvature if curvature > 0.0 else 0.5 * (lo + hi)
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - delta) <= 1e-13:
            delta = nxt
            break
        delta = nxt
    state.set_intercept(data, state.intercept + delta)
    return delta


# --- sweeps ---------------------------------------------------------------

def cd_sweep(state: ModelState, data: DesignMatrix, lam0: float, lam2: float,
             lip: np.ndarray, coords) -> float:
    """One pass of surrogate-threshold steps over ``coords``.

    Equivalent to calling ``threshold_step`` coordinate by coordinate, with
    the sigmoid vector reused between steps that change nothing.  Returns
    the largest coefficient move.

    The decisions are those of the cyclic order.  Runs of zero coordinates
    are screened with one product ``Z[:, run].T @ q`` against the current
    sigmoid vector (``core.sweep_visits``); every coordinate the screen flags,
    and every support coordinate, takes the scalar step below.  Only the
    summation order of the screening products differs from the loop, so
    a zero coordinate can be decided differently only when its test lies
    within rounding of its threshold.
    Runs shorter than ``core.SCREEN_MIN_RUN`` (8) stay in the loop: a
    screen costs about as much as six loop visits (measurements at the
    constant).
    """
    z = data.signed
    q = expit(-state.margins)
    max_move = 0.0

    def screen(cols):
        # The scalar step below with w_j = 0.  Inert columns (L = 0) have a
        # zero gradient; dividing by 1 instead keeps them at zero.
        L = lip[cols]
        L = np.where(L > 0.0, L, 1.0)
        c = (z[:, cols].T @ q) / L
        if lam0 > 0.0:
            return ~(c * c < 2.0 * lam0 / L)
        return c != 0.0

    for j in sweep_visits(coords, state.w, len(state.support), screen):
        L = lip[j]
        if L <= 0.0:
            continue
        wj = float(state.w[j])
        g = -float(z[:, j] @ q) + 2.0 * lam2 * wj
        c = wj - g / L
        new = 0.0 if (lam0 > 0.0 and c * c < 2.0 * lam0 / L) else c
        if new != wj:
            state.set_coefficient(data, j, new)
            q = expit(-state.margins)
            move = abs(new - wj)
            if move > max_move:
                max_move = move
    return max_move
