"""Coordinate machinery for the logistic loss.

Curvature bounds, the 1-D probes of the line search, the lower bounds that
rule features out without running a line search, the intercept refit, the
coordinate-descent sweep and the block screening of swap candidates.
The engine functions (see ``core.engine``) are at the end of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import (
    EPS,
    DesignMatrix,
    HyperParams,
    ModelState,
    _candidate_order,
    log1p_exp_neg_sum,
    newton_solve,
    smooth_logistic_loss,
    sweep_visits,
)

# Engine constants (see ``core.engine``).  The warm start solves a support
# that SUPPORT_SETTLED_SWEEPS sweeps in a row left unchanged; fewer lock in
# wide supports (CHANGES.md has the measurements).
PROBABILITY_SCALE = 1.0
TAKES_RIDGE = True
BINARIZE_ENCODING = "0/1"
SUPPORT_SETTLED_SWEEPS = 20
COEF_BOUND = math.inf

# Surrogate steps K of a swap candidate's line search (``find_swap`` passes
# them to ``screen_block``).
LINE_SEARCH_STEPS = 10

# Two quadratic minorants with nearly equal curvature-adjusted slopes have no
# usable intersection; below this denominator we fall back to the one-point
# bound.
DEGENERATE_DENOM = 1e-12


def lipschitz_all(data: DesignMatrix, lam2: float = 0.0) -> np.ndarray:
    """Curvature bounds of every coordinate: sum(x_ij^2)/4 plus the ridge
    term.  A zero column with no ridge gives 0; such coordinates are inert
    and callers must skip them."""
    return 0.25 * data.column_sq_sums + 2.0 * lam2


# ``CoordinateProbe`` is the scalar probe that ``BlockProbe`` replaced; no
# fit calls it.  It stays because the benchmark tracer's ``_targets()``
# dereferences it eagerly, so without it every traced run crashes.
class CoordinateProbe:
    """One-dimensional restriction of the smooth loss along a coordinate.

    f(t) is the smooth logistic objective of the base state with the probed
    coordinate set to t; the base margins must already exclude any
    contribution from that coordinate.  ``base_sq`` is the squared norm of
    the other coefficients so that values stay comparable with full-state
    losses when a ridge is present.
    """

    __slots__ = ("base_margins", "u", "lam2", "base_sq", "lipschitz", "_f0")

    def __init__(self, base_margins, u, lam2=0.0, base_sq=0.0, lipschitz=None, f0=None):
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


class BlockProbe:
    """``CoordinateProbe`` for k coordinates at once.

    Row b of ``u`` is the signed column of coordinate b.  Every row shares
    the base margins, ``lam2`` and ``base_sq``, so one pass evaluates all
    k restrictions, each at its own point, with one exponential over the
    k x n block.  sigma'(m) of the base margins m is computed when first
    needed and shared with the probes made by ``take``.  Passes reuse the
    probe's buffers; their results are fresh arrays.
    """

    __slots__ = ("base_margins", "u", "lam2", "base_sq", "_sp", "_m", "_e", "_c", "_neg")

    def __init__(self, base_margins, u, lam2=0.0, base_sq=0.0):
        self.base_margins = base_margins
        self.u = u
        self.lam2 = lam2
        self.base_sq = base_sq
        self._sp = self._m = self._e = self._c = self._neg = None

    def take(self, rows) -> "BlockProbe":
        """The probe restricted to ``rows`` (itself when that is every row).
        It reuses the leading rows of this probe's buffers, so only one of
        the two may be evaluated from then on."""
        k = len(rows)
        if k == self.u.shape[0]:
            return self
        out = BlockProbe(self.base_margins, self.u[rows], self.lam2, self.base_sq)
        out._sp = self._sp
        if self._m is not None:
            out._m = self._m[:k]
        if self._e is not None:
            out._e, out._c, out._neg = self._e[:k], self._c[:k], self._neg[:k]
        return out

    def _margins(self, t):
        if self._m is None:
            self._m = np.empty_like(self.u)
        m = np.multiply(self.u, t[:, None], out=self._m)
        m += self.base_margins
        return m

    def _buffers(self):
        if self._e is None:
            self._e, self._c = np.empty_like(self.u), np.empty_like(self.u)
            self._neg = np.empty(self.u.shape, dtype=bool)
        return self._e, self._c, self._neg

    def _base_curvature(self):
        if self._sp is None:
            self._sp = sigma_prime(self.base_margins)
        return self._sp

    def zero_curvature(self):
        """sum_i u_i^2 sigma'(m_i) and sum_i |u_i|^3 sigma'(m_i) of every row
        at the base margins m: the mu0 and mu0 rho of ``screen_block``'s
        cut at zero, with no exponential over the block."""
        a, c, _ = self._buffers()
        np.abs(self.u, out=a)
        np.multiply(a, self._base_curvature(), out=c)
        c *= a
        return c.sum(axis=1), np.einsum("ij,ij->i", a, c)

    def slopes(self, t):
        m = self._margins(t)
        # sigmoid(-m) as 1 / (1 + e^m): numpy's exp is about 4x faster than
        # expit, and e^m overflowing to inf gives the right limit 0.
        with np.errstate(over="ignore"):
            q = np.exp(m, out=m)
        q += 1.0
        np.reciprocal(q, out=q)
        return -np.einsum("ij,ij->i", self.u, q) + 2.0 * self.lam2 * t

    def evaluate(self, t, curvature=False):
        """Values and slopes at ``t`` from one shared exponential pass, and
        with ``curvature`` the bound mu of ``screen_block`` on f'' between
        0 and ``t`` (else None)."""
        e, c, neg = self._buffers()
        m = self._margins(t)
        np.less(m, 0.0, out=neg)
        np.exp(np.negative(np.abs(m, out=e), out=e), out=e)
        # value terms max(-m, 0) + log1p(e), accumulated in the margin buffer
        np.negative(m, out=m)
        np.maximum(m, 0.0, out=m)
        m += np.log1p(e)
        values = m.sum(axis=1) + self.lam2 * (t * t + self.base_sq)
        np.add(e, 1.0, out=m)
        mu = None
        if curvature:  # sigma'(m) = e / (1 + e)^2, the same at m and -m
            np.divide(np.divide(e, m, out=c), m, out=c)
            np.minimum(c, self._base_curvature(), out=c)
            c *= self.u
            mu = np.einsum("ij,ij->i", self.u, c) + 2.0 * self.lam2
        # sigmoid(-m): e / (1 + e) where m >= 0, 1 / (1 + e) where m < 0
        np.putmask(e, neg, 1.0)
        q = np.divide(e, m, out=e)
        return values, -np.einsum("ij,ij->i", self.u, q) + 2.0 * self.lam2 * t, mu


def sigma_prime(m):
    """sigma'(m) = e / (1 + e)^2 with e = exp(-|m|), the same at m and -m."""
    e = np.exp(-np.abs(m))
    return e / (1.0 + e) ** 2


# --- lower bounds for the 1-D minimum ------------------------------------

# Lower bounds on the minimum of a convex f from values f_k and slopes a_k
# at points x_k: the tangents' intersection (the value itself when the
# slopes are equal), and, where f'' >= 2 lam2, the one-point minorant's
# vertex f1 - a1^2 / (4 lam2) and the minimum of two minorants' max.  They
# take scalars or arrays (element by element): ``screen_block`` applies
# them to a block of candidates, the tests to single probes.

def _lin_cut_val(f1, a1, x1, f2, a2, x2):
    same = a1 == a2
    denom = np.where(same, 1.0, a1 - a2)
    return np.where(same, f1, (a1 * f2 - a2 * f1 + a1 * a2 * (x1 - x2)) / denom)


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
    degenerate = np.abs(denom) <= DEGENERATE_DENOM
    xhat = (-f1 + f2 + a1 * x1 - a2 * x2 - lam2 * (x1 * x1 - x2 * x2)) / np.where(
        degenerate, 1.0, denom)

    def p1(x):
        return f1 + a1 * (x - x1) + lam2 * (x - x1) ** 2

    def p2(x):
        return f2 + a2 * (x - x2) + lam2 * (x - x2) ** 2

    v1 = x1 - a1 / (2.0 * lam2)
    v2 = x2 - a2 / (2.0 * lam2)
    # denom < 0: p1 is the max left of xhat, p2 right of it
    left = np.minimum(p1(np.minimum(v1, xhat)), p2(np.maximum(v2, xhat)))
    right = np.minimum(p2(np.minimum(v2, xhat)), p1(np.maximum(v1, xhat)))
    return np.where(
        degenerate,
        np.maximum(_quad_cut_one_val(f1, a1, lam2), _quad_cut_one_val(f2, a2, lam2)),
        np.where(denom < 0.0, left, right),
    )


def _self_concordant_cut_val(f0, a, r, mu0, third):
    # Minimum over [0, r] of g(tau) = f0 - a tau + mu0 (e^(-rho tau) - 1 +
    # rho tau) / rho^2 with rho = third / mu0: g is convex, and its slope
    # -a + mu0 (1 - e^(-rho tau)) / rho vanishes at -log1p(-a rho / mu0) / rho,
    # or nowhere when a rho >= mu0 (then tau = r).  Where mu0 = 0, f0 - a r.
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = third / mu0
        tau = np.minimum(r, -np.log1p(-np.minimum(a * rho / mu0, 1.0)) / rho)
        x = rho * tau
        g = f0 - a * tau + mu0 * (np.expm1(-x) + x) / (rho * rho)
    return np.where(mu0 > 0.0, g, f0 - a * r)


def _allowance(n, iterations, f_abs, lip, r, mu):
    # the rounding allowance of ``screen_block``'s prunes
    scale = 2.0 * np.sqrt(n * lip)
    return ((n + 8) * EPS * (3.0 * f_abs + 2.0 * scale * r + mu * r * r + 4.0 * iterations * n)
            + 3.0 * iterations * EPS * scale * r)


# --- intercept ------------------------------------------------------------

_INTERCEPT_SPAN = 40.0
_INTERCEPT_MAX_ITER = 60


def refit_intercept(state: ModelState, data: DesignMatrix, stats) -> float:
    """Exact 1-D minimization of the logistic loss over the intercept.

    Newton steps on the derivative, safeguarded by a shrinking sign bracket
    (midpoint fallback when a step leaves it); the intercept carries no
    penalty and is clamped to a wide span on separable data.  Returns the
    applied shift; a stop at ``_INTERCEPT_MAX_ITER`` steps is counted in
    ``stats.cap_hits``.
    """
    if data.n == 0:
        return 0.0
    y = data.y
    m = state.margins
    lo, hi = -_INTERCEPT_SPAN, _INTERCEPT_SPAN
    delta = 0.0
    for _ in range(_INTERCEPT_MAX_ITER):
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
    else:
        stats.cap_hits += 1
    state.set_intercept(data, state.intercept + delta)
    return delta


# --- sweeps ---------------------------------------------------------------

def cd_sweep(state: ModelState, data: DesignMatrix, lam0: float, lam2: float,
             lip: np.ndarray, coords) -> float:
    """One pass of surrogate-threshold steps over ``coords``, a contiguous
    range.

    Equivalent to the loop of scalar steps c = w_j - g_j / L_j, set to zero
    when c^2 < 2 lam0 / L_j (``threshold_step`` in ``tests/oracles.py``),
    with the sigmoid vector q = expit(-margins) held here in one buffer and
    computed again, in place, only after a step that changes a coefficient.
    A step reads its column as row j of ``signed.T`` and moves the margins
    in place (``ModelState.set_coefficient``).  Returns the largest move.

    The decisions are those of the cyclic order.  A sweep at ``lam0 > 0``
    screens its runs of zero coordinates with one product
    ``Z[:, run].T @ q`` against the current sigmoid vector
    (``core.sweep_visits``, ``DesignMatrix.signed_products``); every
    coordinate the screen flags, and every support coordinate, takes the
    scalar step below.  Only the summation order of the screening products
    differs from the loop, so a zero coordinate can be decided differently
    only when its test lies within rounding of its threshold; on threshold
    dummies, whose products are prefix sums, the screen flags every column
    within their ``prefix_sum_allowance`` of its threshold, so there the
    sweep is the loop's bit for bit.  Runs shorter than
    ``core.SCREEN_MIN_RUN`` (8) stay in the loop: a screen costs about as
    much as six loop visits (measurements at the constant).  A ``lam0 = 0``
    sweep goes coordinate by coordinate.
    """
    rows, w, lips = data.signed.T, state.w, lip.tolist()
    q = expit(np.negative(state.margins))
    max_move = 0.0
    # The screen's per-sweep constants.  Inert columns (L = 0) have a zero
    # gradient; dividing by 1 instead keeps them at zero.
    screen_lip = np.where(lip > 0.0, lip, 1.0)
    screen_cut = 2.0 * lam0 / screen_lip

    def screen(cols):
        # The scalar step below with w_j = 0, for the largest |z_j . q|
        # within ``tol`` of the screen's product: each step of the scalar
        # test rounds monotonically, so it leaves zero no column that this
        # test keeps there.
        tol = data.prefix_sum_allowance(q)
        c = (np.abs(data.signed_products(q, cols)) + tol) / screen_lip[cols]
        return ~(c * c < screen_cut[cols])

    for j in sweep_visits(coords, w, screen if lam0 > 0.0 else None):
        L = lips[j]
        if L <= 0.0:
            continue
        wj = float(w[j])
        g = -float(rows[j] @ q) + 2.0 * lam2 * wj
        c = wj - g / L
        new = 0.0 if (lam0 > 0.0 and c * c < 2.0 * lam0 / L) else c
        if new != wj:
            state.set_coefficient(data, j, new)
            expit(np.negative(state.margins, out=q), out=q)
            move = abs(new - wj)
            if move > max_move:
                max_move = move
    return max_move


# --- swap candidates --------------------------------------------------------

# Candidates of one swap visit are evaluated in blocks of at most
# BLOCK_ELEMENTS // n, so each of the evaluator's few k x n float64 buffers
# stays within 1 MB.  At n = 300 a block holds 436 candidates.
BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class BlockResult:
    """Per-candidate outcomes of ``screen_block``, in block order."""

    accepted: np.ndarray
    coefficient: np.ndarray
    pruned: np.ndarray
    searched: np.ndarray


def screen_block(probe, s0, lip, f0: float, threshold: float, quad: bool,
                 iterations: int) -> BlockResult:
    """Screen k candidates against one shared base state, as the sequential
    scan screens each one.

    ``probe`` is a ``BlockProbe`` over the candidates' columns; ``s0`` and
    ``lip`` hold their slopes at zero and curvature bounds (positive
    wherever the slope is not zero), ``f0`` the base loss.  A candidate is
    accepted when its line-search loss is below ``threshold``.

    The line search takes K = ``iterations`` surrogate steps t <- t -
    f'(t) / L from zero; the swap search passes ``LINE_SEARCH_STEPS``.
    The first is t = -s0/L; no later one is longer or passes the 1-D
    optimum, as L bounds f''.  So the search ends in [0, Kt], at a loss of
    at most f0.
    Cuts at zero (``quad``, which needs ``probe.lam2 > 0``), with no pass:
    the vertex f0 - s0^2 / (4 lam2) of the one-point minorant, and a
    self-concordant bound.  phi(m) = log(1 + e^-m) has |phi'''| <= phi'',
    so at distance tau from zero along the descent direction f'' >=
    sum_i u_i^2 sigma'(m_i) e^(-|u_i| tau) >= mu0 e^(-rho tau) (Jensen),
    with mu0 = sum_i u_i^2 sigma'(m_i) and rho = sum_i |u_i|^3 sigma'(m_i)
    / mu0 at the base margins m (``BlockProbe.zero_curvature``).
    Integrated twice, f >= g(tau) = f0 - |s0| tau + mu0 (e^(-rho tau) - 1
    + rho tau) / rho^2, so the search ends at a loss of at least the
    minimum of g on [0, |Kt|].  A candidate with zero slope has no descent
    direction and is rejected unscreened.
    Only the survivors take one pass at Kt, with value fK and slope sK.
    Reach bound: if sK has the sign of s0, f falls over [0, Kt] and the
    search ends at a loss of at least fK.  Bracket-curvature cut: else the
    optimum lies in [0, Kt], where f'' >= mu = 2 lam2 + sum_i u_i^2
    min(sigma'(m_i), sigma'(m_i + Kt u_i)) by log-concavity of sigma';
    ``quad`` bounds the minimum by the two minorants of curvature mu
    anchored at 0 and Kt, else by the two tangents.  The survivors are
    line-searched together, one pass per step.

    A bound prunes when it clears ``threshold`` by the rounding allowance
    gamma (3 (|f0| + |fK|) + 2 S r + mu r^2 + 4 K n) + 3 K EPS S r, with
    gamma = (n + 8) EPS, r = |Kt| and S = 2 sqrt(n L).  A sum of n terms
    is off by at most gamma times the sum of their magnitudes: |f| for a
    value, S for a slope (sum |u_i| q_i <= ||u|| sqrt(n), ||u||^2 <= 4L),
    mu for mu.  An anchor's errors df, ds, dmu move a bound by at most
    df + ds r + dmu r^2 / 2 on [0, Kt], where both bounds take their
    minimum: the first three terms, with the search's final value and the
    bound's own arithmetic.  Each of the K steps can pass Kt by
    gamma S / L + 3 EPS r, which lowers f by at most |sK| <= S per unit:
    the last two terms.  The self-concordant bound takes this allowance
    with |fK| = |f0|, as the search's final loss is at most f0, and
    mu = 2 mu0.  Its curvature term is mu0 tau^2 psi(rho tau), with
    psi(x) = (e^-x - 1 + x) / x^2 and 0 <= x |psi'(x)| <= psi(x) <= 1/2,
    so the relative errors of mu0 (gamma) and rho (2 gamma + EPS), with
    the term's own arithmetic, move it by at most 2 gamma mu0 r^2.  The
    rounding of the minimizer, and the cancellation in e^-x - 1 + x (at
    most EPS x mu0 / rho^2, where mu0 / rho <= sum_i |u_i| sigma'(m_i)
    <= S / 4 by Cauchy-Schwarz), cost a few EPS S r more, inside 2 gamma
    S r beside the slope's gamma S r.  The vertex prunes when it reaches
    ``threshold``, with no allowance.
    """
    k = s0.shape[0]
    lam2 = probe.lam2
    n = probe.u.shape[1]
    t = np.divide(-s0, lip, out=np.zeros(k), where=s0 != 0.0)
    pruned = np.zeros(k, dtype=bool)
    if quad:
        r = np.abs(iterations * t)
        mu0, third = probe.zero_curvature()
        bound = _self_concordant_cut_val(f0, np.abs(s0), r, mu0, third)
        pruned = ((_quad_cut_one_val(f0, s0, lam2) >= threshold)
                  | (bound >= threshold + _allowance(n, iterations, 2.0 * abs(f0), lip, r,
                                                     2.0 * mu0)))
    live = ~pruned & (s0 != 0.0)

    # ``probe`` covers the candidates ``rows``; it narrows as they drop out.
    rows = np.flatnonzero(live)
    coefficient, accepted = np.zeros(k), np.zeros(k, dtype=bool)
    if not rows.size:
        return BlockResult(accepted, coefficient, pruned, live)
    probe = probe.take(rows)

    # one pass at the reach point Kt
    s, L, x = s0[rows], lip[rows], iterations * t[rows]
    fK, sK, mu = probe.evaluate(x, curvature=quad)
    if quad:
        bound = _quad_cut_two_val(f0, s, 0.0, fK, sK, x, 0.5 * mu)
    else:
        bound, mu = _lin_cut_val(f0, s, 0.0, fK, sK, x), 0.0
    allowance = _allowance(n, iterations, abs(f0) + np.abs(fK), L, np.abs(x), mu)
    cut = np.where(s * sK > 0.0, fK, bound) >= threshold + allowance
    pruned[rows] = cut
    searched = live & ~pruned

    # line search: the first step from zero uses the known slope s0
    keep = np.flatnonzero(~cut)
    if keep.size:
        rows, probe, w, L = rows[keep], probe.take(keep), t[rows[keep]], L[keep]
        for _ in range(iterations - 1):
            w = w - probe.slopes(w) / L
        coefficient[rows] = w
        accepted[rows] = probe.evaluate(w)[0] < threshold
    return BlockResult(accepted, coefficient, pruned, searched)


# --- engine -----------------------------------------------------------------

def new_state(data: DesignMatrix) -> ModelState:
    return ModelState.zeros(data)


def smooth_loss(state: ModelState, data: DesignMatrix, hp: HyperParams) -> float:
    return smooth_logistic_loss(state, data, hp.lambda2)


def sweep(state: ModelState, data: DesignMatrix, hp: HyperParams) -> float:
    return cd_sweep(state, data, hp.lambda0, hp.lambda2, lipschitz_all(data, hp.lambda2),
                    range(data.p))


def _row_terms(m):
    """The loss sum, sigmoid(-m) and sigmoid'(m) of margins ``m``, from one
    exponential (overflow-safe through |m|): the value, gradient weights
    and curvature weights of ``core.newton_solve``."""
    e = np.exp(-np.abs(m))
    value = float((np.maximum(-m, 0.0) + np.log1p(e)).sum())
    q = np.where(m >= 0.0, e, 1.0) / (1.0 + e)
    return value, q, e / (1.0 + e) ** 2


def solve_support(state: ModelState, data: DesignMatrix, hp: HyperParams) -> bool:
    """Exact minimization of the smooth loss (ridge included) over the
    support coefficients and the free intercept, with no box, by
    ``core.newton_solve``, from the current state, with the margins
    rebuilt; returns whether it is certified (``core.NEWTON_GRAD_TOL``).
    A solve ends uncertified at ``core.NEWTON_MAX_STEPS`` steps or when
    ``core.MAX_HALVINGS`` halvings do not lower the loss; the caller counts
    or undoes it (``core.engine``)."""
    return newton_solve(state, data, _row_terms, COEF_BOUND, hp.lambda2)


def find_swap(trial: ModelState, data: DesignMatrix, hp: HyperParams, forbidden: set[int],
              f0: float, threshold: float, cut: str, stats) -> tuple[int, float] | None:
    """The first feature outside ``forbidden``, by gradient magnitude, whose
    line search brings the loss ``f0`` of ``trial`` below ``threshold``,
    with its coefficient; candidates are screened in blocks by
    ``screen_block`` with the resolved ``cut``, and counted in ``stats`` as
    a one-by-one scan would count them."""
    lam2 = hp.lambda2
    grads = -(data.signed.T @ expit(-trial.margins))  # ridge part is zero off-support
    lip = lipschitz_all(data, lam2)
    candidates = np.array(_candidate_order(grads, forbidden, hp.candidate_limit),
                          dtype=np.intp)
    # all-zero columns are no candidates: their slope is zero at any ridge
    candidates = candidates[data.column_sq_sums[candidates] > 0.0]
    base_sq = float(trial.w @ trial.w)
    width = max(1, BLOCK_ELEMENTS // data.n)
    for start in range(0, candidates.size, width):
        block = candidates[start:start + width]
        # The block's columns are copied once; screen_block holds the only
        # reference, so they are freed as soon as candidates drop out.
        res = screen_block(BlockProbe(trial.margins, data.signed.T[block], lam2, base_sq),
                           grads[block], lip[block], f0, threshold,
                           cut == "quad", LINE_SEARCH_STEPS)
        hits = np.flatnonzero(res.accepted)
        # Count as the sequential scan does: up to and including the first
        # acceptance.
        seen = int(hits[0]) + 1 if hits.size else block.size
        stats.candidates += seen
        stats.cut_prunes += int(res.pruned[:seen].sum())
        stats.line_searches += int(res.searched[:seen].sum())
        if hits.size:
            return int(block[hits[0]]), float(res.coefficient[hits[0]])
    return None
