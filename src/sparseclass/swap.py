"""Delete-or-swap local search over the support.

The outer loop walks the support in failure-count order; each visit tries to
drop the feature outright, then to replace it with the most promising
out-of-support feature.  Candidate evaluations are screened with tangent
lower bounds (logistic loss) or resolved analytically (exponential loss), so
most candidates are dismissed without a line search.  Logistic candidates
share one base state per visit and are screened in blocks (``screen_block``),
with the decisions and counts of a one-by-one scan in gradient order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import exponential as expeng
from . import logistic as logeng
from .core import (
    ConfigError,
    DesignMatrix,
    HyperParams,
    ModelState,
    smooth_logistic_loss,
)

ORDERINGS = ("dynamic", "sequential")
CUTS = ("auto", "lin", "quad")

REOPT_MAX_SWEEPS = 100


@dataclass
class FitStats:
    """Work counters for one fit.

    The logistic swap search counts as a sequential scan of each visit's
    candidates would, up to and including the accepted one: ``candidates``
    evaluated (inert zero columns are skipped, not counted),
    ``cut_prunes`` among them dismissed by a cut and ``line_searches`` run.
    """

    swap_evals: int = 0
    cut_prunes: int = 0
    candidates: int = 0
    line_searches: int = 0


@dataclass
class SwapOutcome:
    kind: str  # "no_change" | "deleted" | "swapped"
    removed: int | None
    added: int | None
    new_state: object

    def __post_init__(self):
        if self.kind not in ("no_change", "deleted", "swapped"):
            raise ValueError(f"unknown outcome kind {self.kind!r}")


@dataclass(frozen=True)
class TryAddResult:
    accepted: bool
    coefficient: float
    cut_pruned: bool


class FailureQueue:
    """Per-feature failed-swap tallies.

    ``ordered`` ranks the support by fewest recorded failures first (so
    never-checked features lead), ties broken by ascending index.
    """

    def __init__(self, p: int):
        self.counts = np.zeros(p, dtype=np.int64)

    def record_failure(self, j: int) -> None:
        self.counts[j] += 1

    def ordered(self, support) -> list[int]:
        return sorted(support, key=lambda j: (self.counts[j], j))


def resolve_cut(cut: str, hp: HyperParams) -> str:
    """Pick the screening bound: quadratic needs a ridge, auto follows it."""
    if cut not in CUTS:
        raise ConfigError(f"cut must be one of {CUTS}")
    if cut == "quad" and hp.lambda2 <= 0.0:
        raise ConfigError("quadratic cuts require lambda2 > 0")
    if cut == "auto":
        return "quad" if hp.lambda2 > 0.0 else "lin"
    return cut


# --- support-restricted reoptimization -------------------------------------

def reoptimize(state, data: DesignMatrix, hp: HyperParams) -> None:
    """Cyclic coordinate descent on the current support (penalty-free steps)
    with an intercept refit per sweep, until the per-sweep objective change
    drops below ``hp.objective_tol`` or the sweep cap is hit."""
    if hp.loss == "exponential":
        prev = state.H
        for _ in range(REOPT_MAX_SWEEPS):
            expeng.refit_intercept(state, data)
            expeng.cd_sweep(state, data, 0.0, sorted(state.support))
            cur = state.H
            if prev - cur < hp.objective_tol:
                break
            prev = cur
        return
    lip = logeng.lipschitz_all(data, hp.lambda2)
    prev = smooth_logistic_loss(state, data, hp.lambda2)
    for _ in range(REOPT_MAX_SWEEPS):
        logeng.refit_intercept(state, data)
        logeng.cd_sweep(state, data, 0.0, hp.lambda2, lip, sorted(state.support))
        cur = smooth_logistic_loss(state, data, hp.lambda2)
        if prev - cur < hp.objective_tol:
            break
        prev = cur


# --- candidate evaluation ---------------------------------------------------

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

    ``probe`` is a ``logistic.BlockProbe`` over the candidates' columns;
    ``s0`` and ``lip`` hold their slopes at zero and curvature bounds
    (positive wherever the slope is not zero), ``f0`` the base loss.  A
    candidate is accepted when its line-search loss is below ``threshold``.

    Each candidate brackets its 1-D optimum with steps of t = -s0/L: the
    slope at 2t tells whether the optimum lies before 2t (then 1.5t and t
    or 2t are probed) or beyond it (then 3t is probed).  A tangent-line
    bound (``quad`` False) or strong-convexity bound (``quad`` True, needs
    ``probe.lam2 > 0``) on the two bracket points prunes the candidate when
    it cannot beat ``threshold``; quadratic cuts also test the one-point
    bound at every probed point.  A candidate with zero slope has no
    descent direction and is rejected unscreened.  The survivors run
    ``iterations`` surrogate steps from zero (``logistic.iterate_threshold``).
    All k candidates take each step together, one pass per step, and the
    masks below track which branch each candidate is on.
    """
    k = s0.shape[0]
    lam2 = probe.lam2
    pruned = np.zeros(k, dtype=bool)
    if quad:
        pruned = logeng._quad_cut_one_val(f0, s0, lam2) >= threshold
    live = ~pruned & (s0 != 0.0)
    t = np.divide(-s0, lip, out=np.zeros(k), where=live)

    # ``probe`` covers the candidates ``rows``; it narrows as they drop out.
    rows = np.flatnonzero(live)
    probe = probe.take(rows)

    # pass 1: the slope at 2t tells whether the optimum lies before 2t
    s2 = np.zeros(k)
    s2[rows] = probe.slopes(2.0 * t[rows])
    near = live & (s0 * s2 < 0.0)

    # pass 2: value and slope at 1.5t (near), the value at 2t (far)
    x_mid = np.where(near, 1.5 * t, 2.0 * t)
    f_mid, s_mid = np.zeros(k), s2.copy()
    f_mid[rows], s_mid_rows = probe.evaluate(x_mid[rows])
    s_mid[near] = s_mid_rows[near[rows]]
    if quad:
        pruned |= live & (logeng._quad_cut_one_val(f_mid, s_mid, lam2) >= threshold)
        live &= ~pruned
    keep = np.flatnonzero(live[rows])
    rows, probe = rows[keep], probe.take(keep)

    # pass 3: the other bracket end, t (inner), 2t (near) or 3t (far)
    inner = live & near & (s0 * s_mid < 0.0)
    x3 = np.where(inner, t, np.where(near, 2.0 * t, 3.0 * t))
    f3, s3 = np.zeros(k), np.zeros(k)
    f3[rows], s3[rows] = probe.evaluate(x3[rows])

    # bracket (a, b): inner (t, 1.5t), near (1.5t, 2t), far (2t, 3t)
    a = np.where(inner, x3, x_mid)
    fa = np.where(inner, f3, f_mid)
    sa = np.where(inner, s3, s_mid)
    b = np.where(inner, x_mid, x3)
    fb = np.where(inner, f_mid, f3)
    sb = np.where(inner, s_mid, np.where(near, s2, s3))
    straddle = live & (near | (s0 * s3 < 0.0))
    if quad:
        bound = np.where(straddle, logeng._quad_cut_two_val(fa, sa, a, fb, sb, b, lam2),
                         logeng._quad_cut_one_val(f3, s3, lam2))
    else:
        bound = np.where(straddle, logeng._lin_cut_val(fa, sa, a, fb, sb, b), -np.inf)
    pruned |= live & (bound >= threshold)
    searched = live & ~pruned

    # line search: the first step from zero uses the known slope s0
    keep = np.flatnonzero(searched[rows])
    rows, probe = rows[keep], probe.take(keep)
    w = t[rows]
    L = lip[rows]
    for _ in range(iterations - 1):
        w = w - probe.slopes(w) / L
    coefficient = np.zeros(k)
    coefficient[rows] = w
    accepted = np.zeros(k, dtype=bool)
    accepted[rows] = probe.evaluate(w)[0] < threshold
    return BlockResult(accepted, coefficient, pruned, searched)


def _try_add(state, data: DesignMatrix, hp: HyperParams, j2: int, loss_best: float,
             quad: bool) -> TryAddResult:
    """``screen_block`` on the single candidate ``j2``."""
    cp = logeng.coordinate_probe(state, data, j2, hp.lambda2)
    probe = logeng.BlockProbe(cp.base_margins, cp.u[None, :], cp.lam2, cp.base_sq)
    f0, s0 = probe.evaluate(np.zeros(1))
    res = screen_block(probe, s0, np.array([cp.lipschitz]), float(f0[0]),
                       loss_best - hp.objective_tol, quad, hp.max_inner_iter)
    accepted = bool(res.accepted[0])
    return TryAddResult(accepted, float(res.coefficient[0]) if accepted else 0.0,
                        bool(res.pruned[0]))


def try_add_lincut(state_without_j: ModelState, data: DesignMatrix, hp: HyperParams,
                   j2: int, loss_best: float) -> TryAddResult:
    """Evaluate adding feature ``j2`` to a state it is absent from, screening
    with tangent-line bounds.  Accepts when the post-line-search loss beats
    ``loss_best`` by more than the objective tolerance."""
    return _try_add(state_without_j, data, hp, j2, loss_best, quad=False)


def try_add_quad(state_without_j: ModelState, data: DesignMatrix, hp: HyperParams,
                 j2: int, loss_best: float) -> TryAddResult:
    """Evaluate adding feature ``j2``, screening with strong-convexity bounds."""
    if hp.lambda2 <= 0.0:
        raise ConfigError("quadratic cuts require lambda2 > 0")
    return _try_add(state_without_j, data, hp, j2, loss_best, quad=True)


# --- delete-or-swap ----------------------------------------------------------

def _candidate_order(grads: np.ndarray, forbidden: set[int], limit: int | None) -> list[int]:
    """Features outside ``forbidden`` by descending gradient magnitude (ties by
    index), the first ``limit`` of them when a limit is set."""
    order = np.argsort(-np.abs(grads), kind="stable")
    allowed = np.ones(grads.shape[0], dtype=bool)
    allowed[list(forbidden)] = False
    return order[allowed[order]][:limit].tolist()


def _try_delete_or_swap_logistic(state, data, hp, j, cut, stats) -> SwapOutcome:
    lam2 = hp.lambda2
    loss_best = smooth_logistic_loss(state, data, lam2)
    trial = state.copy()
    trial.set_coefficient(data, j, 0.0)
    dropped_loss = smooth_logistic_loss(trial, data, lam2)
    if dropped_loss <= loss_best:
        reoptimize(trial, data, hp)
        return SwapOutcome("deleted", j, None, trial)

    q = expit(-trial.margins)
    grads = -(data.signed.T @ q)  # ridge part is zero off-support
    lip = logeng.lipschitz_all(data, lam2)
    candidates = np.array(_candidate_order(grads, set(state.support), hp.candidate_limit),
                          dtype=np.intp)
    candidates = candidates[lip[candidates] > 0.0]  # inert columns are no candidates
    base_sq = float(trial.w @ trial.w)
    threshold = loss_best - hp.objective_tol
    width = max(1, BLOCK_ELEMENTS // data.n)
    for start in range(0, candidates.size, width):
        block = candidates[start:start + width]
        # The block's columns are copied once; screen_block holds the only
        # reference, so they are freed as soon as candidates drop out.
        res = screen_block(logeng.BlockProbe(trial.margins, data.signed.T[block], lam2, base_sq),
                           grads[block], lip[block], dropped_loss, threshold,
                           cut == "quad", hp.max_inner_iter)
        hits = np.flatnonzero(res.accepted)
        # Count as the sequential scan does: up to and including the first
        # acceptance.
        seen = int(hits[0]) + 1 if hits.size else block.size
        if stats is not None:
            stats.candidates += seen
            stats.cut_prunes += int(res.pruned[:seen].sum())
            stats.line_searches += int(res.searched[:seen].sum())
        if hits.size:
            j2 = int(block[hits[0]])
            trial.set_coefficient(data, j2, float(res.coefficient[hits[0]]))
            reoptimize(trial, data, hp)
            return SwapOutcome("swapped", j, j2, trial)
    return SwapOutcome("no_change", None, None, state)


def _try_delete_or_swap_exponential(state, data, hp, j, stats) -> SwapOutcome:
    loss_best = state.H
    trial = state.copy()
    trial.set_coefficient(data, j, 0.0)
    if trial.H <= loss_best:
        reoptimize(trial, data, hp)
        return SwapOutcome("deleted", j, None, trial)

    dots = data.signed.T @ trial.c  # -gradient of the loss at the trial state
    forbidden = set(state.support)
    candidates = _candidate_order(dots, forbidden, hp.candidate_limit)
    H_ref = trial.H
    threshold = loss_best - hp.objective_tol
    for j2 in candidates:
        d = min(max(0.5 * (H_ref - float(dots[j2])) / H_ref, 0.0), 1.0)
        x = expeng.analytic_coefficient(d)
        if expeng.updated_loss(H_ref, d, x) < threshold:
            trial.set_coefficient(data, j2, x)
            reoptimize(trial, data, hp)
            return SwapOutcome("swapped", j, j2, trial)
    return SwapOutcome("no_change", None, None, state)


def try_delete_or_swap(state, data: DesignMatrix, hp: HyperParams, j: int,
                       cut: str = "auto", stats: FitStats | None = None) -> SwapOutcome:
    """Try to delete support feature ``j`` or swap it for an outside feature.

    Deletion is accepted when zeroing the coefficient does not increase the
    smooth loss.  Otherwise outside features are visited in descending
    gradient magnitude and the first acceptable replacement wins; the
    returned state is fully reoptimized on its new support.  With no
    acceptable change the original state is returned untouched.
    """
    if j not in state.support:
        raise ValueError(f"feature {j} is not in the support")
    if hp.loss == "exponential":
        return _try_delete_or_swap_exponential(state, data, hp, j, stats)
    return _try_delete_or_swap_logistic(state, data, hp, j, resolve_cut(cut, hp), stats)


def fit_swap_1opt(initial, data: DesignMatrix, hp: HyperParams,
                  ordering: str = "dynamic", cut: str = "auto",
                  stats: FitStats | None = None):
    """Local search until no single delete-or-swap improves the objective.

    ``dynamic`` ordering walks the support by ascending failed-swap count;
    ``sequential`` walks it by ascending feature index.  After every
    accepted change the walk restarts on the new support.  The input state
    should already be coordinate-wise optimal (warm-started).
    """
    if ordering not in ORDERINGS:
        raise ConfigError(f"ordering must be one of {ORDERINGS}")
    cut = resolve_cut(cut, hp) if hp.loss == "logistic" else cut
    state = initial
    queue = FailureQueue(data.p)
    while True:
        if not state.support:
            return state
        if ordering == "dynamic":
            walk = queue.ordered(state.support)
        else:
            walk = sorted(state.support)
        improved = False
        for j in walk:
            outcome = try_delete_or_swap(state, data, hp, j, cut=cut, stats=stats)
            if stats is not None:
                stats.swap_evals += 1
            if outcome.kind == "no_change":
                queue.record_failure(j)
            else:
                state = outcome.new_state
                improved = True
                break
        if not improved:
            return state
