"""Delete-or-swap local search over the support.

The outer loop walks the support in failure-count order; each visit tries to
drop the feature outright, then to replace it with the most promising
out-of-support feature.  Candidate evaluations are screened with tangent
lower bounds (logistic loss) or resolved analytically (exponential loss), so
most candidates are dismissed without a line search.
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
    """Work counters for one fit."""

    swap_evals: int = 0
    cut_prunes: int = 0


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

def _line_search_accept(probe, hp: HyperParams, threshold: float) -> TryAddResult:
    w_hat = logeng.iterate_threshold(probe, 0.0, hp.max_inner_iter)
    if probe.value_at(w_hat) < threshold:
        return TryAddResult(True, w_hat, False)
    return TryAddResult(False, 0.0, False)


_PRUNED = TryAddResult(False, 0.0, True)
_REJECTED = TryAddResult(False, 0.0, False)


def _try_add_lin(probe, s0: float, loss_best: float, hp: HyperParams) -> TryAddResult:
    """Candidate screening with tangent-line bounds (no ridge needed).

    Brackets the 1-D optimum with one or two aggressive steps beyond the
    surrogate step, prunes when the tangent-intersection bound cannot beat
    the incumbent loss, and otherwise falls through to the line search.
    """
    threshold = loss_best - hp.objective_tol
    if s0 == 0.0:
        return _REJECTED  # no descent direction
    L = probe.lipschitz
    t_step = -s0 / L
    a, b = t_step, 2.0 * t_step
    sb = probe.slope_at(b)
    if s0 * sb < 0.0:
        c = 0.5 * (a + b)
        sc = probe.slope_at(c)
        if s0 * sc < 0.0:
            b, sb = c, sc
            sa = probe.slope_at(a)
        else:
            a, sa = c, sc
        bound = logeng._lin_cut_val(probe.value_at(a), sa, a, probe.value_at(b), sb, b)
        if bound >= threshold:
            return _PRUNED
        return _line_search_accept(probe, hp, threshold)
    a, b = 2.0 * t_step, 3.0 * t_step
    sa = sb  # slope at 2*t_step is already known
    sb = probe.slope_at(b)
    if s0 * sb < 0.0:
        bound = logeng._lin_cut_val(probe.value_at(a), sa, a, probe.value_at(b), sb, b)
        if bound >= threshold:
            return _PRUNED
        return _line_search_accept(probe, hp, threshold)
    # Minimum is far out; decide by the line search alone.
    return _line_search_accept(probe, hp, threshold)


def _try_add_quad(probe, s0: float, loss_best: float, hp: HyperParams) -> TryAddResult:
    """Candidate screening with strong-convexity bounds (requires a ridge)."""
    threshold = loss_best - hp.objective_tol
    lam2 = probe.lam2
    if logeng._quad_cut_one_val(probe.f0, s0, lam2) >= threshold:
        return _PRUNED
    if s0 == 0.0:
        return _REJECTED
    L = probe.lipschitz
    t_step = -s0 / L
    a, b = t_step, 2.0 * t_step
    sb = probe.slope_at(b)
    if s0 * sb < 0.0:
        c = 0.5 * (a + b)
        fc, sc = probe.eval_at(c)
        if logeng._quad_cut_one_val(fc, sc, lam2) >= threshold:
            return _PRUNED
        if s0 * sc < 0.0:
            b, fb, sb = c, fc, sc
            fa, sa = probe.eval_at(a)
        else:
            a, fa, sa = c, fc, sc
            fb = probe.value_at(b)
        bound = logeng._quad_cut_two_val(fa, sa, a, fb, sb, b, lam2)
        if bound >= threshold:
            return _PRUNED
        return _line_search_accept(probe, hp, threshold)
    a, b = 2.0 * t_step, 3.0 * t_step
    fa, sa = probe.value_at(a), sb  # slope at 2*t_step is already known
    if logeng._quad_cut_one_val(fa, sa, lam2) >= threshold:
        return _PRUNED
    sb = probe.slope_at(b)
    if s0 * sb < 0.0:
        fb = probe.value_at(b)
        bound = logeng._quad_cut_two_val(fa, sa, a, fb, sb, b, lam2)
        if bound >= threshold:
            return _PRUNED
        return _line_search_accept(probe, hp, threshold)
    fb = probe.value_at(b)
    if logeng._quad_cut_one_val(fb, sb, lam2) >= threshold:
        return _PRUNED
    return _line_search_accept(probe, hp, threshold)


def try_add_lincut(state_without_j: ModelState, data: DesignMatrix, hp: HyperParams,
                   j2: int, loss_best: float) -> TryAddResult:
    """Evaluate adding feature ``j2`` to a state it is absent from, screening
    with tangent-line bounds.  Accepts when the post-line-search loss beats
    ``loss_best`` by more than the objective tolerance."""
    probe = logeng.coordinate_probe(state_without_j, data, j2, hp.lambda2)
    return _try_add_lin(probe, probe.slope_at(0.0), loss_best, hp)


def try_add_quad(state_without_j: ModelState, data: DesignMatrix, hp: HyperParams,
                 j2: int, loss_best: float) -> TryAddResult:
    """Evaluate adding feature ``j2``, screening with strong-convexity bounds."""
    if hp.lambda2 <= 0.0:
        raise ConfigError("quadratic cuts require lambda2 > 0")
    probe = logeng.coordinate_probe(state_without_j, data, j2, hp.lambda2)
    return _try_add_quad(probe, probe.slope_at(0.0), loss_best, hp)


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
    grads = -(data.signed.T @ q)
    forbidden = set(state.support)
    candidates = _candidate_order(grads, forbidden, hp.candidate_limit)
    lip = logeng.lipschitz_all(data, lam2)
    base_sq = float(trial.w @ trial.w)
    use_quad = cut == "quad"
    for j2 in candidates:
        if lip[j2] <= 0.0:
            continue
        probe = logeng.CoordinateProbe(
            trial.margins,
            data.signed[:, j2],
            lam2=lam2,
            base_sq=base_sq,
            lipschitz=float(lip[j2]),
            f0=dropped_loss,
            j=j2,
        )
        s0 = float(grads[j2])  # ridge part is zero off-support
        if use_quad:
            res = _try_add_quad(probe, s0, loss_best, hp)
        else:
            res = _try_add_lin(probe, s0, loss_best, hp)
        if res.cut_pruned and stats is not None:
            stats.cut_prunes += 1
        if res.accepted:
            trial.set_coefficient(data, j2, res.coefficient)
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
