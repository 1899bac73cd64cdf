"""Delete-or-swap local search over the support.

The outer loop walks the support in failure-count order; each visit tries to
drop the feature outright, then to replace it with the most promising
out-of-support feature.  The loss engine (``core.engine``) finds the
replacement: the logistic engine screens candidates with lower bounds on
their line-search loss, in blocks (``logistic.screen_block``), and the
exponential engine resolves each one analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OBJECTIVE_TOL, ConfigError, DesignMatrix, HyperParams, engine

ORDERINGS = ("dynamic", "sequential")
CUTS = ("auto", "lin", "quad")

# Walks over the support in ``fit_swap_1opt``; each walk after the first
# follows an accepted change.  The most any fit makes is 20 on the benchmark
# workloads and 26 in the test suite, far below this bound.
SWAP_MAX_PASSES = 1000


@dataclass
class FitStats:
    """Work counters for one fit.  Every fit function holds one: a caller
    that passes none gets a throwaway one.

    The swap search counts as a sequential scan of each visit's candidates
    would, up to and including the accepted one: ``candidates`` evaluated
    (all-zero columns are skipped at any ridge, not counted) and, under
    the logistic loss, ``cut_prunes`` among them dismissed without a line
    search (by ``logistic.screen_block``'s cuts at zero, the one-point
    vertex and the self-concordant bound, under ``quad``, or by its reach
    bound or bracket-curvature cut) and ``line_searches`` run.
    ``cap_hits`` counts the warm starts and logistic intercept refits that
    ended at their sweep or iteration cap without meeting their stop test,
    the support solves of ``try_delete_or_swap`` that ended uncertified, at
    ``core.NEWTON_MAX_STEPS`` or when no halving lowered the loss, and swap
    searches that ended at ``SWAP_MAX_PASSES``.  ``swap_evals`` counts the
    visits of the swap search, ``sweeps`` the warm start's coordinate
    sweeps and ``solves`` its support solves, kept or undone
    (``path.warm_start``).
    """

    swap_evals: int = 0
    cut_prunes: int = 0
    candidates: int = 0
    line_searches: int = 0
    cap_hits: int = 0
    sweeps: int = 0
    solves: int = 0


@dataclass
class SwapOutcome:
    kind: str  # "no_change" | "deleted" | "swapped"
    removed: int | None
    added: int | None
    new_state: object


def check_ordering(ordering: str) -> None:
    if ordering not in ORDERINGS:
        raise ConfigError(f"ordering must be one of {ORDERINGS}")


def resolve_cut(cut: str, hp: HyperParams) -> str:
    """Pick the screening bound: quadratic needs a ridge, auto follows it."""
    if cut not in CUTS:
        raise ConfigError(f"cut must be one of {CUTS}")
    if cut == "quad" and hp.lambda2 <= 0.0:
        raise ConfigError("quadratic cuts require lambda2 > 0")
    if cut == "auto":
        return "quad" if hp.lambda2 > 0.0 else "lin"
    return cut


# --- delete-or-swap ----------------------------------------------------------

def try_delete_or_swap(state, data: DesignMatrix, hp: HyperParams, j: int,
                       cut: str = "auto", stats: FitStats | None = None) -> SwapOutcome:
    """Try to delete support feature ``j`` or swap it for an outside feature.

    Deletion is accepted when zeroing the coefficient does not increase the
    smooth loss.  Otherwise the loss engine's ``find_swap`` visits outside
    features in descending gradient magnitude and the first acceptable
    replacement wins.  An accepted change ends in one support solve, the
    engine's ``solve_support`` (a damped Newton solve, boxed under the
    exponential loss), over the new support and the intercept; a solve
    that ends uncertified, after ``core.NEWTON_MAX_STEPS`` Newton steps or
    when no halving lowers the loss, is counted in ``stats.cap_hits``, and
    this is the one place the swap search counts it.  With no acceptable
    change the original state is returned untouched.
    """
    if j not in state.support:
        raise ValueError(f"feature {j} is not in the support")
    eng = engine(hp.loss)
    cut = resolve_cut(cut, hp)
    stats = FitStats() if stats is None else stats
    loss_best = eng.smooth_loss(state, data, hp)
    trial = state.copy()
    trial.set_coefficient(data, j, 0.0)
    dropped_loss = eng.smooth_loss(trial, data, hp)
    if dropped_loss <= loss_best:
        kind, added = "deleted", None
    else:
        found = eng.find_swap(trial, data, hp, state.support, dropped_loss,
                              loss_best - OBJECTIVE_TOL, cut, stats)
        if found is None:
            return SwapOutcome("no_change", None, None, state)
        added, coefficient = found
        trial.set_coefficient(data, added, coefficient)
        kind = "swapped"
    if not eng.solve_support(trial, data, hp):
        stats.cap_hits += 1
    return SwapOutcome(kind, j, added, trial)


def fit_swap_1opt(initial, data: DesignMatrix, hp: HyperParams,
                  ordering: str = "dynamic", cut: str = "auto",
                  stats: FitStats | None = None):
    """Local search until no single delete-or-swap improves the objective.

    A walk visits the support features in turn with
    ``try_delete_or_swap``, each visit counted in ``stats.swap_evals``,
    until one accepts a change; a visit that changes nothing adds one to
    its feature's failure count.  ``dynamic`` ordering walks the support
    by ascending failure count (so features never tried lead), ties by
    ascending index; ``sequential`` walks it by ascending index.  After
    every accepted change the walk restarts on the new support, for at
    most ``SWAP_MAX_PASSES`` walks; a search that stops at that bound is
    counted in ``stats.cap_hits``.  The input state should already be
    coordinate-wise optimal (warm-started).
    """
    check_ordering(ordering)
    cut = resolve_cut(cut, hp)
    stats = FitStats() if stats is None else stats
    failures = np.zeros(data.p, dtype=np.int64)
    state = initial
    for _ in range(SWAP_MAX_PASSES):
        if not state.support:
            return state
        walk = (sorted(state.support, key=lambda j: (failures[j], j)) if ordering == "dynamic"
                else sorted(state.support))
        for j in walk:
            outcome = try_delete_or_swap(state, data, hp, j, cut=cut, stats=stats)
            stats.swap_evals += 1
            if outcome.kind != "no_change":
                state = outcome.new_state
                break
            failures[j] += 1
        else:
            return state
    stats.cap_hits += 1
    return state
