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

# REOPT_MAX_SWEEPS, the Newton iteration cap of every support solve, is also
# read from here by perfbench's tracer.
from .core import OBJECTIVE_TOL, REOPT_MAX_SWEEPS, ConfigError, DesignMatrix, HyperParams, engine

ORDERINGS = ("dynamic", "sequential")
CUTS = ("auto", "lin", "quad")

# Walks over the support in ``fit_swap_1opt``; each walk after the first
# follows an accepted change.  The most any fit makes is 20 on the benchmark
# workloads and 26 in the test suite, far below this bound.
SWAP_MAX_PASSES = 1000


@dataclass
class FitStats:
    """Work counters for one fit.

    The swap search counts as a sequential scan of each visit's candidates
    would, up to and including the accepted one: ``candidates`` evaluated
    (all-zero columns are skipped at any ridge, not counted) and, under
    the logistic loss, ``cut_prunes`` among them dismissed without a line
    search (by ``logistic.screen_block``'s cuts at zero, the one-point
    vertex and the self-concordant bound, under ``quad``, or by its reach
    bound or bracket-curvature cut) and ``line_searches`` run.
    ``cap_hits`` counts the warm starts and logistic intercept refits that
    ended at their sweep or iteration cap without meeting their stop test,
    the swap search's support solves (``reoptimize``) that ended
    uncertified, at the Newton iteration cap or when no halving lowered the
    loss, and swap searches that ended at ``SWAP_MAX_PASSES``.
    ``sweeps`` counts the warm start's coordinate sweeps and ``solves`` its
    support solves, kept or undone (``path.warm_start``).
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

    def __post_init__(self):
        if self.kind not in ("no_change", "deleted", "swapped"):
            raise ValueError(f"unknown outcome kind {self.kind!r}")


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


# --- support-restricted reoptimization -------------------------------------

def reoptimize(state, data: DesignMatrix, hp: HyperParams,
               stats: FitStats | None = None) -> None:
    """Minimize the smooth loss over the support coefficients and the
    intercept, in place, with the loss engine's ``solve_support`` (a damped
    Newton solve, boxed under the exponential loss).  A solve that ends
    uncertified, after ``REOPT_MAX_SWEEPS`` Newton iterations or when no
    halving lowers the loss, is counted in ``stats.cap_hits``; this is the
    one place that counts it."""
    if not engine(hp.loss).solve_support(state, data, hp) and stats is not None:
        stats.cap_hits += 1


# --- delete-or-swap ----------------------------------------------------------

def try_delete_or_swap(state, data: DesignMatrix, hp: HyperParams, j: int,
                       cut: str = "auto", stats: FitStats | None = None) -> SwapOutcome:
    """Try to delete support feature ``j`` or swap it for an outside feature.

    Deletion is accepted when zeroing the coefficient does not increase the
    smooth loss.  Otherwise the loss engine's ``find_swap`` visits outside
    features in descending gradient magnitude and the first acceptable
    replacement wins; the returned state is fully reoptimized on its new
    support.  With no acceptable change the original state is returned
    untouched.
    """
    if j not in state.support:
        raise ValueError(f"feature {j} is not in the support")
    eng = engine(hp.loss)
    cut = resolve_cut(cut, hp)
    loss_best = eng.smooth_loss(state, data, hp)
    trial = state.copy()
    trial.set_coefficient(data, j, 0.0)
    dropped_loss = eng.smooth_loss(trial, data, hp)
    if dropped_loss <= loss_best:
        reoptimize(trial, data, hp, stats)
        return SwapOutcome("deleted", j, None, trial)
    found = eng.find_swap(trial, data, hp, state.support, dropped_loss,
                          loss_best - OBJECTIVE_TOL, cut, stats)
    if found is None:
        return SwapOutcome("no_change", None, None, state)
    j2, coefficient = found
    trial.set_coefficient(data, j2, coefficient)
    reoptimize(trial, data, hp, stats)
    return SwapOutcome("swapped", j, j2, trial)


def fit_swap_1opt(initial, data: DesignMatrix, hp: HyperParams,
                  ordering: str = "dynamic", cut: str = "auto",
                  stats: FitStats | None = None):
    """Local search until no single delete-or-swap improves the objective.

    ``dynamic`` ordering walks the support by ascending failed-swap count;
    ``sequential`` walks it by ascending feature index.  After every
    accepted change the walk restarts on the new support, for at most
    ``SWAP_MAX_PASSES`` walks; a search that stops at that bound is counted
    in ``stats.cap_hits``.  The input state should already be
    coordinate-wise optimal (warm-started).
    """
    check_ordering(ordering)
    cut = resolve_cut(cut, hp)
    state = initial
    queue = FailureQueue(data.p)
    for _ in range(SWAP_MAX_PASSES):
        if not state.support:
            return state
        walk = queue.ordered(state.support) if ordering == "dynamic" else sorted(state.support)
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
    if stats is not None:
        stats.cap_hits += 1
    return state
