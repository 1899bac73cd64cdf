"""Shared data model: datasets, the coefficient state, hyperparameters, losses."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from importlib import import_module

import numpy as np
from scipy.special import expit

LOSSES = ("logistic", "exponential")

# Margin caches are rebuilt from scratch after this many incremental updates
# to bound floating-point drift.
MARGIN_REFRESH_EVERY = 256

# Coordinate sweeps screen a run of at least this many zero coordinates with
# one matrix-vector product; shorter runs stay in the per-coordinate loop.
# A screen costs 10-15 us of numpy overhead, a loop visit 1.5-4 us.  Time
# saved per run of r zeros by screening it, from in-process A/B runs of
# ``cd_sweep`` (n = 300 and 1000, one BLAS thread): logistic r=4 -3.5 us,
# r=6 +1.7, r=8 +7, r=16 +21 to +31, r=32 +40 to +76; exponential r=4
# -4.5 us, r=6 -1.7, r=8 +3.5, r=16 +21, r=32 +55.
SCREEN_MIN_RUN = 8

# Unit roundoff scale for rounding allowances: the Armijo test of
# ``newton_solve``, ``DesignMatrix.prefix_sum_allowance`` and the cuts of
# ``logistic.screen_block``.
EPS = float(np.finfo(np.float64).eps)

# The most Newton iterations of one support solve (``newton_solve``).  The
# name, which perfbench's tracer reads, says sweeps, but no support solve
# sweeps any more: it caps only Newton iterations.
REOPT_MAX_SWEEPS = 100

# A support solve is certified once every projected-gradient entry is at
# most this fraction of the smooth loss f.  The test is relative: on
# separable data the loss tends to zero along with the gradient, and no
# point is optimal.  On -1/+1 columns under the exponential loss every
# Hessian diagonal entry is f, so an entry g is one coordinate step
# g / f <= 1e-9 from its optimum.
NEWTON_GRAD_TOL = 1e-9

# Armijo fraction of the predicted decrease that a step of ``newton_solve``
# must achieve, and the halvings after which a step that achieves none ends
# the solve.
ARMIJO = 1e-4
MAX_HALVINGS = 40

# Objective tolerance: a swap must lower the smooth loss by more than this.
OBJECTIVE_TOL = 1e-8


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class ConfigError(ValueError):
    """Inconsistent hyperparameters or option combinations."""


@dataclass(frozen=True, eq=False)
class ThresholdIndex:
    """Where the ones of each threshold dummy lie, for the prefix-sum
    products of ``DesignMatrix.signed_products``.

    Row k of ``order`` is the stable sort order of the k-th raw feature
    that has thresholds: ascending for ``<=`` dummies, descending for
    ``>=``, so the rows where a dummy is 1 come first.  Dummy column j
    belongs to row ``feature[j]`` and is 1 on the first ``prefix[j]`` rows
    of that order (at least one, as thresholds are realized values) and 0,
    or -1 when ``plus_minus``, elsewhere.  Columns come grouped by raw
    feature, so ``feature`` never decreases.
    """

    order: np.ndarray
    feature: np.ndarray
    prefix: np.ndarray
    plus_minus: bool


@dataclass
class DesignMatrix:
    """A dataset with labels y in {-1, +1}, held as one n x p array, the
    signed design ``signed``: row i is y_i * x_i, so column j is the z_j =
    y * x_j that the engines read.  ``x`` and ``column`` read the features
    back as y * z, exactly.  Instances are immutable (the arrays are
    locked) and can be shared read-only across concurrent fits.
    ``threshold_index`` is set on the dummies that ``binarize`` builds.
    """

    signed: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    threshold_index: ThresholdIndex | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.signed.ndim != 2:
            raise DataError("feature matrix must be two-dimensional")
        n, p = self.signed.shape
        if self.y.shape != (n,):
            raise DataError(f"label vector has shape {self.y.shape}, expected ({n},)")
        if not np.all(np.abs(self.y) == 1.0):
            raise DataError("labels must be -1 or +1")
        if not np.all(np.isfinite(self.signed)):
            raise DataError("feature matrix has non-finite values (nan or inf)")
        if len(self.feature_names) != p:
            raise DataError("feature_names length does not match feature count")
        if len(set(self.feature_names)) != p:
            raise DataError("feature names must be distinct")
        idx = self.threshold_index
        if idx is not None:
            if (idx.order.ndim != 2 or idx.order.shape[1] != n
                    or idx.feature.shape != (p,) or idx.prefix.shape != (p,)):
                raise DataError("threshold index does not match the feature matrix")
            if p and not (0 <= idx.feature.min() and idx.feature.max() < idx.order.shape[0]
                          and 1 <= idx.prefix.min() and idx.prefix.max() <= n):
                raise DataError("threshold index entries out of range")
            if np.any(np.diff(idx.feature) < 0):
                raise DataError("threshold index columns are not grouped by feature")
            for a in (idx.order, idx.feature, idx.prefix):
                a.setflags(write=False)
        self.signed.setflags(write=False)
        self.y.setflags(write=False)
        self._x = lambda: None  # a dead weak reference: ``x`` has built no array yet

    @classmethod
    def from_arrays(cls, x, y, feature_names=None) -> "DesignMatrix":
        """Build a dataset from features ``x`` and labels ``y``, remapping
        {0, 1} labels to {-1, +1}; a copy of ``x`` is signed in place."""
        x = np.array(x, dtype=np.float64, order="F")
        y = np.array(y, dtype=np.float64).ravel()
        if set(np.unique(y).tolist()) <= {0.0, 1.0}:
            y = 2.0 * y - 1.0
        if x.ndim == 2 and y.shape == (x.shape[0],):  # else __post_init__ says why not
            x *= y[:, None]
        if feature_names is None:
            feature_names = [f"x{j + 1}" for j in range(x.shape[1])]
        return cls(signed=x, y=y, feature_names=tuple(str(s) for s in feature_names))

    @property
    def n(self) -> int:
        return self.signed.shape[0]

    @property
    def p(self) -> int:
        return self.signed.shape[1]

    @property
    def x(self) -> np.ndarray:
        """The features y * z, locked and Fortran-ordered.  An earlier read's
        array is returned while it is alive, so reads of ``x[:, j]`` share it."""
        x = self._x()
        if x is None:
            x = np.asfortranarray(self.y[:, None] * self.signed)
            x.setflags(write=False)
            self._x = weakref.ref(x)
        return x

    def column(self, j: int) -> np.ndarray:
        return self.y * self.signed[:, j]

    @cached_property
    def binary(self) -> bool:
        """Whether every feature entry is -1 or +1, as the exponential-loss
        engine requires.  Threshold dummies answer from their index: -1/+1
        dummies are, and a 0/1 dummy is only when it is 1 on every row."""
        idx = self.threshold_index
        if idx is not None:
            return idx.plus_minus or bool(np.all(idx.prefix == self.n))
        return bool(np.all(np.abs(self.signed) == 1.0))

    def signed_products(self, v: np.ndarray, cols: slice | None = None) -> np.ndarray:
        """``signed.T @ v``: z_j . v for every column j, or for the columns
        of the slice ``cols``.

        Without a threshold index this is that product.  With one, each
        raw feature's u = y * v is summed cumulatively along its sort order,
        and dummy j reads the sum s_j of its first ``prefix[j]`` entries:
        z_j . v is s_j for 0/1 dummies and 2 s_j - sum(u) for -1/+1 ones.
        Only the raw features that the columns belong to are summed, so
        that is O(n d) for d such features instead of O(n p).  A dummy
        that is 1 on every row reads the one shared sum(u), so such columns
        tie exactly.  On dummies every entry of either way lies within
        3 n EPS sum|v| of the exact product, so the two can differ by that
        much (``prefix_sum_allowance``).
        """
        idx = self.threshold_index
        if idx is None:
            return self.signed.T @ v if cols is None else self.signed[:, cols].T @ v
        feature, prefix = idx.feature, idx.prefix
        if cols is not None:
            feature, prefix = feature[cols], prefix[cols]
        if not feature.size:
            return np.empty(0)
        u = self.y * v
        total = u.sum()
        # the columns' raw features are the index rows feature[0] to feature[-1]
        first = int(feature[0])
        sums = np.cumsum(u[idx.order[first:int(feature[-1]) + 1]], axis=1)
        sums[:, -1] = total
        s = sums[feature - first, prefix - 1]
        return 2.0 * s - total if idx.plus_minus else s

    def prefix_sum_allowance(self, v: np.ndarray) -> float:
        """What a test that reads ``signed_products(v)`` must allow on top
        of one that reads the matrix product: 0.0 without a threshold
        index, where the two are the same product, and (4 n + 16) EPS
        sum|v| on dummies with one.  That bounds how far each prefix-sum
        entry lies from any other summation of the same column's product,
        a per-column ``np.dot`` or the matrix product: 3 n EPS sum|v| for
        the prefix sum, n EPS sum|v| for the other one (|z_ij| <= 1), and
        16 EPS sum|v| for the rounding of the sum of |v| and of the test
        that adds the allowance."""
        if self.threshold_index is None:
            return 0.0
        return EPS * (4 * self.n + 16) * float(np.abs(v).sum())

    @cached_property
    def column_sq_sums(self) -> np.ndarray:
        s = np.einsum("ij,ij->j", self.signed, self.signed)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class HyperParams:
    """Solver configuration: the sparsity and ridge penalty strengths, the
    loss, and ``candidate_limit``, which bounds how many out-of-support
    features a swap evaluation may consider (None means all of them).
    The line-search length and the objective tolerance are module
    constants (``logistic.LINE_SEARCH_STEPS``, ``OBJECTIVE_TOL``).
    """

    lambda0: float = 1.0
    lambda2: float = 0.0
    loss: str = "logistic"
    candidate_limit: int | None = None

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not (0 <= self.lambda0 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ConfigError("penalty strengths must be finite and nonnegative")
        if self.lambda2 != 0 and not engine(self.loss).TAKES_RIDGE:
            raise ConfigError(f"the {self.loss} loss does not take a ridge penalty")
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise ConfigError("candidate_limit must be positive or None")


class ModelState:
    """Dense coefficient vector, support set and intercept, with the margin
    cache that every loss engine reads.  A state belongs to one solver run
    and is never shared mutably.

    ``margins[i]`` is y_i * (w . x_i + intercept), maintained incrementally
    and rebuilt from scratch (``refresh``, sparse in |support|) every
    ``MARGIN_REFRESH_EVERY`` coefficient updates, which ``_updates``
    counts.  Nothing else is kept in step with the margins: the engines
    read their weights from them where they use them.
    """

    __slots__ = ("w", "support", "intercept", "margins", "_updates")

    def __init__(self, data: DesignMatrix):
        self.w = np.zeros(data.p)
        self.support = set()
        self.intercept = 0.0
        self.margins = np.zeros(data.n)
        self._updates = 0

    @classmethod
    def zeros(cls, data: DesignMatrix):
        return cls(data)

    def copy(self):
        """An independent copy, of the same class."""
        new = object.__new__(type(self))
        new.w = self.w.copy()
        new.support = set(self.support)
        new.intercept = self.intercept
        new.margins = self.margins.copy()
        new._updates = self._updates
        return new

    def _put(self, j: int, value: float) -> None:
        """Store coefficient j and keep the support in step with ``w``."""
        self.w[j] = value
        if value == 0.0:
            self.support.discard(j)
        else:
            self.support.add(j)

    def set_coefficient(self, data: DesignMatrix, j: int, value: float) -> None:
        """Set coefficient j and update the margins, rebuilding them
        (``refresh``) on every ``MARGIN_REFRESH_EVERY``-th update."""
        value = float(value)
        delta = value - float(self.w[j])
        if delta == 0.0:
            return
        self.margins += delta * data.signed[:, j]
        self._put(j, value)
        self._updates += 1
        if self._updates % MARGIN_REFRESH_EVERY == 0:
            self.refresh(data)

    def set_intercept(self, data: DesignMatrix, value: float) -> None:
        value = float(value)
        if value == self.intercept:
            return
        delta = value - self.intercept
        self.margins += delta * data.y
        self.intercept = value

    def refresh(self, data: DesignMatrix) -> None:
        """Rebuild the margin cache from scratch, sparse in |support|, as
        Z_S w_S + intercept * y from the support columns of the signed design."""
        support = sorted(self.support)
        self.margins = data.signed[:, support] @ self.w[support] + self.intercept * data.y

    def scores(self, data: DesignMatrix) -> np.ndarray:
        """Raw decision scores f_i = w . x_i + intercept, read from the
        margin cache."""
        return data.y * self.margins


def sweep_visits(coords: range, w: np.ndarray, screen):
    """The coordinates of ``coords``, a contiguous range, that a sweep must
    update one at a time.

    A sweep visits ``coords`` in order; a zero coefficient that stays zero
    changes nothing, so visiting only the coordinates yielded here, in the
    order yielded, makes the same decisions.  With ``screen`` set, each run
    of at least ``SCREEN_MIN_RUN`` positions whose coefficients are zero
    when the sweep starts goes to ``screen(cols)``, with ``cols`` a slice of
    the run.  It returns a mask, True where a coordinate may leave zero
    under the current state (an engine's screen takes one
    ``DesignMatrix.signed_products`` product per call).  The first flagged
    coordinate is yielded, and screening resumes right after it once the
    caller has updated it.  All coordinates outside such runs are yielded.

    ``coords`` itself is returned when ``screen`` is None or when it has no
    such run.
    """
    if screen is None:
        return coords
    nonzero = np.flatnonzero(w[coords.start:coords.stop]).tolist()
    bounds = [-1, *nonzero, len(coords)]
    runs = [(a + 1, b) for a, b in zip(bounds, bounds[1:]) if b - a > SCREEN_MIN_RUN]
    if not runs:
        return coords
    return _screened_visits(coords, runs, w, screen)


def _screened_visits(coords, runs, w, screen):
    pos = 0
    for a, b in runs:
        yield from coords[pos:a]
        quiet, span = SCREEN_MIN_RUN, b - a
        while a < b:
            if quiet < SCREEN_MIN_RUN:
                # Right after an update, visit one by one until
                # SCREEN_MIN_RUN coordinates in a row stay zero: where many
                # enter, a screen would find the next one too soon to pay.
                j = coords[a]
                yield j
                a += 1
                quiet = quiet + 1 if w[j] == 0.0 else 0
                continue
            stop = min(a + span, b)
            flagged = screen(slice(coords.start + a, coords.start + stop))
            k = int(flagged.argmax())
            if flagged[k]:
                yield coords[a + k]
                a += k + 1
                quiet, span = 0, 2 * SCREEN_MIN_RUN
                continue
            # Screens after an update start short and double while they
            # find nothing, so a run is not screened again in full after
            # every coordinate that enters it.
            a, span = stop, 2 * span
        pos = b
    yield from coords[pos:]


def newton_solve(state, data: DesignMatrix, terms, bound: float, lam2: float) -> bool:
    """Minimize a smooth loss over the support coefficients of ``state``
    (each kept in [-bound, bound]) and the free intercept by damped
    projected Newton steps, from the current state.  The result is written
    back with the state's cache rebuilt (``refresh``); returns whether it is
    certified.

    With beta the support coefficients then the intercept and a_i row i of
    A = [Z_S, y], the loss is f(beta) = sum_i loss(a_i . beta) +
    lam2 |beta_S|^2.  ``terms(m)`` maps the margins m = A beta to the loss
    sum, the gradient weights u (the gradient is -A^T u) and the curvature
    weights v (the Hessian is A^T diag(v) A), with the ridge added to both.
    A coefficient at its bound whose gradient points out of the box is held
    there (``_newton_direction``).  Each Newton step is projected onto the
    box and halved until f falls by an ``ARMIJO`` fraction of the decrease
    the gradient predicts, rounding allowed for.  The solve is certified
    when every projected-gradient entry (the gradient with held coordinates
    zeroed) is at most ``NEWTON_GRAD_TOL`` * f.  It also stops,
    uncertified, after ``REOPT_MAX_SWEEPS`` iterations or when
    ``MAX_HALVINGS`` halvings do not lower f.
    """
    support = sorted(state.support)
    n, k = data.n, len(support)
    a = np.empty((n, k + 1))
    a[:, :k] = data.signed[:, support]
    a[:, k] = data.y
    lo = np.append(np.full(k, -bound), -np.inf)
    hi = np.append(np.full(k, bound), np.inf)
    # the margins' rounding grows with (k + 1) * max|a| * |beta|_1
    scale = (k + 1) * float(np.abs(a).max(initial=0.0))

    def value(b):
        f, u, v = terms(a @ b)
        if lam2:
            f += lam2 * float(b[:k] @ b[:k])
        return f, u, v

    beta = np.clip(np.append(state.w[support], state.intercept), lo, hi)
    f, u, v = value(beta)
    certified = False
    for _ in range(REOPT_MAX_SWEEPS):
        g = -(a.T @ u)
        if lam2:
            g[:k] += 2.0 * lam2 * beta[:k]
        held = ((beta <= lo) & (g > 0.0)) | ((beta >= hi) & (g < 0.0))
        if np.abs(np.where(held, 0.0, g)).max() <= NEWTON_GRAD_TOL * f:
            certified = True
            break
        hess = a.T @ (a * v[:, None])
        # a ridge of 1e-12 * f keeps the system definite when support
        # columns are collinear
        diag = np.diag_indices_from(hess)
        hess[diag] += 1e-12 * f
        if lam2:
            hess[diag[0][:k], diag[1][:k]] += 2.0 * lam2
        d = _newton_direction(hess, g, beta, lo, hi, held)
        # rounding of f and of a trial's f: the sum (n), the loss terms and
        # the margins (each loss term moves by at most its own size per unit
        # of margin)
        slack = 2.0 * EPS * (n + 2 + scale * float(np.abs(beta).sum())) * f
        step = 1.0
        for _ in range(MAX_HALVINGS):
            trial = np.clip(beta - step * d, lo, hi)
            f_trial, u_trial, v_trial = value(trial)
            if f_trial <= f + ARMIJO * float(g @ (trial - beta)) + slack:
                break
            step *= 0.5
        else:
            break
        beta, f, u, v = trial, f_trial, u_trial, v_trial
    for j, coef in zip(support, beta[:k].tolist()):
        state._put(j, coef)
    state.intercept = float(beta[k])
    state.refresh(data)
    return certified


def _newton_direction(hess, g, beta, lo, hi, held) -> np.ndarray:
    """The Newton direction of ``newton_solve`` (the step is minus it): zero
    on the coordinates ``held`` and on every coordinate at a bound that the
    Newton step on the others would push out of the box, which joins
    ``held``; the solution of the Newton system on the rest."""
    d = np.zeros(beta.size)
    while True:
        free = ~held
        d[:] = 0.0
        d[free] = np.linalg.solve(hess[np.ix_(free, free)], g[free])
        out = free & (((beta <= lo) & (d > 0.0)) | ((beta >= hi) & (d < 0.0)))
        if not out.any():
            return d
        held = held | out


def log1p_exp_neg_sum(margins) -> float:
    """sum_i log(1 + exp(-m_i)), overflow-safe via the |m| factorization."""
    e = np.exp(-np.abs(margins))
    return float((np.maximum(-margins, 0.0) + np.log1p(e)).sum())


def smooth_logistic_loss(state, data: DesignMatrix, lam2: float = 0.0) -> float:
    """Logistic loss plus the ridge term (intercept excluded from the ridge)."""
    val = log1p_exp_neg_sum(state.margins)
    if lam2:
        val += lam2 * float(state.w @ state.w)
    return val


def smooth_loss(state, data: DesignMatrix, hp: HyperParams) -> float:
    return engine(hp.loss).smooth_loss(state, data, hp)


def objective(state, data: DesignMatrix, hp: HyperParams) -> float:
    """Penalized objective: smooth loss (ridge included) + lambda0 * |support|."""
    return smooth_loss(state, data, hp) + hp.lambda0 * len(state.support)


def engine(loss: str):
    """The engine module of ``loss``: ``sparseclass.logistic`` or
    ``sparseclass.exponential``.  This is the one place where a loss name
    chooses code.

    Every engine defines five constants: ``PROBABILITY_SCALE``, the s of
    the probability link sigmoid(s * f); ``TAKES_RIDGE``, whether the loss
    takes a ridge penalty; ``BINARIZE_ENCODING``, the dummy encoding its
    fits on binarized data use (``"-1/+1"`` where the engine needs -1/+1
    features); ``SUPPORT_SETTLED_SWEEPS``, the sweeps in a row that must
    leave the support unchanged before ``path.warm_start`` solves it
    exactly; and ``COEF_BOUND``, the box [-COEF_BOUND, COEF_BOUND] of the
    support coefficients in a support solve (``math.inf`` for no box).  It
    also defines six functions: ``new_state(data)``, ``smooth_loss(state,
    data, hp)``, ``sweep(state, data, hp)`` (one coordinate pass over every
    feature at ``hp.lambda0``, returning the largest move),
    ``refit_intercept(state, data, stats)`` (returning the shift, counting a
    stop at an iteration cap in ``stats.cap_hits``), ``find_swap(trial,
    data, hp, forbidden, f0, threshold, cut, stats)`` (the first acceptable
    replacement feature and its coefficient, or None) and
    ``solve_support(state, data, hp)``, the one support solve: exact
    minimization of the smooth loss over the support coefficients, kept in
    the box, and the intercept by ``newton_solve``, in place, returning
    whether it is certified.  The warm start and the swap search
    (``swap.reoptimize``) both call it.  Both engines' states are
    ``ModelState``s; each engine reads its weights from the margins where
    it uses them.
    """
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}")
    return import_module(f".{loss}", __package__)


def _candidate_order(grads: np.ndarray, forbidden: set[int], limit: int | None) -> list[int]:
    """Features outside ``forbidden`` by descending gradient magnitude (ties by
    index), the first ``limit`` of them when a limit is set."""
    order = np.argsort(-np.abs(grads), kind="stable")
    allowed = np.ones(grads.shape[0], dtype=bool)
    allowed[list(forbidden)] = False
    return order[allowed[order]][:limit].tolist()


def probability_from_scores(scores, loss: str):
    """Class-1 probability for raw scores: sigmoid(s * f) with the loss
    engine's ``PROBABILITY_SCALE`` s (1 logistic, 2 exponential)."""
    scale = engine(loss).PROBABILITY_SCALE
    return expit(scale * np.asarray(scores, dtype=np.float64))


def predict_probability(state, x, loss: str) -> float:
    """Probability that y = +1 for a single observation vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape != state.w.shape:
        raise DataError(f"observation has {x.size} features, model has {state.w.size}")
    f = float(state.w @ x) + state.intercept
    return float(probability_from_scores(f, loss))
