"""Shared data model: datasets, coefficient states, hyperparameters, losses."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class ConfigError(ValueError):
    """Inconsistent hyperparameters or option combinations."""


@dataclass
class DesignMatrix:
    """Feature matrix with labels in {-1, +1}.

    Instances are immutable after construction (the backing arrays are
    locked) and can be shared read-only across concurrent fits.  ``binary``
    is set when every feature entry is -1 or +1, which the exponential-loss
    engine requires.
    """

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    binary: bool

    def __post_init__(self):
        if self.x.ndim != 2:
            raise DataError("feature matrix must be two-dimensional")
        if not np.all(np.isfinite(self.x)):
            raise DataError("feature matrix has non-finite values (nan or inf)")
        n, p = self.x.shape
        if self.y.shape != (n,):
            raise DataError(f"label vector has shape {self.y.shape}, expected ({n},)")
        if not np.all(np.abs(self.y) == 1.0):
            raise DataError("labels must be -1 or +1")
        if len(self.feature_names) != p:
            raise DataError("feature_names length does not match feature count")
        if len(set(self.feature_names)) != p:
            raise DataError("feature names must be distinct")
        if self.binary and not bool(np.all(np.abs(self.x) == 1.0)):
            raise DataError("binary flag set but matrix has entries outside {-1, +1}")
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @classmethod
    def from_arrays(cls, x, y, feature_names=None) -> "DesignMatrix":
        """Build a dataset, remapping {0, 1} labels to {-1, +1}."""
        x = np.array(x, dtype=np.float64, order="F")
        y = np.array(y, dtype=np.float64).ravel()
        vals = set(np.unique(y).tolist())
        if vals <= {0.0, 1.0}:
            y = 2.0 * y - 1.0
        if feature_names is None:
            feature_names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
        else:
            feature_names = tuple(str(s) for s in feature_names)
        binary = bool(np.all(np.abs(x) == 1.0))
        return cls(x=x, y=y, feature_names=feature_names, binary=binary)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.x[:, j]

    @cached_property
    def signed(self) -> np.ndarray:
        """Per-observation signed design: row i is y_i * x_i."""
        z = np.asfortranarray(self.y[:, None] * self.x)
        z.setflags(write=False)
        return z

    @cached_property
    def column_sq_sums(self) -> np.ndarray:
        s = np.einsum("ij,ij->j", self.x, self.x)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class HyperParams:
    """Solver configuration.

    ``candidate_limit`` bounds how many out-of-support features a swap
    evaluation may consider (None means all of them).
    """

    lambda0: float = 1.0
    lambda2: float = 0.0
    loss: str = "logistic"
    max_inner_iter: int = 10
    objective_tol: float = 1e-8
    candidate_limit: int | None = None

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.lambda0 < 0 or self.lambda2 < 0:
            raise ConfigError("penalty strengths must be nonnegative")
        if self.loss == "exponential" and self.lambda2 != 0:
            raise ConfigError("the exponential loss does not take a ridge penalty")
        if self.max_inner_iter < 1:
            raise ConfigError("max_inner_iter must be positive")
        if self.objective_tol <= 0:
            raise ConfigError("objective_tol must be positive")
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise ConfigError("candidate_limit must be positive or None")


class ModelState:
    """Dense coefficient vector plus support set, intercept, and margin cache.

    ``margins[i]`` is y_i * (w . x_i + intercept) and is maintained
    incrementally; it is the single per-observation source of truth under
    the logistic loss.  A state belongs to one solver run and is never
    shared mutably.
    """

    __slots__ = ("w", "support", "intercept", "margins", "_updates")

    def __init__(self, w, support, intercept, margins, _updates=0):
        self.w = w
        self.support = support
        self.intercept = intercept
        self.margins = margins
        self._updates = _updates

    @classmethod
    def zeros(cls, data: DesignMatrix) -> "ModelState":
        return cls(
            w=np.zeros(data.p),
            support=set(),
            intercept=0.0,
            margins=np.zeros(data.n),
        )

    def copy(self) -> "ModelState":
        return ModelState(
            w=self.w.copy(),
            support=set(self.support),
            intercept=self.intercept,
            margins=self.margins.copy(),
            _updates=self._updates,
        )

    def set_coefficient(self, data: DesignMatrix, j: int, value: float) -> None:
        value = float(value)
        delta = value - self.w[j]
        if delta == 0.0:
            return
        self.margins += delta * data.signed[:, j]
        self.w[j] = value
        if value == 0.0:
            self.support.discard(j)
        else:
            self.support.add(j)
        self._updates += 1
        if self._updates % MARGIN_REFRESH_EVERY == 0:
            self.refresh(data)

    def set_intercept(self, data: DesignMatrix, value: float) -> None:
        value = float(value)
        if value == self.intercept:
            return
        self.margins += (value - self.intercept) * data.y
        self.intercept = value

    def refresh(self, data: DesignMatrix) -> None:
        """Rebuild the margin cache from scratch (sparse in |support|)."""
        support = sorted(self.support)
        if support:
            f = data.x[:, support] @ self.w[support] + self.intercept
        else:
            f = np.full(data.n, self.intercept)
        self.margins = data.y * f

    def scores(self, data: DesignMatrix) -> np.ndarray:
        """Raw decision scores f_i = w . x_i + intercept."""
        return data.y * self.margins


def sweep_visits(coords, w: np.ndarray, support_size: int, screen):
    """The coordinates of ``coords`` that a sweep must update one at a time.

    A sweep visits ``coords`` in order; a zero coefficient that stays zero
    changes nothing, so visiting only the coordinates yielded here, in the
    order yielded, makes the same decisions.  Each run of at least
    ``SCREEN_MIN_RUN`` positions whose coefficients are zero when the sweep
    starts is screened: ``screen(cols)`` gets columns of the run (a slice
    when ``coords`` is a contiguous range, else an index array) and returns
    a mask, True where a coordinate may leave zero under the current state.
    The first flagged coordinate, or the first one no longer zero, is
    yielded, and screening resumes right after it once the caller has
    updated it.  All coordinates outside such runs are yielded.

    ``coords`` itself is returned when it has no such run, and without a
    run search when it has fewer than ``SCREEN_MIN_RUN`` coordinates
    beyond ``support_size``, as in a sweep over the support alone.
    """
    m = len(coords)
    if m - support_size < SCREEN_MIN_RUN:
        return coords
    if isinstance(coords, range) and coords.step == 1:
        idx = None
        nonzero = np.flatnonzero(w[coords.start:coords.stop]).tolist()
    else:
        idx = np.asarray(coords, dtype=np.intp)
        nonzero = np.flatnonzero(w[idx]).tolist()
    bounds = [-1, *nonzero, m]
    runs = [(a + 1, b) for a, b in zip(bounds, bounds[1:]) if b - a > SCREEN_MIN_RUN]
    if not runs:
        return coords
    return _screened_visits(coords, idx, runs, w, screen)


def _screened_visits(coords, idx, runs, w, screen):
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
            cols = slice(coords.start + a, coords.start + stop) if idx is None else idx[a:stop]
            # A coordinate listed twice in ``coords`` may have left zero
            # since the sweep started.
            flagged = screen(cols) | (w[cols] != 0.0)
            k = int(flagged.argmax())
            if flagged[k]:
                yield coords[a + k]
                a += k + 1
                quiet, span = 0, 2 * SCREEN_MIN_RUN
            else:
                # Screens after an update start short and double while they
                # find nothing, so a run is not screened again in full
                # after every coordinate that enters it.
                a, span = stop, 2 * span
        pos = b
    yield from coords[pos:]


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


def smooth_exponential_loss(state, data: DesignMatrix) -> float:
    """Sum of exp(-margin), taken from the weight cache when one exists."""
    cached = getattr(state, "H", None)
    if cached is not None:
        return float(cached)
    return float(np.exp(-state.margins).sum())


def smooth_loss(state, data: DesignMatrix, hp: HyperParams) -> float:
    if hp.loss == "exponential":
        return smooth_exponential_loss(state, data)
    return smooth_logistic_loss(state, data, hp.lambda2)


def logistic_objective(state, data: DesignMatrix, hp: HyperParams) -> float:
    """Penalized objective: logistic loss + ridge + lambda0 * |support|."""
    if hp.loss != "logistic":
        raise ConfigError("logistic_objective called with a non-logistic configuration")
    return smooth_logistic_loss(state, data, hp.lambda2) + hp.lambda0 * len(state.support)

def exponential_objective(state, data: DesignMatrix, hp: HyperParams) -> float:
    """Penalized objective: exponential loss + lambda0 * |support|."""
    if hp.loss != "exponential":
        raise ConfigError("exponential_objective called with a non-exponential configuration")
    if not data.binary:
        raise DataError("the exponential loss requires a -1/+1 feature matrix")
    return smooth_exponential_loss(state, data) + hp.lambda0 * len(state.support)


def objective(state, data: DesignMatrix, hp: HyperParams) -> float:
    if hp.loss == "exponential":
        return exponential_objective(state, data, hp)
    return logistic_objective(state, data, hp)


def probability_from_scores(scores, loss: str):
    """Class-1 probability for raw scores: sigmoid(f), or sigmoid(2f) under
    the exponential loss."""
    if loss == "exponential":
        return expit(2.0 * np.asarray(scores, dtype=np.float64))
    if loss == "logistic":
        return expit(np.asarray(scores, dtype=np.float64))
    raise ConfigError(f"unknown loss {loss!r}")


def predict_probability(state, x, loss: str) -> float:
    """Probability that y = +1 for a single observation vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape != state.w.shape:
        raise DataError(f"observation has {x.size} features, model has {state.w.size}")
    f = float(state.w @ x) + state.intercept
    return float(probability_from_scores(f, loss))
