"""Threshold-indicator expansion of continuous features and scorecard export.

Each continuous feature is replaced by dummy columns 1[x <= theta] (or >=)
at its realized values, so a sparse linear fit on the expanded matrix is an
additive model with one step function per selected threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import DIRECTIONS, LOSSES, ConfigError, DataError, DesignMatrix, ThresholdIndex

ENCODINGS = ("0/1", "-1/+1")
MODEL_KINDS = ("scorecard", "linear")


def _feature_thresholds(col: np.ndarray, max_thresholds: int | None) -> np.ndarray:
    vals = np.unique(col)
    if vals.size <= 1:
        return np.empty(0)  # constant feature: nothing to split on
    if max_thresholds is not None and vals.size > max_thresholds:
        probs = np.linspace(0.0, 1.0, max_thresholds)
        vals = np.unique(np.quantile(col, probs, method="lower"))
    return vals


def binarize(
    data: DesignMatrix,
    direction: str = "<=",
    encoding: str = "0/1",
    max_thresholds: int | None = None,
) -> tuple[DesignMatrix, ThresholdIndex]:
    """Expand every feature into threshold dummies.

    Thresholds are the distinct realized values of each feature, capped to
    equally spaced realized quantiles when ``max_thresholds`` is given.
    Constant features contribute no columns.  The -1/+1 encoding is what the
    exponential-loss engine requires.  The result holds the dummies signed,
    y * x, and a ``ThresholdIndex``, which is returned beside it too: each
    dummy's raw feature and threshold, each feature's sort order and each
    dummy's count of ones, found with the comparison that fills the column.
    """
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}")
    if encoding not in ENCODINGS:
        raise ConfigError(f"encoding must be one of {ENCODINGS}")
    if data.n == 0:
        raise DataError("cannot binarize an empty dataset")
    if max_thresholds is not None and max_thresholds < 1:
        raise ConfigError("max_thresholds must be positive or None")

    thresholds = [_feature_thresholds(data.column(j), max_thresholds) for j in range(data.p)]
    x = np.empty((data.n, sum(t.size for t in thresholds)), order="F")
    compare = np.less_equal if direction == "<=" else np.greater_equal
    # x >= t exactly when -x <= -t, so ">=" dummies sort and count by -x
    sign = 1.0 if direction == "<=" else -1.0
    columns: list[str] = []
    names: list[str] = []
    orders: list[np.ndarray] = []
    feature = np.empty(x.shape[1], dtype=np.intp)
    prefix = np.empty(x.shape[1], dtype=np.intp)
    theta = np.empty(x.shape[1])
    for j, (name, ths) in enumerate(zip(data.feature_names, thresholds)):
        if not ths.size:
            continue
        start = len(columns)
        col = data.column(j)
        compare(col[:, None], ths, out=x[:, start:start + ths.size])
        columns += [f"{name}{direction}{t!r}" for t in ths.tolist()]
        keys = sign * col
        order = np.argsort(keys, kind="stable")
        feature[start:len(columns)] = len(orders)
        prefix[start:len(columns)] = np.searchsorted(keys[order], sign * ths, side="right")
        theta[start:len(columns)] = ths
        orders.append(order)
        names.append(name)
    if encoding == "-1/+1":
        x *= 2.0
        x -= 1.0
    x *= data.y[:, None]  # the dataset holds the signed dummies y * x
    index = ThresholdIndex(order=np.array(orders, dtype=np.intp).reshape(len(orders), data.n),
                           feature=feature, prefix=prefix, plus_minus=encoding == "-1/+1",
                           direction=direction, names=tuple(names), thresholds=theta)
    out = DesignMatrix(signed=x, y=data.y, feature_names=tuple(columns), threshold_index=index)
    return out, index


@dataclass(frozen=True)
class ScorecardTerm:
    """One weighted term: the indicator 1[feature op threshold], or the raw
    feature itself when ``op`` and ``threshold`` are None."""

    feature: str
    op: str | None
    threshold: float | None
    weight: float


@dataclass(frozen=True)
class Scorecard:
    """A fitted model as read and written by model files: an intercept plus
    weighted terms keyed by raw feature name.

    A ``scorecard`` sums 0/1 threshold indicators.  Its terms are grouped
    by source feature in threshold order; fits on -1/+1 dummies are folded
    into the indicator convention at export, so a scorecard evaluates
    identically regardless of the training encoding.  A ``linear`` model
    sums raw features, its terms having no ``op`` or ``threshold``.

    Construction refuses, with a ``DataError``, what no model file may
    hold: an unknown kind or loss, a zero weight, a scorecard term without
    a threshold or whose ``op`` is not one of ``DIRECTIONS``, a linear term
    with an ``op`` or a ``threshold``, and a linear model that names a
    feature in two terms.
    """

    loss: str
    lambda0: float
    lambda2: float
    intercept: float
    terms: tuple[ScorecardTerm, ...]
    kind: str = "scorecard"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind {self.kind!r}")
        if any(t.weight == 0.0 for t in self.terms):
            raise DataError("model terms must have nonzero weights")
        if self.loss not in LOSSES:
            raise DataError(f"unknown loss {self.loss!r}")
        seen = set()
        for t in self.terms:
            if self.kind == "scorecard":
                if t.op not in DIRECTIONS or t.threshold is None:
                    raise DataError(f"scorecard term {t.feature!r} needs an op in "
                                    f"{DIRECTIONS} and a threshold")
            elif t.op is not None or t.threshold is not None:
                raise DataError(f"linear term {t.feature!r} has an op or a threshold")
            elif t.feature in seen:
                raise DataError(f"linear model names feature {t.feature!r} twice")
            seen.add(t.feature)

    def score_rows(self, features: dict[str, np.ndarray]) -> np.ndarray:
        """Raw additive scores for named raw-feature columns."""
        total = None
        for t in self.terms:
            if t.feature not in features:
                raise DataError(f"model needs feature {t.feature!r}")
            col = np.asarray(features[t.feature], dtype=np.float64)
            if t.op is not None:
                ind = (col <= t.threshold) if t.op == "<=" else (col >= t.threshold)
                col = ind.astype(np.float64)
            contrib = t.weight * col
            total = contrib if total is None else total + contrib
        if total is None:
            sizes = [np.asarray(v).shape[0] for v in features.values()]
            total = np.zeros(sizes[0] if sizes else 0)
        return total + self.intercept

    def to_json(self) -> str:
        return dump_json(
            {
                "kind": self.kind,
                "loss": self.loss,
                "lambda0": self.lambda0,
                "lambda2": self.lambda2,
                "intercept": self.intercept,
                "terms": [{k: v for k, v in asdict(t).items() if v is not None}
                          for t in self.terms],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Scorecard":
        # every number is a finite float; "-0" must read back as -0.0
        obj = json.loads(text, parse_int=_finite, parse_float=_finite, parse_constant=_finite)
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind {kind!r}")
        if kind == "linear":
            terms = (ScorecardTerm(_name(t["feature"]), None, None, _number(t["weight"]))
                     for t in obj["terms"])
        else:
            terms = (ScorecardTerm(_name(t["feature"]), _direction(t["op"]),
                                   _number(t["threshold"]), _number(t["weight"]))
                     for t in obj["terms"])
        return cls(
            loss=str(obj["loss"]),
            lambda0=_number(obj["lambda0"]),
            lambda2=_number(obj["lambda2"]),
            intercept=_number(obj["intercept"]),
            terms=tuple(terms),
            kind=kind,
        )


def _finite(text: str) -> float:
    # a ValueError, so a model file with NaN, Infinity or 1e999 reads as
    # malformed, as the writer (``dump_json``) refuses them
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _number(value) -> float:
    # a ValueError, so a model file with a boolean, a string or null where a
    # number is due reads as malformed; ``from_json`` parses every JSON
    # number to a float
    if type(value) is not float:
        raise ValueError(f"{value!r} is not a number")
    return value


def _name(value) -> str:
    # a ValueError, so a model file whose term names a feature by a number
    # reads as malformed
    if not isinstance(value, str):
        raise ValueError(f"term feature {value!r} is not a string")
    return value


def _direction(op) -> str:
    # a ValueError, so a model file with another op reads as malformed
    if op not in DIRECTIONS:
        raise ValueError(f"term op {op!r} is not one of {DIRECTIONS}")
    return op


def dump_json(obj) -> str:
    """JSON text with each float in its shortest form that reads back bit for
    bit (``repr``); a non-finite number is a ``DataError``."""
    try:
        return json.dumps(obj, allow_nan=False, default=_unwrap_numpy)
    except ValueError as exc:
        raise DataError("cannot serialize non-finite numbers") from exc


def _unwrap_numpy(obj):
    # NumPy scalars that do not subclass a Python number, such as np.float32
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def export_scorecard(state, data: DesignMatrix, hp) -> Scorecard:
    """Turn a fit on ``data`` into a model: a scorecard for a fit on the
    dummies that ``binarize`` builds, read from their threshold index, and
    a ``linear`` model for a fit on raw features (no index).

    -1/+1 dummies contribute 2w per indicator with the constant part folded
    into the intercept.
    """
    if state.w.shape[0] != data.p:
        raise DataError("the fitted coefficient vector does not match the dataset")
    intercept = float(state.intercept)
    idx = data.threshold_index
    if idx is None:
        terms = [ScorecardTerm(data.feature_names[j], None, None, float(state.w[j]))
                 for j in sorted(state.support)]
        return Scorecard(hp.loss, hp.lambda0, hp.lambda2, intercept, tuple(terms), "linear")
    terms = []
    for j in sorted(state.support):
        w = float(state.w[j])
        if idx.plus_minus:
            intercept -= w
            w *= 2.0
        terms.append(ScorecardTerm(idx.names[idx.feature[j]], idx.direction,
                                   float(idx.thresholds[j]), w))
    return Scorecard(hp.loss, hp.lambda0, hp.lambda2, intercept, tuple(terms))
