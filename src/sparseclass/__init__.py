"""Sparse classification with an exact sparsity penalty.

Fits sparse generalized linear models under the logistic or exponential
loss by coordinate descent plus delete-or-swap local search, with
tangent-based candidate screening and failure-count feature ordering.
Continuous features can be expanded into threshold dummies, turning the
same solvers into generalized additive scorecard builders.
"""

from .binarize import Scorecard, ScorecardTerm, binarize, export_scorecard
from .core import (
    ConfigError,
    DataError,
    DesignMatrix,
    HyperParams,
    ModelState,
    objective,
    predict_probability,
    probability_from_scores,
    smooth_logistic_loss,
    smooth_loss,
)
from .exponential import ExpState, zero_interval
from .metrics import SupportComparison, accuracy, auc, recovery_f1
from .path import PathEntry, PathResult, PathSpec, fit_one, fit_path, warm_start
from .swap import FitStats, SwapOutcome, fit_swap_1opt, try_delete_or_swap
from .synth import SynthSpec, gen_classification, planted_support

__all__ = [
    "ConfigError",
    "DataError",
    "DesignMatrix",
    "ExpState",
    "FitStats",
    "HyperParams",
    "ModelState",
    "PathEntry",
    "PathResult",
    "PathSpec",
    "Scorecard",
    "ScorecardTerm",
    "SupportComparison",
    "SwapOutcome",
    "SynthSpec",
    "accuracy",
    "auc",
    "binarize",
    "export_scorecard",
    "fit_one",
    "fit_path",
    "fit_swap_1opt",
    "gen_classification",
    "objective",
    "planted_support",
    "predict_probability",
    "probability_from_scores",
    "recovery_f1",
    "smooth_logistic_loss",
    "smooth_loss",
    "try_delete_or_swap",
    "warm_start",
    "zero_interval",
]
