"""Sparse classification with an exact sparsity penalty.

Fits sparse generalized linear models under the logistic or exponential
loss by coordinate descent plus delete-or-swap local search, with
tangent-based candidate screening and failure-count feature ordering.
Continuous features can be expanded into threshold dummies, turning the
same solvers into generalized additive scorecard builders.
"""

from .binarize import (
    Scorecard,
    ScorecardTerm,
    ThresholdGroup,
    ThresholdMap,
    binarize,
    export_scorecard,
)
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
from .exponential import (
    ExpState,
    d_minus,
    exp_coordinate_update,
    exp_line_search,
    zero_interval,
)
from .logistic import (
    CoordinateProbe,
    TryAddResult,
    coordinate_probe,
    find_new_coefficient,
    grad_j,
    lin_cut,
    lipschitz_j,
    quad_cut_one,
    quad_cut_two,
    threshold_step,
    try_add_lincut,
    try_add_quad,
)
from .metrics import SupportComparison, accuracy, auc, recovery_f1
from .path import PathEntry, PathResult, PathSpec, fit_one, fit_path, warm_start
from .swap import FailureQueue, FitStats, SwapOutcome, fit_swap_1opt, try_delete_or_swap
from .synth import SynthSpec, gen_classification, planted_support

__all__ = [
    "ConfigError",
    "CoordinateProbe",
    "DataError",
    "DesignMatrix",
    "ExpState",
    "FailureQueue",
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
    "ThresholdGroup",
    "ThresholdMap",
    "TryAddResult",
    "accuracy",
    "auc",
    "binarize",
    "coordinate_probe",
    "d_minus",
    "exp_coordinate_update",
    "exp_line_search",
    "export_scorecard",
    "find_new_coefficient",
    "fit_one",
    "fit_path",
    "fit_swap_1opt",
    "gen_classification",
    "grad_j",
    "lin_cut",
    "lipschitz_j",
    "objective",
    "planted_support",
    "predict_probability",
    "probability_from_scores",
    "quad_cut_one",
    "quad_cut_two",
    "recovery_f1",
    "smooth_logistic_loss",
    "smooth_loss",
    "threshold_step",
    "try_add_lincut",
    "try_add_quad",
    "try_delete_or_swap",
    "warm_start",
    "zero_interval",
]
