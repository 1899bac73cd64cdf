"""Command-line surface: fit, predict, path, bench, and synth subcommands.

Exit codes: 0 ok, 2 input error, 3 configuration error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .binarize import Scorecard, binarize, dumps_17g, export_scorecard
from .core import (
    ConfigError,
    DataError,
    DesignMatrix,
    HyperParams,
    objective,
    probability_from_scores,
)
from .metrics import accuracy, auc
from .path import PathSpec, fit_one, fit_path
from .swap import FitStats, resolve_cut
from .synth import SynthSpec, gen_classification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

LABEL_COLUMN = "y"


class NumericError(RuntimeError):
    """A fit or prediction produced non-finite numbers."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# --- CSV / model file handling ---------------------------------------------

def read_csv(path: str) -> DesignMatrix:
    """Read a dataset: header row, a label column named ``y`` with values in
    {-1, 1} or {0, 1}, all other columns numeric features."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if not header:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed numeric data ({exc})") from exc
    if LABEL_COLUMN not in header:
        raise DataError(f"{path}: no {LABEL_COLUMN!r} column")
    if raw.size == 0:
        raise DataError(f"{path}: no data rows")
    if raw.shape[1] != len(header):
        raise DataError(f"{path}: row width does not match header")
    y_idx = header.index(LABEL_COLUMN)
    feat_idx = [i for i in range(len(header)) if i != y_idx]
    names = [header[i] for i in feat_idx]
    return DesignMatrix.from_arrays(raw[:, feat_idx], raw[:, y_idx], names)


def write_csv(path: str, names, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join([*names, LABEL_COLUMN]) + "\n")
        for i in range(x.shape[0]):
            row = [_fmt(v) for v in x[i]]
            row.append(_fmt(y[i]))
            fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class LinearModel:
    """Plain sparse linear model keyed by feature name."""

    loss: str
    lambda0: float
    lambda2: float
    intercept: float
    terms: tuple[tuple[str, float], ...]

    def score_rows(self, features: dict[str, np.ndarray]) -> np.ndarray:
        total = None
        for name, weight in self.terms:
            if name not in features:
                raise DataError(f"model needs feature {name!r}")
            contrib = weight * np.asarray(features[name], dtype=np.float64)
            total = contrib if total is None else total + contrib
        if total is None:
            sizes = [np.asarray(v).shape[0] for v in features.values()]
            total = np.zeros(sizes[0] if sizes else 0)
        return total + self.intercept

    def to_json(self) -> str:
        return dumps_17g(
            {
                "kind": "linear",
                "loss": self.loss,
                "lambda0": self.lambda0,
                "lambda2": self.lambda2,
                "intercept": self.intercept,
                "terms": [{"feature": n, "weight": w} for n, w in self.terms],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearModel":
        obj = json.loads(text)
        if obj.get("kind") != "linear":
            raise DataError("not a linear model file")
        return cls(
            loss=str(obj["loss"]),
            lambda0=float(obj["lambda0"]),
            lambda2=float(obj["lambda2"]),
            intercept=float(obj["intercept"]),
            terms=tuple((str(t["feature"]), float(t["weight"])) for t in obj["terms"]),
        )


def load_model(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
        obj = json.loads(text)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid model text ({exc})") from exc
    kind = obj.get("kind")
    if kind == "scorecard":
        return Scorecard.from_json(text)
    if kind == "linear":
        return LinearModel.from_json(text)
    raise DataError(f"{path}: unknown model kind {kind!r}")


def _feature_dict(data: DesignMatrix) -> dict[str, np.ndarray]:
    return {name: data.column(j) for j, name in enumerate(data.feature_names)}


def _check_finite(*values) -> None:
    for v in values:
        arr = np.asarray(v, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite values in results")


# --- subcommands -------------------------------------------------------------

def _prepare_training_data(args) -> tuple[DesignMatrix, object | None]:
    data = read_csv(args.data)
    tmap = None
    if args.binarize:
        encoding = "-1/+1" if args.loss == "exponential" else "0/1"
        data, tmap = binarize(data, direction="<=", encoding=encoding,
                              max_thresholds=args.max_thresholds)
    if args.loss == "exponential" and not data.binary:
        raise ConfigError("the exponential loss needs -1/+1 features; pass --binarize")
    return data, tmap


def _hp(args, lambda0=None, lambda2=None) -> HyperParams:
    return HyperParams(
        lambda0=args.lambda0 if lambda0 is None else lambda0,
        lambda2=args.lambda2 if lambda2 is None else lambda2,
        loss=args.loss,
        candidate_limit=args.candidate_limit,
    )


def _train_metrics(state, data: DesignMatrix) -> tuple[float, float | None]:
    scores = state.scores(data)
    acc = accuracy(scores, data.y)
    try:
        train_auc = auc(scores, data.y)
    except DataError:
        train_auc = None
    return acc, train_auc


def cmd_fit(args) -> int:
    data, tmap = _prepare_training_data(args)
    hp = _hp(args)
    if hp.loss == "logistic":
        resolve_cut(args.cut, hp)  # reject bad cut/ridge combinations up front
    stats = FitStats()
    t0 = time.perf_counter()
    state = fit_one(data, hp, ordering=args.ordering, cut=args.cut, stats=stats)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    obj = objective(state, data, hp)
    _check_finite(obj, state.w, state.intercept)
    acc, train_auc = _train_metrics(state, data)
    if tmap is not None:
        model_text = export_scorecard(state, tmap, data.feature_names, hp).to_json()
    else:
        terms = tuple(
            (data.feature_names[j], float(state.w[j])) for j in sorted(state.support)
        )
        model_text = LinearModel(hp.loss, hp.lambda0, hp.lambda2,
                                 float(state.intercept), terms).to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(model_text + "\n")
    print(dumps_17g({
        "objective": obj,
        "support_size": len(state.support),
        "wall_ms": wall_ms,
        "train_accuracy": acc,
        "train_auc": train_auc,
        "swap_evals": stats.swap_evals,
        "cut_prunes": stats.cut_prunes,
    }))
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = _read_predict_data(args.data)
    scores = model.score_rows(data)
    _check_finite(scores)
    probs = probability_from_scores(scores, model.loss)
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    lines = ["score,probability,label"]
    for s, pr, lb in zip(scores, probs, labels):
        lines.append(f"{_fmt(s)},{_fmt(pr)},{int(lb)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_predict_data(path: str) -> dict[str, np.ndarray]:
    """Prediction input: header plus numeric columns; a label column is
    allowed and ignored."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if not header:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed numeric data ({exc})") from exc
    if raw.size == 0 or raw.shape[1] != len(header):
        raise DataError(f"{path}: row width does not match header")
    return {name: raw[:, i] for i, name in enumerate(header)}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not vals:
        raise ConfigError("empty grid")
    return tuple(sorted(set(vals), reverse=True))


def _path_rows(data: DesignMatrix, result) -> list[str]:
    rows = ["lambda0,lambda2,support_size,objective,train_auc,wall_ms,swap_evals,cut_prunes,error"]
    for e in result.entries:
        if e.error is None:
            try:
                train_auc = _fmt(auc(e.state.scores(data), data.y))
            except DataError:
                train_auc = ""
            rows.append(
                f"{_fmt(e.lambda0)},{_fmt(e.lambda2)},{e.support_size},{_fmt(e.objective)},"
                f"{train_auc},{_fmt(e.wall_ms)},{e.swap_evals},{e.cut_prunes},"
            )
        else:
            err = e.error.replace(",", ";")
            rows.append(f"{_fmt(e.lambda0)},{_fmt(e.lambda2)},,,,{_fmt(e.wall_ms)},{e.swap_evals},{e.cut_prunes},{err}")
    return rows


def cmd_path(args) -> int:
    data, _ = _prepare_training_data(args)
    lam0_grid = _parse_grid(args.lambda0_grid)
    lam2_grid = tuple(sorted({float(t) for t in args.lambda2_grid.split(",") if t.strip()}))
    spec = PathSpec(
        lambda0_grid=lam0_grid,
        lambda2_grid=lam2_grid,
        loss=args.loss,
        base=HyperParams(loss=args.loss, candidate_limit=args.candidate_limit),
    )
    if args.loss == "logistic":
        resolve_cut(args.cut, spec.hyperparams(lam0_grid[0], max(lam2_grid)))
    result = fit_path(data, spec, ordering=args.ordering, cut=args.cut)
    rows = _path_rows(data, result)
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    """Ablation matrix {cut} x {ordering} x {loss where applicable} on one
    dataset and sparsity grid; one output row per cell and grid point."""
    data = read_csv(args.data)
    if args.binarize:
        data, _ = binarize(data, direction="<=", encoding="-1/+1",
                           max_thresholds=args.max_thresholds)
    lam0_grid = _parse_grid(args.lambda0_grid)
    rows = ["loss,cut,ordering,lambda0,lambda2,objective,support_size,wall_ms,swap_evals,cut_prunes"]

    def run_cell(loss, cut, ordering, lam2):
        base = HyperParams(loss=loss, candidate_limit=args.candidate_limit)
        spec = PathSpec(lambda0_grid=lam0_grid, lambda2_grid=(lam2,), loss=loss, base=base)
        result = fit_path(data, spec, ordering=ordering, cut=cut)
        for e in result.entries:
            obj = "" if e.error else _fmt(e.objective)
            rows.append(
                f"{loss},{cut},{ordering},{_fmt(e.lambda0)},{_fmt(e.lambda2)},{obj},"
                f"{e.support_size},{_fmt(e.wall_ms)},{e.swap_evals},{e.cut_prunes}"
            )

    cuts = ["lin", "quad"] if args.lambda2 > 0.0 else ["lin"]
    for cut in cuts:
        for ordering in ("sequential", "dynamic"):
            run_cell("logistic", cut, ordering, args.lambda2)
    if data.binary:
        for ordering in ("sequential", "dynamic"):
            run_cell("exponential", "auto", ordering, 0.0)
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(n=args.n, p=args.p, k=args.k, rho=args.rho, seed=args.seed)
    data, truth = gen_classification(spec)
    write_csv(args.out, data.feature_names, data.x, data.y)
    sidecar = {
        "k": spec.k,
        "indices": sorted(truth),
        "names": [data.feature_names[j] for j in sorted(truth)],
    }
    with open(args.out + ".truth.json", "w") as fh:
        fh.write(dumps_17g(sidecar) + "\n")
    print(dumps_17g({"rows": data.n, "features": data.p, "truth_size": len(truth)}))
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------

def _int_or_all(text: str):
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _add_common_fit_flags(sub):
    sub.add_argument("--loss", choices=("logistic", "exponential"), default="logistic")
    sub.add_argument("--lambda2", type=float, default=0.0)
    sub.add_argument("--cut", choices=("lin", "quad", "auto"), default="auto")
    sub.add_argument("--ordering", choices=("dynamic", "sequential"), default="dynamic")
    sub.add_argument("--binarize", action="store_true")
    sub.add_argument("--max-thresholds", dest="max_thresholds", type=_int_or_all, default=None)
    sub.add_argument("--candidate-limit", dest="candidate_limit", type=_int_or_all, default=None)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseclass",
        description="Sparse classification with an exact sparsity penalty: "
                    "coordinate descent, cut-screened feature swaps, and "
                    "additive scorecards.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one model and write it out")
    _add_common_fit_flags(fit)
    fit.add_argument("--lambda0", type=float, default=1.0)
    fit.set_defaults(func=cmd_fit)

    pred = subs.add_parser("predict", help="score a dataset with a model file")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", default=None)
    pred.set_defaults(func=cmd_predict)

    pth = subs.add_parser("path", help="fit a grid of penalties with warm starts")
    _add_common_fit_flags(pth)
    pth.add_argument("--lambda0-grid", dest="lambda0_grid", required=True)
    pth.add_argument("--lambda2-grid", dest="lambda2_grid", default="0")
    pth.set_defaults(func=cmd_path)

    bench = subs.add_parser("bench", help="run the cut/ordering/loss ablation matrix")
    _add_common_fit_flags(bench)
    bench.add_argument("--lambda0-grid", dest="lambda0_grid", required=True)
    bench.set_defaults(func=cmd_bench)

    synth = subs.add_parser("synth", help="write a synthetic dataset and its true support")
    synth.add_argument("--n", type=int, default=960)
    synth.add_argument("--p", type=int, default=1000)
    synth.add_argument("--k", type=int, default=25)
    synth.add_argument("--rho", type=float, default=0.9)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
