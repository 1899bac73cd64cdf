"""Command-line surface: fit, predict, path, bench, and synth subcommands.

Exit codes: 0 ok, 2 input error (an unwritable output among them, a
closed stdout included), 3 configuration error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .binarize import Scorecard, binarize, dump_json, export_scorecard
from .core import (
    LOSSES,
    ConfigError,
    DataError,
    DesignMatrix,
    HyperParams,
    engine,
    objective,
    probability_from_scores,
)
from .metrics import accuracy, auc
from .path import PathSpec, fit_one, fit_path
from .swap import CUTS, ORDERINGS, FitStats
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

# Bytes read per step of the body scan in ``_read_table``.
SCAN_CHUNK_BYTES = 4 << 20

# The bytes a CSV body may hold: number characters, commas and whitespace.
_NUMBER_BYTES = b"0123456789.+-eE, \t\r\n"


def _read_table(path: str, columns=None) -> tuple[list[str], np.ndarray]:
    """Read a CSV file with a header row of distinct names: the names of the
    parsed columns, in file order, and their numeric rows.

    ``columns`` names the columns to parse, every column when None; names
    the header lacks are skipped. The last column is always parsed, so a
    row short of the header's width fails the parse. Before the parse, one
    streamed pass over the whole body checks that it holds only number
    characters (digits, ``.+-eE``, commas and whitespace), which rejects
    ``nan``, ``inf`` and ``#`` lines anywhere, and counts its commas, which
    must come to the header's width less one per row. The parsed columns
    must be finite. A line of only spaces or tabs is malformed, while an
    empty line is skipped. A token of number characters that is not a
    number, such as ``1-2``, or that overflows, such as ``1e999``, is
    caught only in a parsed column."""
    try:
        with open(path, "rb") as fh:
            # a UTF-8 byte-order mark is no part of the first name
            header = next(csv.reader([fh.readline().decode("utf-8-sig")]), None)
            if not header:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise DataError(f"{path}: column names must be distinct")
            body = fh.tell()
            commas, has_rows = 0, False
            while chunk := fh.read(SCAN_CHUNK_BYTES):
                if chunk.translate(None, _NUMBER_BYTES):
                    raise _line_error(path, fh, body)
                commas += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord(",")))
                has_rows = has_rows or bool(chunk.strip())
            if not has_rows:
                raise DataError(f"{path}: no data rows")
            fh.seek(body)
            names = header
            usecols = None
            if columns is not None:
                usecols = [i for i, name in enumerate(header)
                           if name in columns or i == len(header) - 1]
                names = [header[i] for i in usecols]
            try:
                raw = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2, comments=None)
            except ValueError as exc:
                raise _line_error(path, fh, body, exc) from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: header is not UTF-8 text ({exc})") from exc
    if commas != raw.shape[0] * (len(header) - 1):
        raise DataError(f"{path}: row width does not match header")
    if not np.isfinite(raw).all():
        raise DataError(f"{path}: non-finite values (nan or inf)")
    return names, raw


def _line_error(path: str, fh, body: int, exc: ValueError | None = None) -> DataError:
    """The error for the first body line of ``fh`` (open in binary mode, its
    body starting at byte ``body``) that holds a byte other than a number
    character, or only spaces or tabs, which numpy reads as a row of one
    field where it skips an empty line.  A line of the first kind reports a
    non-finite value when its first such field reads as ``nan`` or ``inf``,
    malformed data otherwise.  With no such line, numpy's message ``exc``."""
    fh.seek(body)
    for lineno, line in enumerate(fh, start=2):
        if line.translate(None, _NUMBER_BYTES):
            field = next(f for f in line.split(b",") if f.translate(None, _NUMBER_BYTES))
            text = field.strip().decode(errors="replace")
            try:
                non_finite = not np.isfinite(float(text))
            except ValueError:
                non_finite = False
            what = "non-finite value" if non_finite else "malformed numeric data"
            return DataError(f"{path}: line {lineno}: {what} {text!r}")
        text = line.rstrip(b"\r\n")
        if text and not text.strip():
            return DataError(f"{path}: line {lineno}: malformed numeric data {text.decode()!r}")
    return DataError(f"{path}: malformed numeric data ({exc})")


def read_csv(path: str) -> DesignMatrix:
    """Read a training dataset: header row, a label column named ``y`` with
    values in {-1, 1} or {0, 1} and both classes present, all other columns
    numeric features."""
    header, raw = _read_table(path)
    if LABEL_COLUMN not in header:
        raise DataError(f"{path}: no {LABEL_COLUMN!r} column")
    y_idx = header.index(LABEL_COLUMN)
    feat_idx = [i for i in range(len(header)) if i != y_idx]
    names = [header[i] for i in feat_idx]
    data = DesignMatrix.from_arrays(raw[:, feat_idx], raw[:, y_idx], names)
    if np.unique(data.y).size < 2:
        raise DataError(f"{path}: the {LABEL_COLUMN!r} column has one class; a fit needs both")
    return data


# Rows per ``tolist`` batch in ``_format_rows``: bounds the Python floats
# held at once.
WRITE_BATCH_ROWS = 256


def _format_rows(fmt: str, columns):
    """Yield ``fmt % row`` for each row across ``columns`` (equal-length
    1-D arrays), converting ``WRITE_BATCH_ROWS`` rows at a time to Python
    numbers; ``%.17g`` then writes each value as ``_fmt`` does."""
    for start in range(0, len(columns[0]), WRITE_BATCH_ROWS):
        stop = start + WRITE_BATCH_ROWS
        yield from (fmt % row for row in zip(*(c[start:stop].tolist() for c in columns)))


@contextmanager
def _output(path: str, newline: str | None = None):
    """``path`` opened for writing text; a failure to open or write it is an
    input error."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output(path: str) -> None:
    """Fail before any work on an output ``path`` whose directory ``open``
    cannot reach, with the reason it would give only after the work."""
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the "/" needs a directory
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


def write_csv(path: str, data: DesignMatrix) -> None:
    """Write a dataset with the label column last, its features read back
    as y * z one ``WRITE_BATCH_ROWS`` batch at a time, never all of ``x``."""
    fmt = ",".join(["%.17g"] * (data.p + 1)) + "\n"
    with _output(path, newline="") as fh:
        fh.write(",".join([*data.feature_names, LABEL_COLUMN]) + "\n")
        for start in range(0, data.n, WRITE_BATCH_ROWS):
            y, z = (a[start:start + WRITE_BATCH_ROWS] for a in (data.y, data.signed))
            fh.writelines(_format_rows(fmt, [*(y[:, None] * z).T, y]))


def load_model(path: str) -> Scorecard:
    """Read a model file of either kind; a missing or malformed field, an
    unknown kind or loss, or a linear model that names a feature in two
    terms is an input error."""
    try:
        with open(path) as fh:
            model = Scorecard.from_json(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid model text ({exc})") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"{path}: model file has no {exc.args[0]!r} field") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    if model.loss not in LOSSES:
        raise DataError(f"{path}: unknown loss {model.loss!r}")
    if model.kind == "linear":
        seen = set()
        for t in model.terms:
            if t.feature in seen:
                raise DataError(f"{path}: linear model names feature {t.feature!r} twice")
            seen.add(t.feature)
    return model


def _emit(lines: list[str], out: str | None) -> None:
    """Write CSV lines to the file ``out``, or to stdout without one."""
    text = "\n".join(lines) + "\n"
    if out:
        with _output(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_finite(*values) -> None:
    for v in values:
        arr = np.asarray(v, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite values in results")


# --- subcommands -------------------------------------------------------------

def _prepare_training_data(args) -> tuple[DesignMatrix, object | None]:
    data = read_csv(args.data)
    tmap = None
    encoding = engine(args.loss).BINARIZE_ENCODING
    if args.binarize:
        data, tmap = binarize(data, direction="<=", encoding=encoding,
                              max_thresholds=args.max_thresholds)
    if encoding == "-1/+1" and not data.binary:
        raise ConfigError(f"the {args.loss} loss needs -1/+1 features; pass --binarize")
    return data, tmap


def cmd_fit(args) -> int:
    data, tmap = _prepare_training_data(args)
    hp = HyperParams(lambda0=args.lambda0, lambda2=args.lambda2, loss=args.loss,
                     candidate_limit=args.candidate_limit)
    stats = FitStats()
    t0 = time.perf_counter()
    state = fit_one(data, hp, ordering=args.ordering, cut=args.cut, stats=stats)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    obj = objective(state, data, hp)
    _check_finite(obj, state.w, state.intercept)
    scores = state.scores(data)
    model_text = export_scorecard(state, tmap, data.feature_names, hp).to_json()
    if args.out:
        with _output(args.out) as fh:
            fh.write(model_text + "\n")
    print(dump_json({
        "objective": obj,
        "support_size": len(state.support),
        "wall_ms": wall_ms,
        "train_accuracy": accuracy(scores, data.y),
        "train_auc": auc(scores, data.y),
        **asdict(stats),
    }))
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = _read_predict_data(args.data, {t.feature for t in model.terms})
    scores = model.score_rows(data)
    _check_finite(scores)
    # A scorecard's scores take few distinct values.  Each is formatted
    # once, keyed on its bits so that -0.0 and 0.0 stay apart; the
    # probability and the label are functions of those bits.
    _, first, inverse = np.unique(scores.view(np.int64), return_index=True,
                                  return_inverse=True)
    distinct = scores[first]
    probs = probability_from_scores(distinct, model.loss)
    labels = np.where(distinct >= 0.0, 1.0, -1.0)
    table = list(_format_rows("%.17g,%.17g,%d", (distinct, probs, labels)))
    lines = ["score,probability,label"]
    lines += map(table.__getitem__, inverse.tolist())
    _emit(lines, args.out)
    return EXIT_OK


def _read_predict_data(path: str, names) -> dict[str, np.ndarray]:
    """Prediction input, checked whole as ``_read_table`` does: the parsed
    columns by name, which are those of ``names`` the header has (the
    features a model reads) and the last column, which gives the row count
    when ``names`` is empty. A label column is allowed and ignored."""
    parsed, raw = _read_table(path, names)
    return {name: raw[:, i] for i, name in enumerate(parsed)}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not vals:
        raise ConfigError("empty grid")
    return tuple(sorted(set(vals), reverse=True))


# Work counters of ``FitStats`` that the path and bench CSVs carry after
# their original columns.
COUNTER_COLUMNS = ("candidates", "line_searches", "cap_hits")


def _counters(e) -> str:
    return ",".join(str(getattr(e, name)) for name in COUNTER_COLUMNS)


def _path_rows(data: DesignMatrix, result) -> list[str]:
    rows = ["lambda0,lambda2,support_size,objective,train_auc,wall_ms,swap_evals,cut_prunes,error,"
            + ",".join(COUNTER_COLUMNS)]
    for e in result.entries:
        if e.error is None:
            train_auc = _fmt(auc(e.state.scores(data), data.y))
            rows.append(
                f"{_fmt(e.lambda0)},{_fmt(e.lambda2)},{e.support_size},{_fmt(e.objective)},"
                f"{train_auc},{_fmt(e.wall_ms)},{e.swap_evals},{e.cut_prunes},,{_counters(e)}"
            )
        else:
            err = e.error.replace(",", ";")
            rows.append(f"{_fmt(e.lambda0)},{_fmt(e.lambda2)},,,,{_fmt(e.wall_ms)},{e.swap_evals},"
                        f"{e.cut_prunes},{err},{_counters(e)}")
    return rows


def cmd_path(args) -> int:
    data, _ = _prepare_training_data(args)
    lam0_grid = _parse_grid(args.lambda0_grid)
    lam2_grid = tuple(sorted(_parse_grid(args.lambda2_grid)))
    spec = PathSpec(
        lambda0_grid=lam0_grid,
        lambda2_grid=lam2_grid,
        loss=args.loss,
        base=HyperParams(loss=args.loss, candidate_limit=args.candidate_limit),
    )
    result = fit_path(data, spec, ordering=args.ordering, cut=args.cut)
    _emit(_path_rows(data, result), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    """Ablation matrix {cut} x {ordering} x {loss where applicable} on one
    dataset and sparsity grid; one output row per cell and grid point."""
    data = read_csv(args.data)
    if args.binarize:
        data, _ = binarize(data, direction="<=", encoding="-1/+1",
                           max_thresholds=args.max_thresholds)
    lam0_grid = _parse_grid(args.lambda0_grid)
    rows = ["loss,cut,ordering,lambda0,lambda2,objective,support_size,wall_ms,swap_evals,cut_prunes,"
            + ",".join(COUNTER_COLUMNS)]

    def run_cell(loss, cut, ordering, lam2):
        base = HyperParams(loss=loss, candidate_limit=args.candidate_limit)
        spec = PathSpec(lambda0_grid=lam0_grid, lambda2_grid=(lam2,), loss=loss, base=base)
        result = fit_path(data, spec, ordering=ordering, cut=cut)
        for e in result.entries:
            obj = "" if e.error else _fmt(e.objective)
            rows.append(
                f"{loss},{cut},{ordering},{_fmt(e.lambda0)},{_fmt(e.lambda2)},{obj},"
                f"{e.support_size},{_fmt(e.wall_ms)},{e.swap_evals},{e.cut_prunes},{_counters(e)}"
            )

    cuts = ["lin", "quad"] if args.lambda2 > 0.0 else ["lin"]
    for cut in cuts:
        for ordering in ("sequential", "dynamic"):
            run_cell("logistic", cut, ordering, args.lambda2)
    if data.binary:
        for ordering in ("sequential", "dynamic"):
            run_cell("exponential", "auto", ordering, 0.0)
    _emit(rows, args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(n=args.n, p=args.p, k=args.k, rho=args.rho, seed=args.seed)
    data, truth = gen_classification(spec)
    write_csv(args.out, data)
    sidecar = {
        "k": spec.k,
        "indices": sorted(truth),
        "names": [data.feature_names[j] for j in sorted(truth)],
    }
    with _output(args.out + ".truth.json") as fh:
        fh.write(dump_json(sidecar) + "\n")
    print(dump_json({"rows": data.n, "features": data.p, "truth_size": len(truth)}))
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
    sub.add_argument("--lambda2", type=float, default=0.0)
    sub.add_argument("--binarize", action="store_true")
    sub.add_argument("--max-thresholds", dest="max_thresholds", type=_int_or_all, default=None)
    sub.add_argument("--candidate-limit", dest="candidate_limit", type=_int_or_all, default=None)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", default=None)


def _add_solver_flags(sub):
    """Flags of ``fit`` and ``path``; ``bench`` runs every combination."""
    _add_common_fit_flags(sub)
    sub.add_argument("--loss", choices=LOSSES, default="logistic")
    sub.add_argument("--cut", choices=CUTS, default="auto")
    sub.add_argument("--ordering", choices=ORDERINGS, default="dynamic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseclass",
        description="Sparse classification with an exact sparsity penalty: "
                    "coordinate descent, cut-screened feature swaps, and "
                    "additive scorecards.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one model and write it out")
    _add_solver_flags(fit)
    fit.add_argument("--lambda0", type=float, default=1.0)
    fit.set_defaults(func=cmd_fit)

    pred = subs.add_parser("predict", help="score a dataset with a model file")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", default=None)
    pred.set_defaults(func=cmd_predict)

    pth = subs.add_parser("path", help="fit a grid of penalties with warm starts")
    _add_solver_flags(pth)
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
        if args.out:
            _check_output(args.out)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:  # a file reports its failures as a DataError
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
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
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: send what it holds to the null device, so that
        # the interpreter's last flush prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_main()
