"""Command-line interface tests (subcommands invoked in-process)."""

import dataclasses
import errno
import io
import json
import os
import sys

import numpy as np
import pytest

import sparseclass as sc
from sparseclass.binarize import ScorecardTerm
from sparseclass.cli import main, read_csv


def _write_dataset(path, rng, n=120, p=5, idx=(1, 3), scale=1.4, binary=False,
                   label01=False):
    from scipy.special import expit
    x = rng.choice([-1.0, 1.0], size=(n, p)) if binary else rng.standard_normal((n, p))
    w = np.zeros(p)
    w[list(idx)] = scale
    y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
    if label01:
        y = (y + 1) / 2
    names = [f"x{j + 1}" for j in range(p)]
    with open(path, "w") as fh:
        fh.write(",".join(names + ["y"]) + "\n")
        for i in range(n):
            fh.write(",".join(repr(float(v)) for v in x[i]) + f",{float(y[i])!r}\n")
    return x, y, names


# every counter of a fit, as the fit JSON and the path and bench CSVs carry them
_FIT_STATS_FIELDS = [f.name for f in dataclasses.fields(sc.FitStats)]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitPredict:
    def test_round_trip_reproduces_training_metrics(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        model_path = tmp_path / "model.json"
        code, out, _ = _run(capsys, [
            "fit", "--data", str(data_path), "--out", str(model_path),
            "--lambda0", "0.2", "--lambda2", "0.001",
        ])
        assert code == 0
        summary = json.loads(out)
        assert summary["support_size"] >= 1
        assert summary["wall_ms"] > 0

        pred_path = tmp_path / "pred.csv"
        code, _, _ = _run(capsys, [
            "predict", "--model", str(model_path),
            "--data", str(data_path), "--out", str(pred_path),
        ])
        assert code == 0
        rows = np.loadtxt(pred_path, delimiter=",", skiprows=1, ndmin=2)
        scores, probs, labels = rows[:, 0], rows[:, 1], rows[:, 2]
        raw = np.loadtxt(data_path, delimiter=",", skiprows=1, ndmin=2)
        y = raw[:, -1]
        assert sc.accuracy(scores, y) == pytest.approx(summary["train_accuracy"], abs=1e-12)
        assert sc.auc(scores, y) == summary["train_auc"]
        np.testing.assert_allclose(probs, sc.probability_from_scores(scores, "logistic"),
                                   atol=1e-12)
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_fit_json_reports_swap_counters(self, tmp_path, capsys):
        from sparseclass.cli import read_csv
        rng = np.random.default_rng(12)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=150, p=12)
        code, out, _ = _run(capsys, ["fit", "--data", str(data_path),
                                     "--lambda0", "0.3", "--lambda2", "0.001"])
        assert code == 0
        summary = json.loads(out)
        stats = sc.FitStats()
        sc.fit_one(read_csv(str(data_path)), sc.HyperParams(lambda0=0.3, lambda2=1e-3),
                   stats=stats)
        for key in _FIT_STATS_FIELDS:
            assert summary[key] == getattr(stats, key), key
        assert summary["candidates"] > 0

    def test_huge_penalty_gives_intercept_only_model(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        model_path = tmp_path / "model.json"
        code, out, _ = _run(capsys, [
            "fit", "--data", str(data_path), "--out", str(model_path),
            "--lambda0", "1e9",
        ])
        assert code == 0
        assert json.loads(out)["support_size"] == 0
        model = json.loads(model_path.read_text())
        assert model["terms"] == []

    def test_empty_model_predicts_constant_probability(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        model_path = tmp_path / "model.json"
        _run(capsys, ["fit", "--data", str(data_path), "--out", str(model_path),
                      "--lambda0", "1e9"])
        intercept = json.loads(model_path.read_text())["intercept"]
        code, _, _ = _run(capsys, ["predict", "--model", str(model_path),
                                   "--data", str(data_path),
                                   "--out", str(tmp_path / "p.csv")])
        assert code == 0
        rows = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1, ndmin=2)
        expected = float(sc.probability_from_scores(intercept, "logistic"))
        np.testing.assert_allclose(rows[:, 1], expected, atol=1e-12)

    def test_exponential_probabilities_match_doubled_logistic(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, binary=True)
        model_path = tmp_path / "model.json"
        code, _, _ = _run(capsys, [
            "fit", "--loss", "exponential", "--lambda0", "1",
            "--data", str(data_path), "--out", str(model_path),
        ])
        assert code == 0
        _run(capsys, ["predict", "--model", str(model_path),
                      "--data", str(data_path), "--out", str(tmp_path / "p.csv")])
        rows = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_allclose(
            rows[:, 1], sc.probability_from_scores(2.0 * rows[:, 0], "logistic"),
            atol=1e-12)

    def test_binarized_fit_writes_scorecard(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=200, p=4)
        model_path = tmp_path / "card.json"
        code, out, _ = _run(capsys, [
            "fit", "--loss", "exponential", "--lambda0", "2", "--binarize",
            "--max-thresholds", "12",
            "--data", str(data_path), "--out", str(model_path),
        ])
        assert code == 0
        card = sc.Scorecard.from_json(model_path.read_text())
        assert card.loss == "exponential"
        assert all(t.weight != 0 for t in card.terms)
        code, _, _ = _run(capsys, ["predict", "--model", str(model_path),
                                   "--data", str(data_path),
                                   "--out", str(tmp_path / "p.csv")])
        assert code == 0

        raw = read_csv(str(data_path))
        data, _ = sc.binarize(raw, encoding="-1/+1", max_thresholds=12)
        hp = sc.HyperParams(lambda0=2.0, loss="exponential")
        state = sc.fit_one(data, hp)
        assert json.loads(out)["objective"].hex() == sc.objective(state, data, hp).hex()
        scores = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1, ndmin=2)[:, 0]
        columns = {name: raw.column(j) for j, name in enumerate(raw.feature_names)}
        np.testing.assert_allclose(scores, card.score_rows(columns), rtol=0, atol=1e-12)
        np.testing.assert_allclose(scores, state.scores(data), rtol=0, atol=1e-12)

    def test_readme_scorecard_fit_ends_at_a_fixed_point(self, tmp_path, capsys, monkeypatch):
        # The README's scorecard example: 5,000 dummies at lambda0 = 5.
        # Its warm start must end at a coordinate-wise fixed point, not at
        # the sweep cap.
        from sparseclass import exponential as expeng
        from sparseclass import path as pathmod
        warm_start, starts = pathmod.warm_start, []

        def recording(data, hp, init=None, stats=None):
            state = warm_start(data, hp, init=init, stats=stats)
            starts.append((state, data, hp))
            return state

        monkeypatch.setattr(pathmod, "warm_start", recording)
        raw_path = tmp_path / "raw.csv"
        code, _, _ = _run(capsys, ["synth", "--n", "1000", "--p", "25", "--k", "5",
                                   "--rho", "0.5", "--seed", "3", "--out", str(raw_path)])
        assert code == 0
        code, out, _ = _run(capsys, ["fit", "--data", str(raw_path), "--loss", "exponential",
                                     "--lambda0", "5", "--binarize", "--max-thresholds", "200"])
        assert code == 0
        assert json.loads(out)["cap_hits"] == 0
        [(state, data, hp)] = starts
        assert data.p == 5000
        move = expeng.cd_sweep(state.copy(), data, hp.lambda0, range(data.p))
        assert move <= 1e-10

    def test_label01_ingestion(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, label01=True)
        code, out, _ = _run(capsys, ["fit", "--data", str(data_path),
                                     "--lambda0", "0.5"])
        assert code == 0


class TestExitCodes:
    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,oops\n")
        code, _, err = _run(capsys, ["fit", "--data", str(bad)])
        assert code == 2
        assert "error" in err

    def test_non_finite_features_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y\n1.0,nan,1\ninf,2.0,0\n0.5,1.5,1\n")
        code, _, err = _run(capsys, ["fit", "--data", str(bad)])
        assert code == 2
        assert "non-finite" in err

    def test_missing_label_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1.0,2.0\n")
        code, _, _ = _run(capsys, ["fit", "--data", str(bad)])
        assert code == 2

    def test_exponential_on_continuous_data_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        code, _, _ = _run(capsys, ["fit", "--loss", "exponential",
                                   "--lambda0", "1", "--data", str(data_path)])
        assert code == 3

    @pytest.mark.parametrize("command", [["fit", "--lambda0", "1"],
                                         ["path", "--lambda0-grid", "2,1"]])
    def test_exponential_quad_cut_exits_3(self, tmp_path, capsys, command):
        # The exponential loss takes no ridge, so quadratic cuts never apply.
        rng = np.random.default_rng(7)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, binary=True)
        code, out, _ = _run(capsys, command + ["--loss", "exponential", "--cut", "quad",
                                               "--data", str(data_path)])
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("command", [["fit", "--lambda0", "1"],
                                         ["path", "--lambda0-grid", "2,1"],
                                         ["bench", "--lambda0-grid", "2,1"]],
                             ids=["fit", "path", "bench"])
    def test_single_class_labels_exit_2(self, tmp_path, capsys, command):
        # one class leaves nothing to separate: no fit, no objective, no AUC
        rng = np.random.default_rng(10)
        data_path = tmp_path / "train.csv"
        x, _, names = _write_dataset(data_path, rng, n=30, p=4)
        with open(data_path, "w") as fh:
            fh.write(",".join(names + ["y"]) + "\n")
            for row in x:
                fh.write(",".join(repr(float(v)) for v in row) + ",1.0\n")
        code, out, err = _run(capsys, command + ["--data", str(data_path)])
        assert code == 2
        assert err == f"error: {data_path}: the 'y' column has one class; a fit needs both\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_empty_file_message(self, tmp_path, capsys, command):
        empty = tmp_path / "x.csv"
        empty.write_text("")
        model_path = tmp_path / "model.json"
        model_path.write_text(sc.Scorecard("logistic", 1.0, 0.0, 0.0, (), kind="linear").to_json())
        argv = ["--model", str(model_path)] if command == "predict" else []
        code, _, err = _run(capsys, [command, *argv, "--data", str(empty)])
        assert code == 2
        assert err == f"error: {empty}: empty file\n"

    def test_quad_cut_without_ridge_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        code, _, _ = _run(capsys, ["fit", "--cut", "quad", "--lambda2", "0",
                                   "--lambda0", "1", "--data", str(data_path)])
        assert code == 3

    def test_quad_cut_with_a_zero_in_the_ridge_grid_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        code, out, err = _run(capsys, ["path", "--cut", "quad", "--lambda2-grid", "0,0.001",
                                       "--lambda0-grid", "1", "--data", str(data_path)])
        assert code == 3
        assert out == ""
        assert "lambda2 > 0" in err

    def test_predict_schema_mismatch_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        model_path = tmp_path / "model.json"
        _run(capsys, ["fit", "--data", str(data_path), "--out", str(model_path),
                      "--lambda0", "0.2"])
        other = tmp_path / "other.csv"
        other.write_text("q1,q2,y\n1.0,2.0,1\n")
        code, _, _ = _run(capsys, ["predict", "--model", str(model_path),
                                   "--data", str(other)])
        assert code == 2


    @pytest.mark.parametrize("kind", ["linear", "scorecard"])
    def test_predict_non_finite_input_exits_2(self, tmp_path, capsys, kind):
        rng = np.random.default_rng(9)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=200, p=4)
        model_path = tmp_path / "model.json"
        argv = ["fit", "--data", str(data_path), "--out", str(model_path)]
        if kind == "linear":
            argv += ["--lambda0", "0.2"]
        else:
            argv += ["--loss", "exponential", "--lambda0", "2", "--binarize",
                     "--max-thresholds", "12"]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(model_path.read_text())["kind"] == kind
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,x3,x4\n0.5,1.5,-0.5,0.25\nnan,inf,-inf,nan\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(bad)])
        assert code == 2
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize("kind,field", [("linear", "lambda2"), ("scorecard", "terms")])
    def test_model_missing_field_exits_2(self, tmp_path, capsys, kind, field):
        model = {"kind": kind, "loss": "logistic", "lambda0": 1.0, "lambda2": 0.0,
                 "intercept": 0.0, "terms": []}
        del model[field]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err == f"error: {model_path}: model file has no {field!r} field\n"
        assert out == ""

    @pytest.mark.parametrize("kind,field,value", [("linear", "terms", 5),
                                                  ("scorecard", "intercept", "abc")])
    def test_model_malformed_field_exits_2(self, tmp_path, capsys, kind, field, value):
        model = {"kind": kind, "loss": "logistic", "lambda0": 1.0, "lambda2": 0.0,
                 "intercept": 0.0, "terms": [], field: value}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err.startswith(f"error: {model_path}: malformed model file (")
        assert out == ""

    def test_model_not_text_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(b"\xff\xfe\x00")
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err.startswith(f"error: {model_path}: malformed model file (")
        assert out == ""

    @pytest.mark.parametrize("op", ["<", "==", None])
    def test_model_unknown_op_exits_2(self, tmp_path, capsys, op):
        # any op but "<=" and ">=" would score as one of them
        model = {"kind": "scorecard", "loss": "logistic", "lambda0": 1.0, "lambda2": 0.0,
                 "intercept": 0.0, "terms": [{"feature": "x1", "op": op, "threshold": 0.0,
                                              "weight": 1.0}]}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err.startswith(f"error: {model_path}: malformed model file (")
        assert out == ""

    @pytest.mark.parametrize("field,number", [("intercept", "NaN"),
                                              ("threshold", "Infinity"),
                                              ("weight", "-Infinity"),
                                              ("lambda0", "1e999")])
    def test_model_non_finite_number_exits_2(self, tmp_path, capsys, field, number):
        # the writer refuses non-finite numbers, so the reader does too
        values = {"lambda0": "1.0", "intercept": "0.5", "threshold": "0.0", "weight": "1.0",
                  field: number}
        model_path = tmp_path / "model.json"
        model_path.write_text(
            '{{"kind": "scorecard", "loss": "logistic", "lambda0": {lambda0}, "lambda2": 0.0, '
            '"intercept": {intercept}, "terms": [{{"feature": "x1", "op": "<=", '
            '"threshold": {threshold}, "weight": {weight}}}]}}'.format(**values))
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err.startswith(f"error: {model_path}: malformed model file (")
        assert out == ""

    def test_predict_duplicate_column_names_exit_2(self, tmp_path, capsys):
        # a second x1 column would silently replace the first
        model_path = tmp_path / "model.json"
        model_path.write_text(sc.Scorecard("logistic", 1.0, 0.0, 0.0,
                                           (ScorecardTerm("x1", None, None, 1.0),),
                                           kind="linear").to_json())
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1,x1\n0.5,2.0\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err == f"error: {data_path}: column names must be distinct\n"
        assert out == ""

    @pytest.mark.parametrize("command,header", [(["fit", "--lambda0", "0.01"], "x1,y,y"),
                                                (["fit", "--lambda0", "0.01"], "x1,x1,y"),
                                                (["path", "--lambda0-grid", "1,0.1"], "x1,y,y")])
    def test_training_duplicate_column_names_exit_2(self, tmp_path, capsys, command, header):
        # a second y column would be read as a feature named y
        data_path = tmp_path / "d.csv"
        rows = ["1,1,1", "-1,-1,-1", "2,1,1", "-2,-1,-1", "0.5,-1,-1", "-0.5,1,1"]
        data_path.write_text("\n".join([header, *rows]) + "\n")
        code, out, err = _run(capsys, [*command, "--data", str(data_path)])
        assert code == 2
        assert err == f"error: {data_path}: column names must be distinct\n"
        assert out == ""

    @pytest.mark.parametrize("command", [["fit", "--lambda0", "nan"],
                                         ["fit", "--lambda0", "inf"],
                                         ["fit", "--lambda2", "nan"],
                                         ["path", "--lambda0-grid", "nan,1"],
                                         ["path", "--lambda0-grid", "2,inf"],
                                         ["path", "--lambda0-grid", "2,1", "--lambda2-grid", "abc"],
                                         ["path", "--lambda0-grid", "2,1", "--lambda2-grid", "nan"]],
                             ids=["fit-lambda0-nan", "fit-lambda0-inf", "fit-lambda2-nan",
                                  "path-lambda0-nan", "path-lambda0-inf", "path-lambda2-abc",
                                  "path-lambda2-nan"])
    def test_bad_penalties_exit_3(self, tmp_path, capsys, command):
        rng = np.random.default_rng(8)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=40, p=4)
        code, out, err = _run(capsys, command + ["--data", str(data_path)])
        assert code == 3
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize("command", [["fit"], ["path", "--lambda0-grid", "1"],
                                         ["bench", "--lambda0-grid", "1"]],
                             ids=["fit", "path", "bench"])
    def test_max_thresholds_without_binarize_exits_3(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # the flag would be ignored; it is refused before the data are read
        from sparseclass import cli

        def read(*args, **kwargs):
            raise AssertionError("the data were read before the flags were checked")

        monkeypatch.setattr(cli, "read_csv", read)
        code, out, err = _run(capsys, [*command, "--data", str(tmp_path / "train.csv"),
                                       "--max-thresholds", "20"])
        assert code == 3
        assert err == "error: --max-thresholds needs --binarize\n"
        assert out == ""

    def test_model_unknown_loss_exits_2(self, tmp_path, capsys):
        # the loss comes from the model file, so it is an input error
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"kind": "linear", "loss": "hinge", "lambda0": 1.0,
                                          "lambda2": 0.0, "intercept": 0.0, "terms": []}))
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err == f"error: {model_path}: unknown loss 'hinge'\n"
        assert out == ""

    @staticmethod
    def _argv(tmp_path, command):
        """``command``'s arguments but ``--out``, on a small training set and
        a one-term model written to ``tmp_path``."""
        rng = np.random.default_rng(10)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=40, p=4)
        model_path = tmp_path / "model.json"
        model_path.write_text(sc.Scorecard("logistic", 1.0, 0.0, 0.0,
                                           (ScorecardTerm("x1", None, None, 1.0),),
                                           kind="linear").to_json())
        data = ["--data", str(data_path)]
        return {
            "fit": ["fit", "--lambda0", "0.5", *data],
            "path": ["path", "--lambda0-grid", "2,1", *data],
            "bench": ["bench", "--lambda0-grid", "2", *data],
            "predict": ["predict", "--model", str(model_path), *data],
            "synth": ["synth", "--n", "20", "--p", "4", "--k", "2"],
        }[command]

    @pytest.mark.parametrize("command", ["fit", "path", "bench", "predict", "synth",
                                         "synth-truth"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        argv = self._argv(tmp_path, command.split("-")[0])
        out_path = tmp_path / "missing" / "out.csv"
        written = out_path
        if command == "synth-truth":
            # the dataset can be written, its sidecar cannot
            out_path = tmp_path / "d.csv"
            written = tmp_path / "d.csv.truth.json"
            written.mkdir()
        code, out, err = _run(capsys, [*argv, "--out", str(out_path)])
        assert code == 2
        assert err.startswith(f"error: cannot write {written}: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("parent", ["missing-dir", "a-file"])
    @pytest.mark.parametrize("command", ["fit", "path", "bench", "predict", "synth"])
    def test_unwritable_output_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command, parent):
        from sparseclass import cli

        def work(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        for name in ("read_csv", "_read_predict_data", "load_model", "gen_classification",
                     "fit_one", "fit_path"):
            monkeypatch.setattr(cli, name, work)
        out_path = tmp_path / parent / "out.csv"
        if parent == "a-file":
            (tmp_path / parent).write_text("")
        with pytest.raises(OSError) as opened:
            open(out_path, "w")
        data = ["--data", str(tmp_path / "train.csv")]
        argv = {
            "fit": ["fit", *data],
            "path": ["path", "--lambda0-grid", "2,1", *data],
            "bench": ["bench", "--lambda0-grid", "2", *data],
            "predict": ["predict", "--model", str(tmp_path / "model.json"), *data],
            "synth": ["synth"],
        }[command]
        code, out, err = _run(capsys, [*argv, "--out", str(out_path)])
        assert code == 2
        assert err == f"error: cannot write {out_path}: {opened.value.strerror}\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["fit", "path", "predict", "synth"])
    def test_closed_stdout_exits_2(self, tmp_path, capsys, monkeypatch, command):
        class ClosedStdout(io.TextIOBase):
            # a pipe whose reader has gone, as ``... | head -c 1`` leaves it
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        argv = self._argv(tmp_path, command)
        if command == "synth":
            argv += ["--out", str(tmp_path / "d.csv")]
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.parametrize("kind,change", [
        ("linear", {"weight": True}),
        ("scorecard", {"weight": "1.5"}),
        ("scorecard", {"threshold": True}),
        ("linear", {"intercept": True}),
        ("linear", {"lambda0": True}),
        ("scorecard", {"lambda2": False}),
        ("linear", {"feature": 1.0}),
        ("scorecard", {"feature": None}),
        ("linear", {"second": "x1"}),
    ], ids=["weight-true", "weight-string", "threshold-true", "intercept-true",
            "lambda0-true", "lambda2-false", "feature-number", "feature-null",
            "linear-repeated-feature"])
    def test_model_wrong_type_or_repeated_feature_exits_2(self, tmp_path, capsys, kind,
                                                          change):
        term = {"feature": "x1", "weight": 1.0}
        if kind == "scorecard":
            term.update(op="<=", threshold=0.0)
        model = {"kind": kind, "loss": "logistic", "lambda0": 1.0, "lambda2": 0.0,
                 "intercept": 0.0, "terms": [term]}
        for field, value in change.items():
            if field == "second":
                model["terms"].append({"feature": value, "weight": 2.0})
            elif field in term:
                term[field] = value
            else:
                model[field] = value
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n0.5\n")
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert code == 2
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1
        assert out == ""

    def test_byte_order_mark_is_no_part_of_a_name(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        plain = tmp_path / "plain.csv"
        _write_dataset(plain, rng, n=60, p=4)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_csv(str(marked)).feature_names == read_csv(str(plain)).feature_names
        model_path = tmp_path / "model.json"
        code, _, _ = _run(capsys, ["fit", "--lambda0", "0.2", "--data", str(marked),
                                   "--out", str(model_path)])
        assert code == 0
        outputs = []
        for data_path in (plain, marked):
            code, out, _ = _run(capsys, ["predict", "--model", str(model_path),
                                         "--data", str(data_path)])
            assert code == 0
            outputs.append(out.encode())
        assert outputs[0] == outputs[1]


def _reference_predict(model, data_path) -> str:
    """``predict`` output rebuilt from a parse of every column of the file:
    score, probability and label of each row, each value written by
    ``_fmt``."""
    from sparseclass.cli import _fmt
    header = data_path.read_text().splitlines()[0].split(",")
    raw = np.loadtxt(data_path, delimiter=",", skiprows=1, ndmin=2)
    scores = model.score_rows({name: raw[:, i] for i, name in enumerate(header)})
    probs = sc.probability_from_scores(scores, model.loss)
    rows = [f"{_fmt(s)},{_fmt(p)},{1 if s >= 0.0 else -1}" for s, p in zip(scores, probs)]
    return "\n".join(["score,probability,label", *rows]) + "\n"


class TestPredictColumns:
    """``predict`` parses only the columns its model reads, after one check
    of the whole file."""

    # reads x1 only
    X1_CARD = sc.Scorecard("logistic", 1.0, 0.0, -0.25,
                           (ScorecardTerm("x1", "<=", 0.0, 1.5),), kind="scorecard")
    PLAIN = "x1,x2,x3,y\n0.5,1.5,-2,1\n-0.25,2.5,3e-3,-1\n1e2,-0.0,4,1\n"
    MODELS = {
        "linear": sc.Scorecard("logistic", 1.0, 0.0, 0.25,
                               (ScorecardTerm("x2", None, None, 1.5),
                                ScorecardTerm("x4", None, None, -0.75)), kind="linear"),
        "scorecard": sc.Scorecard("exponential", 1.0, 0.0, -0.125,
                                  (ScorecardTerm("x1", "<=", 0.3, 0.5),
                                   ScorecardTerm("x1", "<=", -0.4, 0.25),
                                   ScorecardTerm("x4", ">=", -0.2, -1.25)), kind="scorecard"),
        "no-terms": sc.Scorecard("logistic", 1.0, 0.0, 0.5, (), kind="linear"),
    }
    LAYOUTS = {
        "features": ["x1", "x2", "x3", "x4", "x5"],
        "with-y": ["x1", "x2", "x3", "x4", "x5", "y"],
        "permuted": ["y", "x4", "x1", "x5", "x3", "x2"],
        "extra": ["z1", "x1", "x2", "z2", "x3", "x4", "x5", "y"],
    }

    def _predict(self, capsys, tmp_path, model, text):
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        data_path = tmp_path / "x.csv"
        data_path.write_bytes(text.encode("latin-1"))  # one byte per character
        return _run(capsys, ["predict", "--model", str(model_path), "--data", str(data_path)])

    @pytest.mark.parametrize("row,message", [
        ("-0.25,2.5,-1", "malformed numeric data"),     # x3 missing
        ("-0.25,2.5,3e-3,-1,7", "row width does not match header"),
        ("-0.25,nan,3e-3,-1", "line 3: non-finite value 'nan'"),
        ("-0.25,2.5,-inf,-1", "line 3: non-finite value '-inf'"),
        ("-0.25,abc,3e-3,-1", "line 3: malformed numeric data 'abc'"),
        ("1e999,2.5,3e-3,-1", "non-finite values (nan or inf)"),
        ("nan,2.5,3e-3,-1", "line 3: non-finite value 'nan'"),
        ("# 1,2,3,4", "line 3: malformed numeric data '# 1'"),
    ], ids=["short", "long", "nan-unread", "inf-unread", "abc-unread", "1e999-read",
            "nan-read", "comment"])
    def test_bad_row_exits_2(self, tmp_path, capsys, row, message):
        lines = self.PLAIN.splitlines()
        lines[2] = row
        code, out, err = self._predict(capsys, tmp_path, self.X1_CARD, "\n".join(lines) + "\n")
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'x.csv'}: ") and err.count("\n") == 1
        assert message in err
        assert out == ""

    def test_header_without_rows_exits_2(self, tmp_path, capsys):
        code, out, err = self._predict(capsys, tmp_path, self.X1_CARD, "x1,x2,x3,y\n\n")
        assert code == 2
        assert err == f"error: {tmp_path / 'x.csv'}: no data rows\n"
        assert out == ""

    def test_header_not_utf8_exits_2(self, tmp_path, capsys):
        code, out, err = self._predict(capsys, tmp_path, self.X1_CARD, "x1,\xff\n1,2\n")
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'x.csv'}: header is not UTF-8 text (")
        assert out == ""

    def _read_with(self, capsys, tmp_path, command, text):
        """Run ``fit`` or ``predict`` (with ``X1_CARD``) on a file holding
        ``text``; returns the exit code, stdout, stderr and the file."""
        data_path = tmp_path / "d.csv"
        data_path.write_text(text)
        if command == "fit":
            argv = ["fit", "--lambda0", "0.01", "--data", str(data_path)]
        else:
            model_path = tmp_path / "model.json"
            model_path.write_text(self.X1_CARD.to_json())
            argv = ["predict", "--model", str(model_path), "--data", str(data_path)]
        return (*_run(capsys, argv), data_path)

    @pytest.mark.parametrize("blank", ["  ", "\t", " \t \r"])
    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_line_of_spaces_is_malformed(self, tmp_path, capsys, command, blank):
        code, out, err, data_path = self._read_with(capsys, tmp_path, command,
                                                    f"x1,y\n1,1\n{blank}\n-1,-1\n")
        assert code == 2
        text = blank.rstrip("\r")
        assert err == f"error: {data_path}: line 3: malformed numeric data {text!r}\n"
        assert out == ""

    @pytest.mark.parametrize("first,second,message", [
        ("  ", "nan,-1", "malformed numeric data '  '"),
        ("nan,-1", "\t", "non-finite value 'nan'"),
        ("1,abc", " ", "malformed numeric data 'abc'"),
    ], ids=["spaces-then-nan", "nan-then-tab", "abc-then-space"])
    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_the_earlier_of_two_bad_lines_is_named(self, tmp_path, capsys, command, first,
                                                    second, message):
        # a line of spaces and a line with a non-number byte: whichever
        # comes first is reported, whatever its kind
        code, out, err, data_path = self._read_with(
            capsys, tmp_path, command, f"x1,y\n1,1\n{first}\n-1,-1\n{second}\n2,1\n")
        assert code == 2
        assert err == f"error: {data_path}: line 3: {message}\n"
        assert out == ""

    def test_comment_line_is_malformed_in_training_data(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("x1,y\n1,1\n-1,-1\n# a comment\n2,1\n-2,-1\n")
        code, out, err = _run(capsys, ["fit", "--lambda0", "0.01", "--data", str(data_path)])
        assert code == 2
        assert err == f"error: {data_path}: line 4: malformed numeric data '# a comment'\n"
        assert out == ""

    @pytest.mark.parametrize("text", [
        PLAIN.replace("\n", "\n\n"),
        PLAIN.replace("\n", "\r\n"),
        PLAIN.replace("\n", "\r\n\r\n"),
        PLAIN.rstrip("\n"),
    ], ids=["blank-lines", "crlf", "crlf-blank-lines", "no-final-newline"])
    def test_line_endings_keep_the_output(self, tmp_path, capsys, text):
        code, want, _ = self._predict(capsys, tmp_path, self.X1_CARD, self.PLAIN)
        assert code == 0
        assert self._predict(capsys, tmp_path, self.X1_CARD, text) == (0, want, "")

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_output_matches_a_parse_of_every_column(self, tmp_path, capsys, kind, layout):
        from sparseclass.cli import _fmt
        names = self.LAYOUTS[layout]
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, len(names)))
        x[::7, 1] = -0.0
        text = "\n".join([",".join(names), *(",".join(_fmt(v) for v in row) for row in x)])
        model = self.MODELS[kind]
        code, out, err = self._predict(capsys, tmp_path, model, text + "\n")
        assert (code, err) == (0, "")
        assert out == _reference_predict(model, tmp_path / "x.csv")

    def test_readme_card_on_its_raw_csv(self, tmp_path, capsys):
        raw_path, card_path = tmp_path / "raw.csv", tmp_path / "card.json"
        code, _, _ = _run(capsys, ["synth", "--n", "1000", "--p", "25", "--k", "5",
                                   "--rho", "0.5", "--seed", "3", "--out", str(raw_path)])
        assert code == 0
        code, _, _ = _run(capsys, ["fit", "--data", str(raw_path), "--loss", "exponential",
                                   "--lambda0", "5", "--binarize", "--max-thresholds", "200",
                                   "--out", str(card_path)])
        assert code == 0
        card = sc.Scorecard.from_json(card_path.read_text())
        assert 0 < len({t.feature for t in card.terms}) < 25
        code, out, _ = _run(capsys, ["predict", "--model", str(card_path),
                                     "--data", str(raw_path)])
        assert code == 0
        assert out == _reference_predict(card, raw_path)


def _per_row_predict(scores, loss) -> str:
    """``predict`` output with every row formatted on its own, as by
    ``_format_rows`` over all rows."""
    from sparseclass.cli import _format_rows
    probs = sc.probability_from_scores(scores, loss)
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    rows = _format_rows("%.17g,%.17g,%d", (scores, probs, labels))
    return "\n".join(["score,probability,label", *rows]) + "\n"


class TestPredictDistinctScores:
    """``predict`` formats each distinct score once; its output must be
    that of formatting every row on its own, byte for byte."""

    def _check(self, capsys, tmp_path, model, columns):
        names = list(columns)
        x = np.column_stack([columns[name] for name in names])
        data_path, model_path = tmp_path / "x.csv", tmp_path / "model.json"
        data_path.write_text("\n".join([",".join(names), *(",".join(repr(float(v)) for v in row)
                                                           for row in x)]) + "\n")
        model_path.write_text(model.to_json())
        code, out, err = _run(capsys, ["predict", "--model", str(model_path),
                                       "--data", str(data_path)])
        assert (code, err) == (0, "")
        scores = model.score_rows(columns)
        assert out == _per_row_predict(scores, model.loss)
        return scores

    def test_scorecard_with_repeated_scores(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        columns = {"a": rng.integers(0, 5, 2000) * 0.5, "b": rng.standard_normal(2000)}
        card = sc.Scorecard("exponential", 1.0, 0.0, -0.1,
                            (ScorecardTerm("a", "<=", 1.0, 0.3),
                             ScorecardTerm("a", "<=", 0.5, -0.7),
                             ScorecardTerm("b", ">=", 0.2, 1.1)), kind="scorecard")
        scores = self._check(capsys, tmp_path, card, columns)
        assert np.unique(scores).size <= 6

    def test_linear_model_with_distinct_scores(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        columns = {"a": rng.standard_normal(500), "b": rng.standard_normal(500)}
        model = sc.Scorecard("logistic", 1.0, 0.0, 0.25,
                             (ScorecardTerm("a", None, None, 1.5),
                              ScorecardTerm("b", None, None, -0.75)), kind="linear")
        scores = self._check(capsys, tmp_path, model, columns)
        assert np.unique(scores).size == scores.size

    def test_card_without_terms(self, tmp_path, capsys):
        columns = {"a": np.arange(7.0), "y": np.ones(7)}
        model = sc.Scorecard("logistic", 1.0, 0.0, -0.5, (), kind="linear")
        self._check(capsys, tmp_path, model, columns)

    def test_zero_and_negative_zero_stay_apart(self, tmp_path, capsys):
        # with intercept -0.0, a weight of -1 scores 0.0 as -0.0 and -0.0
        # as 0.0
        columns = {"a": np.array([0.0, 1.0, 0.0, -0.0, 2.0, 0.0])}
        model = sc.Scorecard("logistic", 1.0, 0.0, -0.0,
                             (ScorecardTerm("a", None, None, -1.0),), kind="linear")
        scores = self._check(capsys, tmp_path, model, columns)
        bits = set(scores.view(np.int64).tolist())
        assert {np.float64(0.0).view(np.int64), np.float64(-0.0).view(np.int64)} <= bits


class TestPathCommand:
    def test_reference_grid_row_count(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=80, p=4)
        out_path = tmp_path / "path.csv"
        code, _, _ = _run(capsys, [
            "path", "--data", str(data_path), "--out", str(out_path),
            "--lambda0-grid", "0.8,1,2,3,4,5,6,7",
            "--lambda2-grid", "0.00001,0.001",
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 16
        header = lines[0].split(",")
        assert header == ["lambda0", "lambda2", "support_size", "objective",
                          "train_auc", "wall_ms", "swap_evals", "cut_prunes", "error",
                          "candidates", "line_searches", "cap_hits", "sweeps", "solves",
                          "deletions", "swaps"]

    def test_rows_carry_fit_counters(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=100, p=6)
        out_path = tmp_path / "path.csv"
        code, _, _ = _run(capsys, [
            "path", "--data", str(data_path), "--out", str(out_path),
            "--lambda0-grid", "0.5,2", "--lambda2-grid", "0.001",
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        data = read_csv(str(data_path))
        spec = sc.PathSpec(lambda0_grid=(2.0, 0.5), lambda2_grid=(0.001,))
        for row, entry in zip(rows, sc.fit_path(data, spec).entries):
            for name in _FIT_STATS_FIELDS:
                assert int(row[name]) == getattr(entry, name)
        assert sum(int(r["candidates"]) for r in rows) > 0

    def test_error_rows_carry_fit_counters(self, tmp_path, capsys, monkeypatch):
        from sparseclass import path

        def failing(data, hp, stats=None, **kwargs):
            stats.cap_hits += 1
            raise FloatingPointError("boom")

        monkeypatch.setattr(path, "fit_one", failing)
        rng = np.random.default_rng(13)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=60, p=4)
        out_path = tmp_path / "path.csv"
        code, _, _ = _run(capsys, ["path", "--data", str(data_path), "--out", str(out_path),
                                   "--lambda0-grid", "1"])
        assert code == 0
        header, row = out_path.read_text().strip().splitlines()
        row = dict(zip(header.split(","), row.split(",")))
        assert row["objective"] == ""
        assert row["error"].endswith("boom")
        assert (row["candidates"], row["line_searches"], row["cap_hits"]) == ("0", "0", "1")
        assert (row["sweeps"], row["solves"]) == ("0", "0")
        expected = dataclasses.replace(sc.FitStats(), cap_hits=1)
        for name in _FIT_STATS_FIELDS:
            assert row[name] == str(getattr(expected, name)), name

    def test_single_point_matches_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        code, fit_out, _ = _run(capsys, [
            "fit", "--data", str(data_path), "--lambda0", "0.5",
            "--lambda2", "0.001",
        ])
        assert code == 0
        fit_obj = json.loads(fit_out)["objective"]
        out_path = tmp_path / "path.csv"
        code, _, _ = _run(capsys, [
            "path", "--data", str(data_path), "--out", str(out_path),
            "--lambda0-grid", "0.5", "--lambda2-grid", "0.001",
        ])
        assert code == 0
        row = out_path.read_text().strip().splitlines()[1].split(",")
        assert float(row[3]) == fit_obj


class TestBenchCommand:
    def test_ablation_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=150, p=6, binary=True)
        out_path = tmp_path / "bench.csv"
        code, _, _ = _run(capsys, [
            "bench", "--data", str(data_path), "--out", str(out_path),
            "--lambda0-grid", "1,3", "--lambda2", "0.001",
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        # {lin,quad} x {sequential,dynamic} x 2 grid points + exp x 2 x 2
        assert len(rows) == 12
        cells = {(r["loss"], r["cut"], r["ordering"]) for r in rows}
        assert ("logistic", "lin", "dynamic") in cells
        assert ("logistic", "quad", "sequential") in cells
        assert ("exponential", "auto", "dynamic") in cells
        # same loss, same grid point: objectives agree across configurations
        for lam0 in ("1", "3"):
            objs = [float(r["objective"]) for r in rows
                    if r["loss"] == "logistic" and float(r["lambda0"]) == float(lam0)]
            assert max(objs) - min(objs) <= 1e-6
        # quadratic bounds prune at least as much as linear ones
        quad_prunes = sum(int(r["cut_prunes"]) for r in rows if r["cut"] == "quad")
        lin_prunes = sum(int(r["cut_prunes"]) for r in rows if r["cut"] == "lin")
        assert quad_prunes >= lin_prunes

    def test_rows_carry_fit_counters(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=100, p=5)
        out_path = tmp_path / "bench.csv"
        code, _, _ = _run(capsys, ["bench", "--data", str(data_path), "--out", str(out_path),
                                   "--lambda0-grid", "1"])
        assert code == 0
        header, *lines = out_path.read_text().strip().splitlines()
        header = header.split(",")
        assert header == ["loss", "cut", "ordering", "lambda0", "lambda2", "objective",
                          "support_size", "wall_ms", "swap_evals", "cut_prunes",
                          "candidates", "line_searches", "cap_hits", "sweeps", "solves",
                          "error", "deletions", "swaps"]
        rows = [dict(zip(header, ln.split(","))) for ln in lines]
        assert len(rows) == 2 and all(len(ln.split(",")) == len(header) for ln in lines)
        assert all(int(r["candidates"]) >= int(r["line_searches"]) >= 0 for r in rows)
        assert all(int(r["cap_hits"]) >= 0 for r in rows)
        assert all(r["error"] == "" for r in rows)
        data = read_csv(str(data_path))
        spec = sc.PathSpec(lambda0_grid=(1.0,))
        for row, ordering in zip(rows, ("sequential", "dynamic")):
            entry, = sc.fit_path(data, spec, ordering=ordering, cut="lin").entries
            for name in _FIT_STATS_FIELDS:
                assert int(row[name]) == getattr(entry, name), name

    def test_error_rows_say_why(self, tmp_path, capsys, monkeypatch):
        from sparseclass import path

        def failing(data, hp, stats=None, **kwargs):
            stats.cap_hits += 1
            raise FloatingPointError("boom, twice")

        monkeypatch.setattr(path, "fit_one", failing)
        rng = np.random.default_rng(13)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng, n=60, p=4)
        out_path = tmp_path / "bench.csv"
        code, _, _ = _run(capsys, ["bench", "--data", str(data_path), "--out", str(out_path),
                                   "--lambda0-grid", "1"])
        assert code == 0
        header, *lines = out_path.read_text().strip().splitlines()
        rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
        assert len(rows) == 2 and all(len(ln.split(",")) == len(rows[0]) for ln in lines)
        for row in rows:
            assert row["error"].endswith("boom; twice")
            assert (row["support_size"], row["objective"]) == ("", "")
            assert row["cap_hits"] == "1"


class TestFlags:
    @pytest.mark.parametrize("command", [
        ["fit"], ["path", "--lambda0-grid", "1"], ["bench", "--lambda0-grid", "1"]])
    def test_seed_only_on_synth(self, command):
        from sparseclass.cli import build_parser
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--data", "d.csv", "--seed", "1"])
        assert parser.parse_args(["synth", "--out", "x.csv", "--seed", "1"]).seed == 1

    @pytest.mark.parametrize("flag", [["--loss", "exponential"], ["--cut", "quad"],
                                      ["--ordering", "sequential"]])
    def test_solver_flags_not_on_bench(self, flag):
        # bench runs every loss, cut and ordering; fit and path take one.
        from sparseclass.cli import build_parser
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--lambda0-grid", "1", "--data", "d.csv", *flag])
        for command in (["fit"], ["path", "--lambda0-grid", "1"]):
            args = parser.parse_args(command + ["--data", "d.csv", *flag])
            assert getattr(args, flag[0][2:]) == flag[1]


class TestSynthCommand:
    def test_defaults_match_reference_setting(self):
        from sparseclass.cli import build_parser
        args = build_parser().parse_args(["synth", "--out", "x.csv"])
        assert (args.n, args.p, args.k, args.rho) == (960, 1000, 25, 0.9)

    def test_reproducible_and_sidecar(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["synth", "--n", "60", "--p", "10", "--k", "2", "--rho", "0.5",
                "--seed", "42"]
        code, _, _ = _run(capsys, args + ["--out", str(out1)])
        assert code == 0
        code, _, _ = _run(capsys, args + ["--out", str(out2)])
        assert code == 0
        assert out1.read_text() == out2.read_text()
        truth = json.loads((tmp_path / "a.csv.truth.json").read_text())
        assert len(truth["indices"]) == truth["k"] == 2

    def test_output_loads_as_training_data(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        _run(capsys, ["synth", "--n", "50", "--p", "6", "--k", "2",
                      "--rho", "0.5", "--seed", "1", "--out", str(out)])
        code, fit_out, _ = _run(capsys, ["fit", "--data", str(out),
                                         "--lambda0", "0.5", "--lambda2", "0.001"])
        assert code == 0
        assert json.loads(fit_out)["support_size"] >= 0


class TestCsvWriters:
    # signed zeros, the smallest subnormal, near-overflow, integral floats
    # and values that need all 17 digits
    EDGE = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -2.0, 2.0 ** 53, 0.1, 1.0 / 3.0,
            -123456789.0)

    def test_features_read_back_bit_for_bit(self):
        # every value under both labels
        x = np.tile(np.array(self.EDGE).reshape(4, 3), (2, 1))
        y = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        assert [k for k, v in vars(data).items() if np.ndim(v) == 2] == ["signed"]
        assert data.signed.tobytes(order="F") == (y[:, None] * x).tobytes(order="F")
        for back in (data, sc.DesignMatrix(data.signed, data.y, data.feature_names)):
            assert back.x.flags.f_contiguous and not back.x.flags.writeable
            assert back.x.tobytes(order="F") == x.tobytes(order="F")
            for j in range(3):
                assert back.column(j).tobytes() == x[:, j].tobytes()

    def test_write_csv_matches_the_per_value_format(self, tmp_path, monkeypatch):
        from sparseclass import cli
        x = np.array(self.EDGE).reshape(4, 3)
        y = np.array([1.0, -1.0, -1.0, 1.0])
        monkeypatch.setattr(cli, "WRITE_BATCH_ROWS", 3)  # full batches and a partial one
        path = tmp_path / "d.csv"
        cli.write_csv(str(path), sc.DesignMatrix.from_arrays(x, y, ["a", "b", "c"]))
        want = "a,b,c,y\n" + "".join(
            ",".join(cli._fmt(v) for v in [*x[i], y[i]]) + "\n" for i in range(4))
        assert path.read_text() == want

    def test_predict_output_matches_the_per_value_format(self, tmp_path, capsys, monkeypatch):
        from sparseclass import cli
        monkeypatch.setattr(cli, "WRITE_BATCH_ROWS", 5)
        # weight 1 and intercept -0.0 make each score its input value exactly
        model_path = tmp_path / "model.json"
        model_path.write_text(sc.Scorecard("logistic", 1.0, 0.0, -0.0,
                                           (ScorecardTerm("x1", None, None, 1.0),),
                                           kind="linear").to_json())
        data_path = tmp_path / "x.csv"
        data_path.write_text("x1\n" + "".join(cli._fmt(v) + "\n" for v in self.EDGE))
        code, out, _ = _run(capsys, ["predict", "--model", str(model_path),
                                     "--data", str(data_path)])
        assert code == 0
        scores = np.array(self.EDGE)
        probs = sc.probability_from_scores(scores, "logistic")
        labels = np.where(scores >= 0.0, 1.0, -1.0)
        want = ["score,probability,label"] + [
            f"{cli._fmt(s)},{cli._fmt(p)},{int(lb)}" for s, p, lb in zip(scores, probs, labels)]
        assert out == "\n".join(want) + "\n"
        assert out.splitlines()[1].startswith("-0,0.5,1")  # the sign of zero survives
