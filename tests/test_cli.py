"""Command-line interface tests (subcommands invoked in-process)."""

import json

import numpy as np
import pytest

import sparseclass as sc
from sparseclass.cli import main


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

    def test_quad_cut_without_ridge_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data_path = tmp_path / "train.csv"
        _write_dataset(data_path, rng)
        code, _, _ = _run(capsys, ["fit", "--cut", "quad", "--lambda2", "0",
                                   "--lambda0", "1", "--data", str(data_path)])
        assert code == 3

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
                          "train_auc", "wall_ms", "swap_evals", "cut_prunes", "error"]

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


class TestFlags:
    @pytest.mark.parametrize("command", [
        ["fit"], ["path", "--lambda0-grid", "1"], ["bench", "--lambda0-grid", "1"]])
    def test_seed_only_on_synth(self, command):
        from sparseclass.cli import build_parser
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--data", "d.csv", "--seed", "1"])
        assert parser.parse_args(["synth", "--out", "x.csv", "--seed", "1"]).seed == 1


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
