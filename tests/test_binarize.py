"""Threshold expansion and scorecard tests."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseclass as sc
from sparseclass.core import EPS, ThresholdIndex, engine
from sparseclass.binarize import ScorecardTerm, dump_json
from oracles import (d_minus, exp_coordinate_update, grad_j, reference_binarize,
                     reference_signed_products, threshold_step)


def _toy(values, y=None):
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    if y is None:
        y = np.where(np.arange(values.shape[0]) % 2 == 0, 1.0, -1.0)
    return sc.DesignMatrix.from_arrays(values, y, ["a"])


class TestBinarize:
    def test_distinct_values_become_thresholds(self):
        data = _toy([3.0, 1.0, 3.0, 7.0])
        out, idx = sc.binarize(data, direction="<=", encoding="0/1")
        assert out.p == 3
        assert idx.thresholds.tolist() == [1.0, 3.0, 7.0]
        col = out.column(1)  # theta = 3
        assert col.tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_constant_feature_contributes_nothing(self):
        x = np.column_stack([np.full(4, 2.0), [1.0, 2.0, 3.0, 4.0]])
        data = sc.DesignMatrix.from_arrays(x, [1, -1, 1, -1], ["const", "varies"])
        out, idx = sc.binarize(data)
        assert idx.names == ("varies",)
        assert idx.feature.tolist() == [0, 0, 0, 0]
        assert out.p == 4  # only the varying feature expands

    def test_empty_dataset_rejected(self):
        data = sc.DesignMatrix.from_arrays(np.empty((0, 1)), np.empty(0))
        with pytest.raises(sc.DataError):
            sc.binarize(data)

    def test_monotone_containment(self):
        rng = np.random.default_rng(2)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((30, 2)),
                                           np.where(rng.random(30) < 0.5, 1.0, -1.0))
        out, idx = sc.binarize(data, direction="<=", encoding="0/1")
        for c1 in range(out.p - 1):
            if idx.feature[c1] == idx.feature[c1 + 1]:
                assert np.all(out.column(c1) <= out.column(c1 + 1))

    def test_risk_score_style_thresholds_present(self):
        rng = np.random.default_rng(3)
        vals = np.concatenate([[63.0, 70.0, 74.0, 83.0], rng.integers(50, 95, size=40).astype(float)])
        data = sc.DesignMatrix.from_arrays(vals.reshape(-1, 1),
                                           np.where(rng.random(44) < 0.5, 1.0, -1.0),
                                           ["ExternalRiskEstimate"])
        out, idx = sc.binarize(data)
        ths = set(idx.thresholds.tolist())
        assert {63.0, 70.0, 74.0, 83.0} <= ths
        assert "ExternalRiskEstimate<=63.0" in out.feature_names

    def test_quantile_capping(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(500)
        data = sc.DesignMatrix.from_arrays(col.reshape(-1, 1),
                                           np.where(rng.random(500) < 0.5, 1.0, -1.0))
        out, idx = sc.binarize(data, max_thresholds=20)
        ths = idx.thresholds.tolist()
        assert len(ths) <= 20
        assert all(b > a for a, b in zip(ths, ths[1:]))
        assert set(ths) <= set(col.tolist())  # realized values only

    def test_plus_minus_encoding_is_binary(self):
        data = _toy([3.0, 1.0, 3.0, 7.0])
        out, _ = sc.binarize(data, encoding="-1/+1")
        assert out.binary
        assert set(np.unique(out.x)) <= {-1.0, 1.0}

    def test_ge_direction(self):
        data = _toy([3.0, 1.0, 3.0, 7.0])
        out, _ = sc.binarize(data, direction=">=", encoding="0/1")
        col = out.column(1)  # theta = 3
        assert col.tolist() == [1.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("max_thresholds", [None, 1, 3, 200])
    @pytest.mark.parametrize("encoding", ["0/1", "-1/+1"])
    @pytest.mark.parametrize("direction", ["<=", ">="])
    def test_matches_the_per_threshold_oracle(self, direction, encoding, max_thresholds):
        rng = np.random.default_rng(19)
        n = 300
        x = np.column_stack([
            rng.standard_normal(n),                          # all values distinct
            rng.integers(0, 6, size=n).astype(float),        # heavy ties
            np.full(n, 2.5),                                 # constant
            np.round(rng.standard_normal(n), 1) * 1e-3,      # ties, -0.0 and 0.0
            np.where(rng.random(n) < 0.5, -1.0, 1.0),        # two values
        ])
        data = sc.DesignMatrix.from_arrays(x, np.where(rng.random(n) < 0.5, 1.0, -1.0),
                                           ["a", "b", "c", "d", "e"])
        got, idx = sc.binarize(data, direction=direction, encoding=encoding,
                               max_thresholds=max_thresholds)
        want, want_dummies = reference_binarize(data, direction, encoding, max_thresholds)
        assert got.x.dtype == want.x.dtype == np.float64
        assert got.x.flags.f_contiguous
        assert got.x.shape == want.x.shape
        assert got.x.tobytes(order="F") == want.x.tobytes(order="F")
        assert got.feature_names == want.feature_names
        assert got.y.tobytes() == want.y.tobytes()
        assert idx is got.threshold_index
        assert [(idx.names[f], t) for f, t in zip(idx.feature, idx.thresholds)] == want_dummies
        assert idx.direction == direction
        assert idx.plus_minus == (encoding == "-1/+1")


class TestOneDesignArray:
    def test_binarize_and_fit_hold_one_design_array(self):
        # the README scorecard fit: 1000 rows, 5000 -1/+1 dummies
        raw, _ = sc.gen_classification(sc.SynthSpec(n=1000, p=25, k=5, rho=0.5, seed=3))
        tracemalloc.start()
        try:
            out, _ = sc.binarize(raw, direction="<=", encoding="-1/+1", max_thresholds=200)
            state = sc.fit_one(out, sc.HyperParams(lambda0=5.0, loss="exponential"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.n, out.p) == (1000, 5000) and state.support
        assert [k for k, v in vars(out).items() if np.ndim(v) == 2] == ["signed"]
        # one n x p array of 8-byte floats, and less than half of another
        assert peak < 1.5 * out.n * out.p * 8


def _mixed(n, seed=19):
    """Raw columns of every kind that binarize meets: distinct values, heavy
    ties, a constant, ties with -0.0 and 0.0, and two values."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([
        rng.standard_normal(n),
        rng.integers(0, 6, size=n).astype(float),
        np.full(n, 2.5),
        np.round(rng.standard_normal(n), 1) * 1e-3,
        np.where(rng.random(n) < 0.5, -1.0, 1.0),
    ])
    return sc.DesignMatrix.from_arrays(x, np.where(rng.random(n) < 0.5, 1.0, -1.0),
                                       ["a", "b", "c", "d", "e"])


CONFIGS = [(direction, encoding, max_thresholds)
           for direction in ("<=", ">=") for encoding in ("0/1", "-1/+1")
           for max_thresholds in (None, 1, 3, 200)]


class TestSignedProducts:
    @pytest.mark.parametrize("n", [1, 2, 300])
    @pytest.mark.parametrize("direction,encoding,max_thresholds", CONFIGS)
    def test_matches_the_exact_sums_within_the_stated_bound(self, direction, encoding,
                                                            max_thresholds, n):
        data = _mixed(n)
        out, _ = sc.binarize(data, direction=direction, encoding=encoding,
                             max_thresholds=max_thresholds)
        assert out.threshold_index is not None
        rng = np.random.default_rng(n)
        for v in (np.exp(rng.standard_normal(n)),                       # weights, as find_swap
                  rng.standard_normal(n) * np.exp(4 * rng.standard_normal(n))):
            got = out.signed_products(v)
            want = reference_signed_products(out, v)
            assert got.shape == want.shape == (out.p,)
            # the docstring's 3 n EPS sum|v|, plus the oracle's one rounding
            bound = (3 * n + 1) * EPS * float(np.abs(v).sum())
            assert np.all(np.abs(got - want) <= bound)
            full = out.threshold_index.prefix == n
            assert np.unique(got[full]).size <= 1  # columns of ones tie exactly
        if n == 1:
            assert out.p == 0  # every feature is constant

    def test_a_copy_without_the_index_takes_the_matrix_product(self):
        out, _ = sc.binarize(_mixed(300), encoding="-1/+1", max_thresholds=200)
        copy = sc.DesignMatrix.from_arrays(out.x, out.y, out.feature_names)
        assert copy.threshold_index is None
        v = np.exp(np.random.default_rng(3).standard_normal(300))
        assert copy.signed_products(v).tobytes() == (copy.signed.T @ v).tobytes()

    @pytest.mark.parametrize("direction,encoding,max_thresholds", CONFIGS)
    def test_column_slices_read_the_full_products(self, direction, encoding, max_thresholds):
        out, _ = sc.binarize(_mixed(300), direction=direction, encoding=encoding,
                             max_thresholds=max_thresholds)
        copy = sc.DesignMatrix.from_arrays(out.x, out.y, out.feature_names)
        v = np.exp(np.random.default_rng(5).standard_normal(300))
        full = out.signed_products(v)
        groups = np.flatnonzero(np.diff(out.threshold_index.feature)) + 1
        for a, b in [(0, out.p), (0, 0), (out.p // 3, out.p // 3 + 9), (1, out.p - 1),
                     *zip([0, *groups], [*groups, out.p])]:
            cols = slice(a, b)
            assert out.signed_products(v, cols).tobytes() == full[cols].tobytes()
            want = copy.signed[:, cols].T @ v
            assert copy.signed_products(v, cols).tobytes() == want.tobytes()
        assert copy.prefix_sum_allowance(v) == 0.0
        assert out.prefix_sum_allowance(v) == EPS * (4 * 300 + 16) * float(v.sum())

    def test_the_index_is_locked_and_checked(self):
        out, _ = sc.binarize(_mixed(40), direction=">=", encoding="-1/+1")
        idx = out.threshold_index
        for a in (idx.order, idx.feature, idx.prefix, idx.thresholds):
            assert not a.flags.writeable
        assert "threshold_index" not in repr(out)
        bad = [dict(order=idx.order[:, 1:]), dict(prefix=idx.prefix[1:]),
               dict(prefix=np.zeros_like(idx.prefix)), dict(feature=idx.feature + 99),
               dict(feature=idx.feature[::-1]), dict(thresholds=idx.thresholds[1:]),
               dict(thresholds=idx.thresholds[::-1]), dict(names=idx.names[1:]),
               dict(direction="<")]
        for change in bad:
            fields = dict(order=idx.order, feature=idx.feature, prefix=idx.prefix,
                          plus_minus=True, direction=">=", names=idx.names,
                          thresholds=idx.thresholds) | change
            with pytest.raises(sc.DataError):
                sc.DesignMatrix(out.x, out.y, out.feature_names, ThresholdIndex(**fields))

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("direction,encoding,max_thresholds", CONFIGS)
    def test_binary_equals_a_scan(self, direction, encoding, max_thresholds, n):
        out, _ = sc.binarize(_mixed(n), direction=direction, encoding=encoding,
                             max_thresholds=max_thresholds)
        assert out.binary == bool(np.all(np.abs(out.x) == 1.0))


SCREEN_CASES = [(loss, encoding, direction)
                for loss, encoding in (("logistic", "0/1"), ("logistic", "-1/+1"),
                                       ("exponential", "-1/+1"))
                for direction in ("<=", ">=")]


class TestScreensOnDummies:
    """The sweeps' screens read prefix sums on threshold dummies.  Near
    every column's threshold, each column that leaves zero must be flagged,
    and a sweep must equal the loop of scalar steps bit for bit.  Which
    columns leave is the logistic scalar step's test, with its per-column
    ``np.dot``; for the exponential loss it is the independent oracle's
    test (``oracles.d_minus``, a masked sum), which at the threshold itself
    can differ from the step's by rounding."""

    @staticmethod
    def _start(loss, encoding, direction):
        rng = np.random.default_rng(17)
        n = 300
        x = rng.standard_normal((n, 5))
        y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0] + x[:, 1])), 1.0, -1.0)
        data, _ = sc.binarize(sc.DesignMatrix.from_arrays(x, y), direction=direction,
                              encoding=encoding, max_thresholds=60)
        eng = engine(loss)
        state = eng.new_state(data)
        eng.refit_intercept(state, data, sc.FitStats())
        for j in (5, 130):
            state.set_coefficient(data, j, 0.3)
        return data, eng, state

    @staticmethod
    def _scalar_tests(loss, state, data):
        """What each column's scalar step tests at w_j = 0: the -1
        fraction d (exponential, summed by ``oracles.d_minus``) or the step
        c (logistic, one ``np.dot`` per column); the lambda0 at which the
        test meets its threshold; and the change of lambda0 that moves the
        threshold by about one rounding unit of the test."""
        if loss == "exponential":
            d = np.array([d_minus(state, data, j) for j in range(data.p)])
            H = state.H
            dots = 2.0 * H * (0.5 - d)
            crit = dots * dots / (H + np.sqrt(H * H - dots * dots))
            # the half-width of the zero interval grows by (H - lam0) /
            # (4 H^2 half) per unit of lambda0
            return d, crit, 2.0 * EPS * H * H * np.abs(0.5 - d) / (H - crit)
        lip = engine(loss).lipschitz_all(data)
        c = np.array([-grad_j(state, data, j) / lip[j] for j in range(data.p)])
        crit = 0.5 * c * c * lip
        return c, crit, EPS * crit

    @staticmethod
    def _leaves(loss, state, data, test, lam0):
        if loss == "exponential":
            lo, hi = engine(loss).zero_interval(state.H, lam0)
            return ~((lo <= test) & (test <= hi))
        return ~(test * test < 2.0 * lam0 / engine(loss).lipschitz_all(data))

    @staticmethod
    def _sweep(loss, state, data, lam0, coords):
        eng = engine(loss)
        if loss == "exponential":
            return eng.cd_sweep(state, data, lam0, coords)
        return eng.cd_sweep(state, data, lam0, 0.0, eng.lipschitz_all(data), coords)

    @pytest.mark.parametrize("loss,encoding,direction", SCREEN_CASES)
    def test_screens_keep_every_column_that_leaves(self, loss, encoding, direction,
                                                   monkeypatch):
        data, eng, start = self._start(loss, encoding, direction)
        # the screen of a sweep, taken without running one
        made = []
        visits = eng.sweep_visits

        def recording(coords, w, screen):
            made[:] = [screen]
            return visits(coords, w, screen)

        monkeypatch.setattr(eng, "sweep_visits", recording)
        groups = np.flatnonzero(np.diff(data.threshold_index.feature)) + 1
        slices = [slice(a, b) for a, b in zip([0, *groups], [*groups, data.p])]
        slices.append(slice(0, data.p))
        # a second state, moved from the start by an intercept shift
        moved = start.copy()
        moved.set_intercept(data, moved.intercept + 1e-3)
        flips = 0
        for state in (start, moved):
            test, crit, step = self._scalar_tests(loss, state, data)
            for j in range(data.p):
                was = None
                for k in (-2, -1, 0, 1, 2):
                    lam0 = crit[j] + k * step[j]
                    leaves = self._leaves(loss, state, data, test, lam0)
                    was, flips = leaves[j], flips + (was is not None and was != leaves[j])
                    self._sweep(loss, state, data, lam0, range(0))
                    screen, = made
                    for cols in slices:
                        flagged = screen(cols)
                        assert np.all(flagged[leaves[cols]])
                        # columns far from their threshold are decided exactly
                        far = np.abs(crit[cols] - lam0) > 1e-6 * lam0
                        assert np.array_equal(flagged[far], leaves[cols][far])
        assert flips > data.p  # the scans crossed the thresholds

    @pytest.mark.parametrize("loss,encoding,direction", SCREEN_CASES)
    def test_sweeps_equal_the_loop_of_scalar_steps(self, loss, encoding, direction):
        data, eng, start = self._start(loss, encoding, direction)
        _, crit, step = self._scalar_tests(loss, start, data)
        top = np.argsort(-crit)
        hp = sc.HyperParams(loss=loss)
        for lam0 in (crit[top[0]] - step[top[0]], crit[top[0]], crit[top[2]] + step[top[2]],
                     0.5 * crit[top[10]], 0.2):
            state, oracle = start.copy(), start.copy()
            for _ in range(4):
                self._sweep(loss, state, data, lam0, range(data.p))
                for j in range(data.p):
                    if loss == "exponential":
                        exp_coordinate_update(oracle, data, j, lam0)
                    else:
                        step = threshold_step(oracle, data, j,
                                              sc.HyperParams(lambda0=lam0, loss=loss))
                        oracle.set_coefficient(data, j, step)
                np.testing.assert_array_equal(state.w, oracle.w)
                np.testing.assert_array_equal(state.margins, oracle.margins)
                assert state.support == oracle.support
            assert eng.smooth_loss(state, data, hp) == eng.smooth_loss(oracle, data, hp)


def _fit_on_dummies(data, rng, encoding):
    state = sc.ModelState.zeros(data)
    cols = list(range(data.p))
    chosen = rng.choice(cols, size=min(4, len(cols)), replace=False)
    for c in chosen:
        state.set_coefficient(data, int(c), float(rng.standard_normal()))
    state.set_intercept(data, float(rng.standard_normal()))
    return state


class TestScorecard:
    def test_zero_model_exports_intercept_only(self):
        data = _toy([3.0, 1.0, 3.0, 7.0])
        out, _ = sc.binarize(data)
        state = sc.ModelState.zeros(out)
        state.set_intercept(out, 0.75)
        hp = sc.HyperParams(lambda0=1.0)
        card = sc.export_scorecard(state, out, hp)
        assert card.terms == ()
        assert card.intercept == 0.75

    def test_grouped_terms_with_verbatim_weights(self):
        x = np.column_stack([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        data = sc.DesignMatrix.from_arrays(x, [1, -1, 1, -1], ["a", "b"])
        out, idx = sc.binarize(data)
        state = sc.ModelState.zeros(out)
        cols = np.flatnonzero(idx.feature == 0)
        state.set_coefficient(out, cols[0], 0.5)
        state.set_coefficient(out, cols[2], -1.25)
        hp = sc.HyperParams(lambda0=1.0)
        card = sc.export_scorecard(state, out, hp)
        assert [t.feature for t in card.terms] == ["a", "a"]
        assert [t.weight for t in card.terms] == [0.5, -1.25]
        assert [t.threshold for t in card.terms] == [1.0, 3.0]

    def test_mismatched_map_rejected(self):
        data = _toy([3.0, 1.0, 3.0, 7.0])
        out, _ = sc.binarize(data)
        state = sc.ModelState.zeros(data)  # one raw column, not three dummies
        hp = sc.HyperParams()
        with pytest.raises(sc.DataError):
            sc.export_scorecard(state, out, hp)

    @pytest.mark.parametrize("encoding", ["0/1", "-1/+1"])
    @pytest.mark.parametrize("direction", ["<=", ">="])
    def test_prediction_equivalence(self, direction, encoding):
        rng = np.random.default_rng(7)
        raw = sc.DesignMatrix.from_arrays(rng.standard_normal((25, 3)),
                                          np.where(rng.random(25) < 0.5, 1.0, -1.0),
                                          ["u", "v", "w"])
        out, _ = sc.binarize(raw, direction=direction, encoding=encoding, max_thresholds=8)
        state = _fit_on_dummies(out, rng, encoding)
        hp = sc.HyperParams(lambda0=1.0)
        card = sc.export_scorecard(state, out, hp)
        linear_scores = state.scores(out)
        card_scores = card.score_rows({n: raw.column(j) for j, n in enumerate(raw.feature_names)})
        np.testing.assert_allclose(card_scores, linear_scores, atol=1e-12)

    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_terms = int(rng.integers(0, 20))
            terms = tuple(
                ScorecardTerm(
                    feature=f"f{rng.integers(5)}",
                    op="<=" if rng.random() < 0.7 else ">=",
                    threshold=float(rng.standard_normal() * 100),
                    weight=float(rng.standard_normal()) or 1.0,
                )
                for _ in range(n_terms)
            )
            card = sc.Scorecard(
                loss="exponential" if rng.random() < 0.5 else "logistic",
                lambda0=float(rng.uniform(0, 10)),
                lambda2=float(rng.uniform(0, 1)),
                intercept=float(rng.standard_normal()),
                terms=terms,
            )
            again = sc.Scorecard.from_json(card.to_json())
            assert again == card

    def test_nineteen_term_roundtrip(self):
        rng = np.random.default_rng(13)
        terms = tuple(
            ScorecardTerm(f"g{i % 6}", "<=", float(rng.standard_normal() * 50),
                          float(rng.standard_normal()))
            for i in range(19)
        )
        card = sc.Scorecard("exponential", 5.0, 0.0,
                            intercept=-0.2584626, terms=terms)
        assert sc.Scorecard.from_json(card.to_json()) == card

    def test_zero_weight_terms_rejected(self):
        with pytest.raises(sc.DataError):
            sc.Scorecard("logistic", 1.0, 0.0, 0.0,
                         (ScorecardTerm("a", "<=", 1.0, 0.0),))

    @pytest.mark.parametrize("kind,loss,terms", [
        ("scorecard", "logistic", (ScorecardTerm("a", "<", 1.0, 2.0),)),
        ("scorecard", "logistic", (ScorecardTerm("a", None, 1.0, 2.0),)),
        ("scorecard", "logistic", (ScorecardTerm("a", "<=", None, 2.0),)),
        ("linear", "logistic", (ScorecardTerm("a", "<=", None, 2.0),)),
        ("linear", "logistic", (ScorecardTerm("a", None, 1.0, 2.0),)),
        ("scorecard", "hinge", ()),
        ("linear", "hinge", ()),
        ("linear", "logistic", (ScorecardTerm("a", None, None, 1.0),
                                ScorecardTerm("a", None, None, 2.0))),
    ], ids=["scorecard-op-<", "scorecard-op-none", "scorecard-threshold-none", "linear-op",
            "linear-threshold", "scorecard-hinge", "linear-hinge", "linear-repeated-feature"])
    def test_rejects_what_no_model_file_holds(self, kind, loss, terms):
        # score_rows would read an op other than "<=" as ">=": "<" gives [0, 2, 2]
        # for a = 0, 1, 2
        with pytest.raises(sc.DataError):
            sc.Scorecard(loss, 1.0, 0.0, 0.0, terms, kind=kind)
        if loss == "hinge" or len(terms) > 1:
            # a model file of that model: from_json itself refuses it
            model = {"kind": kind, "loss": loss, "lambda0": 1.0, "lambda2": 0.0,
                     "intercept": 0.0, "terms": [{"feature": t.feature, "weight": t.weight}
                                                 for t in terms]}
            with pytest.raises(sc.DataError):
                sc.Scorecard.from_json(json.dumps(model))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw):
    kind = draw(st.sampled_from(["scorecard", "linear"]))
    if kind == "linear":
        ops = st.tuples(st.none(), st.none())
    else:
        ops = st.tuples(st.sampled_from(["<=", ">="]), FINITE)
    # a linear model names each feature once
    unique = (lambda t: t[0]) if kind == "linear" else None
    terms = draw(st.lists(st.tuples(st.text(max_size=6), ops, FINITE.filter(bool)), max_size=6,
                          unique_by=unique))
    return sc.Scorecard(
        loss=draw(st.sampled_from(["logistic", "exponential"])),
        lambda0=draw(FINITE),
        lambda2=draw(FINITE),
        intercept=draw(FINITE),
        terms=tuple(ScorecardTerm(f, op, th, w) for f, (op, th), w in terms),
        kind=kind,
    )


class TestModelFiles:
    """Both model kinds share one class, one file format and one scorer."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_models())
    def test_round_trip_is_bit_exact(self, model):
        text = model.to_json()
        again = sc.Scorecard.from_json(text)
        assert again == model
        assert again.to_json() == text
        assert [np.float64(t.weight).tobytes() for t in again.terms] \
            == [np.float64(t.weight).tobytes() for t in model.terms]
        assert [np.float64(t.threshold).tobytes() for t in again.terms if t.op] \
            == [np.float64(t.threshold).tobytes() for t in model.terms if t.op]
        assert np.float64(again.intercept).tobytes() == np.float64(model.intercept).tobytes()

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["scorecard", "linear"]),
           loss=st.sampled_from(["logistic", "exponential"]),
           lam0=st.floats(0.05, 4.0))
    def test_model_scores_equal_the_fit(self, seed, kind, loss, lam0):
        rng = np.random.default_rng(seed)
        n, p = 40, 3
        if kind == "linear" and loss == "exponential":
            x = rng.choice([-1.0, 1.0], size=(n, p))
        else:
            x = np.round(rng.standard_normal((n, p)), 1)
        y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-x @ [1.5, -1.0, 0.0])), 1.0, -1.0)
        raw = sc.DesignMatrix.from_arrays(x, y, ["a", "b", "c"])
        data = raw
        if kind == "scorecard":
            data, _ = sc.binarize(raw, encoding=engine(loss).BINARIZE_ENCODING,
                                  max_thresholds=8)
        hp = sc.HyperParams(lambda0=lam0, lambda2=1e-3 if loss == "logistic" else 0.0,
                            loss=loss)
        state = sc.fit_one(data, hp)
        model = sc.export_scorecard(state, data, hp)
        assert model.kind == kind
        assert sc.Scorecard.from_json(model.to_json()) == model
        got = model.score_rows({name: raw.column(j) for j, name in enumerate(raw.feature_names)})
        np.testing.assert_allclose(got, state.scores(data), rtol=0.0, atol=1e-12)


class TestFloatRendering:
    def test_floats_read_back_bit_for_bit(self):
        rng = np.random.default_rng(23)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, size=2000)
        values = [*values.tolist(), 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, -3.0]
        for v in values:
            card = sc.Scorecard("logistic", 1.0, 0.0, v, (ScorecardTerm("a", "<=", v, 1.0),))
            again = sc.Scorecard.from_json(card.to_json())
            assert again.intercept.hex() == v.hex()
            assert again.terms[0].threshold.hex() == v.hex()
            assert json.loads(dump_json(v)).hex() == v.hex()  # -0.0 included

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float32("nan")])
    def test_non_finite_numbers_are_refused(self, value):
        with pytest.raises(sc.DataError):
            dump_json({"v": [1.0, value]})

    def test_numpy_scalars_are_written_as_numbers(self):
        assert dump_json({"k": np.int64(3), "v": np.float32(0.5), "w": np.float64(0.1)}) \
            == '{"k": 3, "v": 0.5, "w": 0.1}'
