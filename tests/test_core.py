"""Data model and objective tests."""

import math

import numpy as np
import pytest

import sparseclass as sc
from oracles import direct_exponential_objective, direct_logistic_objective


def _random_state(data, rng, k=2):
    state = sc.ModelState.zeros(data)
    idx = rng.choice(data.p, size=k, replace=False)
    for j in idx:
        state.set_coefficient(data, int(j), float(rng.standard_normal()))
    state.set_intercept(data, float(rng.standard_normal() * 0.3))
    return state


class TestDesignMatrix:
    def test_label_remap_from_01(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [2.0]], [0, 1])
        assert data.y.tolist() == [-1.0, 1.0]

    def test_rejects_bad_labels(self):
        with pytest.raises(sc.DataError):
            sc.DesignMatrix.from_arrays([[1.0], [2.0]], [0.5, 1.0])

    def test_rejects_duplicate_names(self):
        with pytest.raises(sc.DataError):
            sc.DesignMatrix.from_arrays([[1.0, 2.0]], [1.0], ["a", "a"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_features(self, bad):
        with pytest.raises(sc.DataError, match="non-finite"):
            sc.DesignMatrix.from_arrays([[1.0, 2.0], [bad, 0.5]], [1, -1])

    def test_binary_flag_detection(self):
        d1 = sc.DesignMatrix.from_arrays([[1.0, -1.0], [-1.0, 1.0]], [1, -1])
        d2 = sc.DesignMatrix.from_arrays([[1.0, 0.5], [-1.0, 1.0]], [1, -1])
        assert d1.binary and not d2.binary

    def test_arrays_locked(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [2.0]], [1, -1])
        with pytest.raises(ValueError):
            data.x[0, 0] = 3.0

    def test_signed_matrix(self):
        data = sc.DesignMatrix.from_arrays([[2.0], [3.0]], [1, -1])
        assert data.signed[:, 0].tolist() == [2.0, -3.0]


class TestLogisticObjective:
    def test_zero_state_is_n_log2(self):
        rng = np.random.default_rng(1)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((4, 3)),
                                           [1, -1, 1, -1])
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        state = sc.ModelState.zeros(data)
        assert sc.logistic_objective(state, data, hp) == pytest.approx(4 * math.log(2), rel=1e-12)

    def test_penalty_only_with_no_observations(self):
        data = sc.DesignMatrix.from_arrays(np.empty((0, 2)), np.empty(0))
        hp = sc.HyperParams(lambda0=5.0, lambda2=0.0)
        state = sc.ModelState.zeros(data)
        state.set_coefficient(data, 1, 1.0)
        assert sc.logistic_objective(state, data, hp) == 5.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((20, 5)),
                                           np.where(rng.random(20) < 0.5, 1.0, -1.0))
        hp = sc.HyperParams(lambda0=0.7, lambda2=0.01)
        state = _random_state(data, rng)
        expected = direct_logistic_objective(data.x, data.y, state.w,
                                             state.intercept, hp.lambda0, hp.lambda2)
        assert sc.logistic_objective(state, data, hp) == pytest.approx(expected, rel=1e-12)

    def test_overflow_safe_for_large_margins(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [1.0]], [1, -1])
        state = sc.ModelState.zeros(data)
        state.set_coefficient(data, 0, 500.0)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        val = sc.logistic_objective(state, data, hp)
        assert np.isfinite(val) and val == pytest.approx(500.0, rel=1e-9)


class TestExponentialObjective:
    def test_zero_state(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [-1.0], [1.0]], [1, 1, -1])
        hp = sc.HyperParams(lambda0=0.0, loss="exponential")
        state = sc.ModelState.zeros(data)
        assert sc.exponential_objective(state, data, hp) == pytest.approx(3.0, rel=1e-12)

    def test_penalty_with_empty_support(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [-1.0], [1.0]], [1, 1, -1])
        hp = sc.HyperParams(lambda0=2.0, loss="exponential")
        state = sc.ModelState.zeros(data)
        assert sc.exponential_objective(state, data, hp) == 3.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        x = rng.choice([-1.0, 1.0], size=(16, 4))
        y = np.where(rng.random(16) < 0.5, 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.4, loss="exponential")
        state = _random_state(data, rng)
        expected = direct_exponential_objective(data.x, data.y, state.w,
                                                state.intercept, hp.lambda0)
        assert sc.exponential_objective(state, data, hp) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonbinary_design(self):
        rng = np.random.default_rng(0)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((5, 2)),
                                           [1, -1, 1, -1, 1])
        hp = sc.HyperParams(lambda0=0.0, loss="exponential")
        with pytest.raises(sc.DataError):
            sc.exponential_objective(sc.ModelState.zeros(data), data, hp)


class TestPredictProbability:
    def test_zero_score_is_half(self):
        data = sc.DesignMatrix.from_arrays([[1.0, 0.0]], [1])
        state = sc.ModelState.zeros(data)
        for loss in ("logistic", "exponential"):
            assert sc.predict_probability(state, [0.3, -0.2], loss) == 0.5

    def test_unit_score_logistic(self):
        data = sc.DesignMatrix.from_arrays([[1.0]], [1])
        state = sc.ModelState.zeros(data)
        state.set_intercept(data, 1.0)
        expected = math.e / (1 + math.e)
        assert sc.predict_probability(state, [0.0], "logistic") == pytest.approx(expected, rel=1e-9)

    def test_exponential_equals_logistic_of_doubled_score(self):
        rng = np.random.default_rng(11)
        f = rng.uniform(-30, 30, size=1000)
        diff = np.abs(sc.probability_from_scores(f, "exponential")
                      - sc.probability_from_scores(2 * f, "logistic"))
        assert diff.max() <= 1e-12

    def test_dimension_mismatch(self):
        data = sc.DesignMatrix.from_arrays([[1.0, 2.0]], [1])
        state = sc.ModelState.zeros(data)
        with pytest.raises(sc.DataError):
            sc.predict_probability(state, [1.0], "logistic")


class TestStateMaintenance:
    def test_objective_stable_under_refresh(self):
        rng = np.random.default_rng(5)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((40, 8)),
                                           np.where(rng.random(40) < 0.5, 1.0, -1.0))
        hp = sc.HyperParams(lambda0=0.3, lambda2=1e-3)
        state = sc.ModelState.zeros(data)
        for _ in range(500):
            j = int(rng.integers(data.p))
            state.set_coefficient(data, j, float(rng.standard_normal()))
        before = sc.logistic_objective(state, data, hp)
        state.refresh(data)
        after = sc.logistic_objective(state, data, hp)
        assert after == pytest.approx(before, rel=1e-9)

    def test_support_bookkeeping_exact(self):
        rng = np.random.default_rng(6)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((10, 6)),
                                           np.where(rng.random(10) < 0.5, 1.0, -1.0))
        state = sc.ModelState.zeros(data)
        for _ in range(300):
            j = int(rng.integers(data.p))
            value = 0.0 if rng.random() < 0.4 else float(rng.standard_normal())
            state.set_coefficient(data, j, value)
            assert state.support == {k for k in range(data.p) if state.w[k] != 0.0}

    def test_margin_cache_matches_definition(self):
        rng = np.random.default_rng(9)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((30, 5)),
                                           np.where(rng.random(30) < 0.5, 1.0, -1.0))
        state = sc.ModelState.zeros(data)
        for _ in range(100):
            state.set_coefficient(data, int(rng.integers(5)), float(rng.standard_normal()))
            state.set_intercept(data, float(rng.standard_normal()))
        exact = data.y * (data.x @ state.w + state.intercept)
        np.testing.assert_allclose(state.margins, exact, rtol=1e-9, atol=1e-12)


class TestHyperParams:
    def test_exponential_rejects_ridge(self):
        with pytest.raises(sc.ConfigError):
            sc.HyperParams(lambda0=1.0, lambda2=0.1, loss="exponential")

    def test_negative_penalties_rejected(self):
        with pytest.raises(sc.ConfigError):
            sc.HyperParams(lambda0=-1.0)
        with pytest.raises(sc.ConfigError):
            sc.HyperParams(lambda2=-0.5)

    def test_unknown_loss_rejected(self):
        with pytest.raises(sc.ConfigError):
            sc.HyperParams(loss="hinge")
