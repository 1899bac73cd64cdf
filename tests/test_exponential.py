"""Exponential-loss engine tests: weights, zero interval, analytic updates."""

import math

import numpy as np
import pytest

import sparseclass as sc
from sparseclass import exponential as expeng
from oracles import exp_curve, grid_minimize


def _binary_data(rng, n=24, p=5):
    x = rng.choice([-1.0, 1.0], size=(n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return sc.DesignMatrix.from_arrays(x, y)


def _random_exp_state(data, rng, k=2):
    state = sc.ExpState.zeros(data)
    for j in rng.choice(data.p, size=k, replace=False):
        state.set_coefficient(data, int(j), float(rng.standard_normal() * 0.7))
    return state


class TestDMinus:
    def test_uniform_weights_half_negative(self):
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 1.0, 1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert sc.d_minus(state, data, 0) == pytest.approx(0.5)

    def test_uniform_weights_quarter_negative(self):
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.ones(4)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert sc.d_minus(state, data, 0) == pytest.approx(0.25)

    def test_exclude_own_matches_scratch_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            data = _binary_data(rng)
            state = _random_exp_state(data, rng, k=3)
            j = int(next(iter(sorted(state.support))))
            got = sc.d_minus(state, data, j, exclude_own=True)
            scratch = state.copy()
            scratch.set_coefficient(data, j, 0.0)
            scratch.refresh(data)
            z = data.signed[:, j]
            expected = float(scratch.c[z < 0].sum() / scratch.c.sum())
            assert got == pytest.approx(expected, rel=1e-12)


class TestZeroInterval:
    def test_no_penalty_is_degenerate_point(self):
        assert sc.zero_interval(3.0, 0.0) == (0.5, 0.5)

    def test_hand_evaluated_interval(self):
        lo, hi = sc.zero_interval(4.0, 0.5)
        half = math.sqrt(0.5 * (8.0 - 0.5)) / 8.0
        assert half == pytest.approx(0.242061, abs=1e-6)
        assert lo == pytest.approx(0.5 - half, rel=1e-12)
        assert hi == pytest.approx(0.5 + half, rel=1e-12)

    def test_unpayable_penalty_clamps_to_unit_interval(self):
        assert sc.zero_interval(2.0, 4.0) == (0.0, 1.0)
        assert sc.zero_interval(2.0, 5.0) == (0.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sc.zero_interval(0.0, 1.0)
        with pytest.raises(ValueError):
            sc.zero_interval(1.0, -1.0)


class TestCoordinateUpdate:
    def test_balanced_column_stays_zero(self):
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert sc.exp_coordinate_update(state, data, 0, 0.0) == 0.0

    def test_hand_worked_acceptance(self):
        # 3 of 4 signed entries positive, uniform weights, H = 4, lam0 = 0.5:
        # d = 0.25 lies outside the zero interval, so the coordinate enters
        # at ln(3)/2 and the loss drops to 8*sqrt(3/16) ~ 3.4641.
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.ones(4)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        new = sc.exp_coordinate_update(state, data, 0, 0.5)
        assert new == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
        assert state.H == pytest.approx(8.0 * math.sqrt(0.1875), rel=1e-12)
        assert 4.0 - state.H == pytest.approx(0.535898, abs=1e-6)
        assert 4.0 - state.H > 0.5

    def test_hand_worked_rejection(self):
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.ones(4)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert sc.exp_coordinate_update(state, data, 0, 0.6) == 0.0
        assert state.H == 4.0  # loss drop 0.5359 cannot pay a 0.6 penalty

    def test_separating_column_clamped(self):
        x = np.array([[1.0], [1.0], [1.0]])
        y = np.ones(3)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        new = sc.exp_coordinate_update(state, data, 0, 0.0)
        expected = 0.5 * math.log((1 - 1e-10) / 1e-10)
        assert new == pytest.approx(expected, rel=1e-9)

    def test_zeroing_matches_loss_reduction_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            data = _binary_data(rng, n=20, p=4)
            state = _random_exp_state(data, rng)
            j = int(rng.integers(data.p))
            lam0 = float(rng.uniform(0.0, 3.0))
            wj = float(state.w[j])
            if wj == 0.0:
                H_ref = state.H
                d = sc.d_minus(state, data, j)
            else:
                scratch = state.copy()
                scratch.set_coefficient(data, j, 0.0)
                H_ref = scratch.H
                d = sc.d_minus(state, data, j, exclude_own=True)
            drop = H_ref - 2.0 * H_ref * math.sqrt(d * (1.0 - d))
            new = sc.exp_coordinate_update(state.copy(), data, j, lam0)
            assert (new == 0.0) == (drop <= lam0)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(19)
        data = _binary_data(rng, n=30, p=6)
        hp = sc.HyperParams(lambda0=0.8, loss="exponential")
        state = _random_exp_state(data, rng, k=3)
        prev = sc.exponential_objective(state, data, hp)
        for _ in range(200):
            j = int(rng.integers(data.p))
            sc.exp_coordinate_update(state, data, j, hp.lambda0)
            cur = sc.exponential_objective(state, data, hp)
            assert cur <= prev + 1e-9
            prev = cur


class TestLineSearch:
    def test_balanced_gives_zero(self):
        x = np.array([[1.0], [-1.0]])
        y = np.ones(2)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert sc.exp_line_search(state, data, 0) == 0.0

    def test_matches_grid_minimum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            data = _binary_data(rng, n=30, p=4)
            state = _random_exp_state(data, rng)
            j = int(rng.integers(data.p))
            got = sc.exp_line_search(state, data, j)
            scratch = state.copy()
            scratch.set_coefficient(data, j, 0.0)
            fvec = exp_curve(scratch.c, data.signed[:, j])
            xmin, _ = grid_minimize(fvec)
            assert got == pytest.approx(xmin, abs=1e-6)

    def test_result_is_stationary(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            data = _binary_data(rng, n=16, p=3)
            state = sc.ExpState.zeros(data)
            j = int(rng.integers(data.p))
            x = sc.exp_line_search(state, data, j)
            d = sc.d_minus(state, data, j)
            if 1e-9 < d < 1 - 1e-9:
                deriv = -(1 - d) * math.exp(-x) + d * math.exp(x)
                assert abs(deriv) < 1e-10


class TestWeightMaintenance:
    def test_multiplicative_updates_track_scratch(self):
        rng = np.random.default_rng(31)
        data = _binary_data(rng, n=40, p=8)
        state = sc.ExpState.zeros(data)
        for _ in range(1000):
            j = int(rng.integers(data.p))
            state.set_coefficient(data, j, float(rng.standard_normal() * 0.5))
            if rng.random() < 0.1:
                state.set_intercept(data, float(rng.standard_normal() * 0.2))
        exact = np.exp(-(data.y * (data.x @ state.w + state.intercept)))
        np.testing.assert_allclose(state.c, exact, rtol=1e-7)
        assert state.H == pytest.approx(float(exact.sum()), rel=1e-9)

    def test_zeros_requires_binary(self):
        rng = np.random.default_rng(1)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((5, 2)),
                                           [1, -1, 1, -1, 1])
        with pytest.raises(sc.DataError):
            sc.ExpState.zeros(data)

    def test_intercept_refit_is_exact(self):
        rng = np.random.default_rng(37)
        data = _binary_data(rng, n=30, p=3)
        state = _random_exp_state(data, rng)
        expeng.refit_intercept(state, data)
        # stationarity of H in the intercept direction
        deriv = -float(state.c @ data.y)
        assert abs(deriv) < 1e-9 * state.H


class TestSweep:
    @pytest.mark.parametrize("coords", ["range", "permuted"])
    def test_wide_sweep_matches_single_updates(self, coords, monkeypatch):
        rng = np.random.default_rng(41)
        n, p = 120, 320
        x = rng.choice([-1.0, 1.0], size=(n, p))
        y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-2.0 * (x[:, 150] - x[:, 260]))),
                     1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        for j in (40, 41, 200, 319):
            state.set_coefficient(data, j, float(rng.standard_normal() * 0.5))
        expeng.refit_intercept(state, data)
        coords = range(p) if coords == "range" else rng.permutation(p)[:280].tolist()
        lam0 = 6.0

        ref = state.copy()
        ref_move = 0.0
        for j in coords:
            old = float(ref.w[j])
            ref_move = max(ref_move, abs(expeng.exp_coordinate_update(ref, data, j, lam0) - old))
        entered = ref.support - state.support
        assert entered

        screens = []
        visits = expeng.sweep_visits
        monkeypatch.setattr(expeng, "sweep_visits", lambda c, w, k, screen: visits(
            c, w, k, lambda cols: screens.append(cols) or screen(cols)))
        swept = state.copy()
        move = expeng.cd_sweep(swept, data, lam0, coords)
        assert screens  # the batched path ran
        assert swept.support == ref.support
        np.testing.assert_allclose(swept.w, ref.w, rtol=0, atol=1e-12)
        assert swept.H == pytest.approx(ref.H, rel=1e-12)
        assert move == pytest.approx(ref_move, rel=0, abs=1e-12)
