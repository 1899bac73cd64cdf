"""Exponential-loss engine tests: weights, zero interval, analytic updates."""

import math

import numpy as np
import pytest

import sparseclass as sc
from sparseclass import exponential as expeng
from sparseclass import swap
from sparseclass.core import EPS, NEWTON_GRAD_TOL
from oracles import (d_minus, exp_coordinate_update, exp_curve, grid_minimize,
                     newton_fit_exponential, reference_exp_find_swap,
                     reference_signed_products)
from test_logistic import _record_screens
from test_path import _data


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
        assert d_minus(state, data, 0) == pytest.approx(0.5)

    def test_uniform_weights_quarter_negative(self):
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.ones(4)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert d_minus(state, data, 0) == pytest.approx(0.25)

    def test_exclude_own_matches_scratch_recomputation(self):
        # the solver's e^{+-old} rescaling against weights rebuilt with the
        # coordinate zeroed
        rng = np.random.default_rng(4)
        for _ in range(30):
            data = _binary_data(rng)
            state = _random_exp_state(data, rng, k=3)
            j = int(next(iter(sorted(state.support))))
            got = expeng._reference(state.c, state.H, data.signed[:, j], float(state.w[j]))
            scratch = state.copy()
            scratch.set_coefficient(data, j, 0.0)
            scratch.refresh(data)
            expected = (scratch.H, d_minus(state, data, j, exclude_own=True))
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
        assert exp_coordinate_update(state, data, 0, 0.0) == 0.0

    def test_hand_worked_acceptance(self):
        # 3 of 4 signed entries positive, uniform weights, H = 4, lam0 = 0.5:
        # d = 0.25 lies outside the zero interval, so the coordinate enters
        # at ln(3)/2 and the loss drops to 8*sqrt(3/16) ~ 3.4641.
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.ones(4)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        new = exp_coordinate_update(state, data, 0, 0.5)
        assert new == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
        assert state.H == pytest.approx(8.0 * math.sqrt(0.1875), rel=1e-12)
        assert 4.0 - state.H == pytest.approx(0.535898, abs=1e-6)
        assert 4.0 - state.H > 0.5

    def test_hand_worked_rejection(self):
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.ones(4)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert exp_coordinate_update(state, data, 0, 0.6) == 0.0
        assert state.H == 4.0  # loss drop 0.5359 cannot pay a 0.6 penalty

    def test_separating_column_clamped(self):
        x = np.array([[1.0], [1.0], [1.0]])
        y = np.ones(3)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        new = exp_coordinate_update(state, data, 0, 0.0)
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
                d = d_minus(state, data, j)
            else:
                scratch = state.copy()
                scratch.set_coefficient(data, j, 0.0)
                H_ref = scratch.H
                d = d_minus(state, data, j, exclude_own=True)
            drop = H_ref - 2.0 * H_ref * math.sqrt(d * (1.0 - d))
            new = exp_coordinate_update(state.copy(), data, j, lam0)
            assert (new == 0.0) == (drop <= lam0)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(19)
        data = _binary_data(rng, n=30, p=6)
        hp = sc.HyperParams(lambda0=0.8, loss="exponential")
        state = _random_exp_state(data, rng, k=3)
        prev = sc.objective(state, data, hp)
        for _ in range(200):
            j = int(rng.integers(data.p))
            exp_coordinate_update(state, data, j, hp.lambda0)
            cur = sc.objective(state, data, hp)
            assert cur <= prev + 1e-9
            prev = cur


class TestLineSearch:
    def test_balanced_gives_zero(self):
        x = np.array([[1.0], [-1.0]])
        y = np.ones(2)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        assert expeng.analytic_coefficient(d_minus(state, data, 0, exclude_own=True)) == 0.0

    def test_matches_grid_minimum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            data = _binary_data(rng, n=30, p=4)
            state = _random_exp_state(data, rng)
            j = int(rng.integers(data.p))
            got = expeng.analytic_coefficient(d_minus(state, data, j, exclude_own=True))
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
            x = expeng.analytic_coefficient(d_minus(state, data, j, exclude_own=True))
            d = d_minus(state, data, j)
            if 1e-9 < d < 1 - 1e-9:
                deriv = -(1 - d) * math.exp(-x) + d * math.exp(x)
                assert abs(deriv) < 1e-10


class TestWeightMaintenance:
    def test_weights_track_scratch(self):
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

    def test_weights_are_read_from_the_margins(self):
        # After every kind of state change, and across refreshes at the
        # margin cadence, c is exp(-margins) and H its sum, bit for bit.
        rng = np.random.default_rng(32)
        data = _binary_data(rng, n=40, p=8)
        hp = sc.HyperParams(lambda0=1.0, loss="exponential")
        state = sc.ExpState.zeros(data)
        kinds = set()
        for _ in range(600):
            kind = rng.choice(["coef", "same", "intercept", "refresh", "copy", "solve"],
                              p=[0.6, 0.1, 0.1, 0.08, 0.08, 0.04])
            j = int(rng.integers(data.p))
            if kind == "coef":
                state.set_coefficient(data, j, float(rng.standard_normal() * 0.5))
            elif kind == "same":
                state.set_coefficient(data, j, float(state.w[j]))
            elif kind == "intercept":
                state.set_intercept(data, float(rng.standard_normal() * 0.2))
            elif kind == "refresh":
                state.refresh(data)
            elif kind == "copy":
                state = state.copy()
            else:
                expeng.solve_support(state, data, hp)
            kinds.add(str(kind))
            np.testing.assert_array_equal(state.c, np.exp(-state.margins))
            assert state.H == float(state.c.sum())
        assert len(kinds) == 6
        assert state._updates > sc.core.MARGIN_REFRESH_EVERY

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


class TestFindSwap:
    @pytest.mark.parametrize("limit", [None, 3])
    def test_counts_candidates_up_to_the_accepted_one(self, limit):
        rng = np.random.default_rng(21)
        data = _binary_data(rng, n=60, p=12)
        hp = sc.HyperParams(lambda0=0.5, loss="exponential", candidate_limit=limit)
        trial = _random_exp_state(data, rng, k=3)
        forbidden = set(trial.support)
        f0 = trial.H
        # The closed-form loss falls as |z_j . c| grows, so in gradient
        # order the first candidate reaches the lowest loss: a search
        # accepts it or none.
        dots = data.signed.T @ trial.c
        order = [j for j in np.argsort(-np.abs(dots), kind="stable").tolist()
                 if j not in forbidden][:limit]
        d = min(max(0.5 * (f0 - float(dots[order[0]])) / f0, 0.0), 1.0)
        best = expeng.updated_loss(f0, d, expeng.analytic_coefficient(d))
        stats = sc.FitStats()
        found = expeng.find_swap(trial, data, hp, forbidden, f0, math.nextafter(best, math.inf),
                                 "auto", stats)
        assert found is not None and found[0] == order[0]
        assert stats.candidates == 1
        stats = sc.FitStats()
        assert expeng.find_swap(trial, data, hp, forbidden, f0, best, "auto", stats) is None
        assert stats.candidates == 1
        assert (stats.cut_prunes, stats.line_searches, stats.swap_evals) == (0, 0, 0)

    def test_matches_the_sequential_scan(self):
        rng = np.random.default_rng(22)
        outcomes = set()
        for _ in range(120):
            data = _binary_data(rng, n=int(rng.integers(8, 60)), p=int(rng.integers(2, 30)))
            trial = _random_exp_state(data, rng, k=int(rng.integers(0, min(4, data.p))))
            size = int(rng.integers(0, data.p + 1))
            forbidden = {int(j) for j in rng.choice(data.p, size=size, replace=False)}
            limit = None if rng.random() < 0.5 else int(rng.integers(1, 6))
            hp = sc.HyperParams(lambda0=0.5, loss="exponential", candidate_limit=limit)
            f0 = trial.H
            threshold = f0 * float(rng.uniform(0.6, 1.0))
            stats = sc.FitStats()
            found = expeng.find_swap(trial, data, hp, forbidden, f0, threshold, "auto", stats)
            want, tested = reference_exp_find_swap(trial, data, forbidden, f0, threshold, limit)
            assert found == want
            assert stats.candidates == min(tested, 1)
            outcomes.add((want is None, tested))
        # accepted and rejected visits, rejections after several candidates
        assert (False, 1) in outcomes and any(none and t > 1 for none, t in outcomes)

    def test_matches_the_sequential_scan_on_threshold_dummies(self):
        rng = np.random.default_rng(23)
        compared = skipped = accepted = 0
        while compared < 100:
            n, p = int(rng.integers(2, 60)), int(rng.integers(1, 5))
            raw = np.column_stack([rng.standard_normal(n), rng.integers(0, 4, size=n),
                                   np.round(rng.standard_normal((n, 2)), 1)])[:, :p]
            base = sc.DesignMatrix.from_arrays(raw, np.where(rng.random(n) < 0.5, 1.0, -1.0))
            data, _ = sc.binarize(base, direction=str(rng.choice(["<=", ">="])),
                                  encoding="-1/+1",
                                  max_thresholds=[None, 1, 3, 200][int(rng.integers(4))])
            if data.p == 0:
                continue
            trial = _random_exp_state(data, rng, k=int(rng.integers(0, min(4, data.p))))
            size = int(rng.integers(0, data.p))
            forbidden = {int(j) for j in rng.choice(data.p, size=size, replace=False)}
            # skip draws whose best two candidates lie within the products'
            # rounding, 3 n EPS sum(c) each (``DesignMatrix.signed_products``)
            exact = np.abs(reference_signed_products(data, trial.c))
            exact[list(forbidden)] = -1.0
            top = np.sort(exact)[::-1]
            if top.size > 1 and top[0] - top[1] <= 2 * (3 * n + 1) * EPS * trial.H:
                skipped += 1
                continue
            hp = sc.HyperParams(lambda0=0.5, loss="exponential")
            f0 = trial.H
            d = 0.5 * (1.0 - top[0] / f0)
            # about half the draws accept: the best loss is 2 sqrt(d (1 - d)) f0
            threshold = 2.0 * math.sqrt(d * (1.0 - d)) * f0 * float(rng.uniform(0.9, 1.1))
            found = expeng.find_swap(trial, data, hp, forbidden, f0, threshold, "auto", None)
            want, _ = reference_exp_find_swap(trial, data, forbidden, f0, threshold, None)
            assert (found is None) == (want is None)
            if want is not None:
                assert found[0] == want[0]
                assert found[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)
            compared += 1
            accepted += want is not None
        assert skipped < compared and 20 < accepted < 80

    def test_columns_of_ones_tie_and_the_lowest_index_wins(self):
        rng = np.random.default_rng(24)
        raw = sc.DesignMatrix.from_arrays(rng.standard_normal((50, 3)),
                                          np.where(rng.random(50) < 0.7, 1.0, -1.0))
        data, _ = sc.binarize(raw, direction=">=", encoding="-1/+1")
        ones = np.flatnonzero(data.threshold_index.prefix == data.n).tolist()
        assert len(ones) == 3 and all(np.all(data.x[:, j] == 1.0) for j in ones)
        trial = _random_exp_state(data, rng, k=3)
        forbidden = set(range(data.p)) - set(ones[1:])
        dots = data.signed_products(trial.c)
        assert dots[ones[1]] == dots[ones[2]] != 0.0
        hp = sc.HyperParams(lambda0=0.5, loss="exponential")
        found = expeng.find_swap(trial, data, hp, forbidden, trial.H, math.inf, "auto", None)
        assert found is not None and found[0] == ones[1]


class TestSweep:
    @pytest.mark.parametrize("coords", ["range", "sub_range"])
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
        coords = range(p) if coords == "range" else range(20, 300)
        lam0 = 6.0

        ref = state.copy()
        ref_move = 0.0
        for j in coords:
            old = float(ref.w[j])
            ref_move = max(ref_move, abs(exp_coordinate_update(ref, data, j, lam0) - old))
        entered = ref.support - state.support
        assert entered

        screens = _record_screens(monkeypatch, expeng)
        swept = state.copy()
        move = expeng.cd_sweep(swept, data, lam0, coords)
        assert screens
        assert swept.support == ref.support
        np.testing.assert_allclose(swept.w, ref.w, rtol=0, atol=1e-12)
        assert swept.H == pytest.approx(ref.H, rel=1e-12)
        assert move == pytest.approx(ref_move, rel=0, abs=1e-12)


class TestCarriedScreen:
    """Consecutive sweeps on one state, as a warm-started path makes them,
    across intercept refits and sparsity-penalty changes.  Every sweep must
    equal a loop of ``exp_coordinate_update`` bit for bit."""

    GRID = ((30.0, 30), (12.0, 30), (6.0, 30))

    @staticmethod
    def _suppressor_data():
        # Column 150 copies the signal u on three rows in four and column
        # 260 on the rest; once 150 enters, 260 explains its noise and
        # enters too, although its reference test was far from the
        # threshold.
        rng = np.random.default_rng(1)
        n, p = 240, 320
        x = rng.choice([-1.0, 1.0], size=(n, p))
        u = rng.choice([-1.0, 1.0], size=n)
        x[:, 150] = np.where(rng.random(n) < 0.75, u, x[:, 260])
        y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-3.0 * u)), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ExpState.zeros(data)
        for j in (40, 200, 290):
            state.set_coefficient(data, j, float(rng.standard_normal() * 0.5))
        return data, state

    @pytest.mark.parametrize("order", ["range", "twice"])
    def test_sweeps_match_single_updates(self, order, monkeypatch):
        # a cadence that this schedule reaches, so a refresh happens between
        # sweeps
        refresh_every = 64
        monkeypatch.setattr(sc.core, "MARGIN_REFRESH_EVERY", refresh_every)
        data, state = self._suppressor_data()
        coords = range(data.p)
        passes = 1 if order == "range" else 2  # "twice": two sweeps per refit
        oracle = state.copy()
        expeng.refit_intercept(state, data)
        expeng.refit_intercept(oracle, data)
        quiet, late_entries = 0, 0
        for lam0, count in self.GRID:
            # each grid point starts from a copy, as fit_path's warm start does
            state, oracle = state.copy(), oracle.copy()
            for _ in range(count):
                before = set(oracle.support)
                for _ in range(passes):
                    expeng.cd_sweep(state, data, lam0, coords)
                    for j in coords:
                        exp_coordinate_update(oracle, data, j, lam0)
                expeng.refit_intercept(state, data)
                expeng.refit_intercept(oracle, data)
                np.testing.assert_array_equal(state.w, oracle.w)
                assert state.support == oracle.support
                assert state.intercept == oracle.intercept
                if oracle.support - before:
                    late_entries += quiet >= 20
                    quiet = 0
                else:
                    quiet += 1
        assert late_entries  # a feature entered after 20 quiet sweeps
        assert 260 in state.support
        assert state._updates >= refresh_every  # refreshed between sweeps


def _projected_gradient(state, data):
    """H and the projected gradient of H over the support (sorted) and the
    intercept, from scratch: a coefficient at +-COEF_BOUND whose gradient
    points out of the box contributes zero."""
    support = sorted(state.support)
    c = np.exp(-(data.y * (data.x @ state.w + state.intercept)))
    z = data.y[:, None] * data.x[:, support]
    g = -(z.T @ c)
    w = state.w[support]
    bound = expeng.COEF_BOUND
    g[((w >= bound) & (g < 0.0)) | ((w <= -bound) & (g > 0.0))] = 0.0
    return float(c.sum()), np.append(g, -float(data.y @ c))


def _certified(state, data):
    H, pg = _projected_gradient(state, data)
    # the solver's test, plus the rounding of this recomputation
    return float(np.abs(pg).max()) <= NEWTON_GRAD_TOL * H * (1.0 + 1e-6) + 1e-12 * H


class TestReoptimize:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_newton_oracle_and_is_certified(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, p = int(rng.integers(60, 240)), 12
        x = rng.choice([-1.0, 1.0], size=(n, p))
        y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-0.6 * (x[:, 0] + x[:, 1]))), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = _random_exp_state(data, rng, k=int(rng.integers(1, 7)))
        hp = sc.HyperParams(lambda0=1.0, loss="exponential")
        w_ref, b_ref, H_ref = newton_fit_exponential(x, data.y, state.support)
        assert np.abs(w_ref).max() < 0.5 * expeng.COEF_BOUND  # the box is not active
        stats = sc.FitStats()
        support = set(state.support)
        swap.reoptimize(state, data, hp, stats)
        assert stats.cap_hits == 0 and state.support == support
        assert state.H == pytest.approx(H_ref, rel=1e-9)
        np.testing.assert_allclose(state.w, w_ref, rtol=0, atol=1e-6)
        assert state.intercept == pytest.approx(b_ref, abs=1e-6)
        assert _certified(state, data)
        # the weights are rebuilt exactly from the coefficients
        rebuilt = state.copy()
        rebuilt.refresh(data)
        np.testing.assert_array_equal(state.c, rebuilt.c)

        again = state.copy()
        swap.reoptimize(again, data, hp, stats)
        assert stats.cap_hits == 0
        assert np.abs(again.w - state.w).max() <= 1e-12
        assert abs(again.intercept - state.intercept) <= 1e-12

    def test_empty_support_fits_the_intercept(self):
        rng = np.random.default_rng(310)
        data = _binary_data(rng, n=50, p=4)
        state = sc.ExpState.zeros(data)
        swap.reoptimize(state, data, sc.HyperParams(loss="exponential"))
        assert state.support == set()
        c_pos = float(np.sum(data.y > 0.0))
        assert state.intercept == pytest.approx(0.5 * math.log(c_pos / (data.n - c_pos)),
                                                abs=1e-9)
        assert _certified(state, data)

    @pytest.mark.parametrize("seed", [51, 53, 55, 56])
    def test_separable_supports_stay_in_the_box(self, seed):
        # Columns of these supports separate the data.  Without the box,
        # Newton drives their coefficients past 300 and H below 1e-43.
        data = _data(np.random.default_rng(seed), n=80, p=300, binary=True)
        hp = sc.HyperParams(lambda0=2.0, loss="exponential")
        stats = sc.FitStats()
        reopt = sc.warm_start(data, hp)
        swap.reoptimize(reopt, data, hp, stats)
        fit = sc.fit_one(data, hp, stats=stats)  # at seed 55 a swap reoptimizes
        assert stats.cap_hits == 0
        for st in (reopt, fit):
            assert np.abs(st.w).max() <= expeng.COEF_BOUND
            assert 0.0 < st.H < math.inf
            assert 0.0 < sc.objective(st, data, hp) < math.inf
        assert np.abs(reopt.w).max() == expeng.COEF_BOUND  # the box is active
        assert _certified(reopt, data)

    def test_c08_data_hits_no_cap_and_runs_no_sweep(self, monkeypatch):
        raw, _ = sc.gen_classification(sc.SynthSpec(n=1000, p=25, k=5, rho=0.5, seed=3))
        bdata, _ = sc.binarize(raw, encoding="-1/+1", max_thresholds=20)
        sweeps, inside = [0], []
        real_sweep, real_reopt = expeng.cd_sweep, swap.reoptimize

        def sweep(*args):
            sweeps[0] += 1
            return real_sweep(*args)

        def reoptimize(state, data, hp, stats=None):
            before = sweeps[0]
            real_reopt(state, data, hp, stats)
            inside.append(sweeps[0] - before)
            assert np.abs(state.w).max() <= expeng.COEF_BOUND
            assert _certified(state, data)

        monkeypatch.setattr(expeng, "cd_sweep", sweep)
        monkeypatch.setattr(swap, "reoptimize", reoptimize)
        result = sc.fit_path(bdata, sc.PathSpec((7.0, 6.0, 5.0, 4.0, 3.0, 2.0), (0.0,),
                                                "exponential",
                                                sc.HyperParams(loss="exponential",
                                                               candidate_limit=50)))
        assert inside and inside == [0] * len(inside)
        assert all(e.error is None and e.cap_hits == 0 for e in result.entries)
