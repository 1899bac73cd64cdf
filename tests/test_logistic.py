"""Logistic engine tests: gradients, curvature, thresholding, cuts.

The gradient, thresholding-step and probe tests check the scalar references
in ``tests/oracles.py`` that the sweep tests below compare the engine with.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

import sparseclass as sc
from sparseclass import logistic as logeng
from sparseclass import swap
from sparseclass.core import EPS, NEWTON_GRAD_TOL
import oracles
from oracles import (central_difference, coordinate_probe, grad_j, grid_minimize,
                     logistic_curve, scipy_fit_logistic, threshold_step)


class PolyProbe:
    """Minimal probe over an explicit convex function, for cut tests."""

    def __init__(self, fn, dfn):
        self.fn = fn
        self.dfn = dfn

    def eval_at(self, t):
        return float(self.fn(t)), float(self.dfn(t))


def _anchor(probe, x):
    """Value, slope and point at ``x``: one anchor of the cut formulas."""
    return (*probe.eval_at(x), x)


def _instance(rng, n=30, p=6):
    x = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    data = sc.DesignMatrix.from_arrays(x, y)
    state = sc.ModelState.zeros(data)
    for j in rng.choice(p, size=3, replace=False):
        state.set_coefficient(data, int(j), float(rng.standard_normal() * 0.8))
    return data, state


class TestGradient:
    def test_balanced_column_zero_gradient(self):
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ModelState.zeros(data)
        assert grad_j(state, data, 0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_state_gradient_is_minus_half_margin_sum(self):
        x = np.array([[1.0], [1.0], [1.0], [-1.0]])
        y = np.array([1.0, 1.0, 1.0, 1.0])
        data = sc.DesignMatrix.from_arrays(x, y)  # sum y*x = 2
        state = sc.ModelState.zeros(data)
        assert grad_j(state, data, 0) == pytest.approx(-1.0, rel=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            data, state = _instance(rng)
            hp = sc.HyperParams(lambda0=0.0, lambda2=1e-3)
            j = int(rng.integers(data.p))

            def f(t, j=j):
                trial = state.copy()
                trial.set_coefficient(data, j, t)
                return sc.smooth_logistic_loss(trial, data, hp.lambda2)

            num = central_difference(f, float(state.w[j]))
            ana = grad_j(state, data, j, hp.lambda2)
            assert ana == pytest.approx(num, abs=1e-5)


class TestLipschitz:
    def test_binary_column(self):
        x = np.ones((100, 1))
        y = np.where(np.arange(100) % 2 == 0, 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        assert logeng.lipschitz_all(data, 0.0)[0] == 25.0
        assert logeng.lipschitz_all(data, 0.001)[0] == pytest.approx(25.002)

    def test_zero_column_gives_ridge_only(self):
        data = sc.DesignMatrix.from_arrays(np.zeros((4, 1)), [1, -1, 1, -1])
        assert logeng.lipschitz_all(data, 0.0)[0] == 0.0
        assert logeng.lipschitz_all(data, 0.5)[0] == 1.0

    def test_gradient_increment_bounded(self):
        rng = np.random.default_rng(33)
        data, state = _instance(rng, n=25, p=4)
        lam2 = 1e-3
        for _ in range(1000):
            j = int(rng.integers(data.p))
            d = float(rng.standard_normal() * 3)
            base = state.copy()
            for jj in range(data.p):
                base.set_coefficient(data, jj, float(rng.standard_normal()))
            moved = base.copy()
            moved.set_coefficient(data, j, float(base.w[j]) + d)
            lhs = abs(grad_j(moved, data, j, lam2) - grad_j(base, data, j, lam2))
            assert lhs <= logeng.lipschitz_all(data, lam2)[j] * abs(d) + 1e-9


class TestThresholdStep:
    def _simple_data(self):
        # a balanced column with L = sum(x^2) / 4 = 4
        x = np.array([[2.0], [2.0], [-2.0], [-2.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        return sc.DesignMatrix.from_arrays(x, y)

    def test_stationary_zero(self):
        data = self._simple_data()
        state = sc.ModelState.zeros(data)
        hp = sc.HyperParams(lambda0=0.5, lambda2=0.0)
        assert threshold_step(state, data, 0, hp) == 0.0

    def test_plain_surrogate_step(self, monkeypatch):
        data = self._simple_data()
        state = sc.ModelState.zeros(data)
        state.set_coefficient(data, 0, 1.0)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        monkeypatch.setattr(oracles, "grad_j", lambda *a, **k: 2.0)
        assert threshold_step(state, data, 0, hp) == pytest.approx(0.5)

    def test_threshold_zeroes_small_step(self, monkeypatch):
        data = self._simple_data()
        state = sc.ModelState.zeros(data)
        hp = sc.HyperParams(lambda0=2.0, lambda2=0.0)
        # c = 0.9 with L = 4 -> sqrt(2*2/4) = 1 > |c| -> zeroed
        monkeypatch.setattr(oracles, "grad_j", lambda *a, **k: -3.6)
        assert threshold_step(state, data, 0, hp) == 0.0

    def test_inert_coordinate_raises(self):
        data = sc.DesignMatrix.from_arrays(np.zeros((4, 1)), [1, -1, 1, -1])
        state = sc.ModelState.zeros(data)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        with pytest.raises(ValueError):
            threshold_step(state, data, 0, hp)


class TestFindNewCoefficient:
    """``iterate_threshold`` from the current coefficient, for as many steps
    as a swap candidate's line search takes."""

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(2)
        data, state = _instance(rng, n=60, p=5)
        hp = sc.HyperParams(lambda0=0.0, lambda2=1e-2)
        j = 1
        # drive coordinate j to its 1-D optimum first
        probe = coordinate_probe(state, data, j, hp.lambda2)
        t = logeng.iterate_threshold(probe, 0.0, 400)
        state.set_coefficient(data, j, t)
        assert abs(grad_j(state, data, j, hp.lambda2)) < 1e-10
        probe = coordinate_probe(state, data, j, hp.lambda2)
        got = logeng.iterate_threshold(probe, t, logeng.LINE_SEARCH_STEPS)
        assert got == pytest.approx(t, abs=1e-9)

    def test_close_to_grid_minimizer(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            data, state = _instance(rng, n=40, p=5)
            hp = sc.HyperParams(lambda0=0.0, lambda2=1e-3)
            j = int(rng.integers(data.p))
            wj = float(state.w[j])
            probe = coordinate_probe(state, data, j, hp.lambda2)
            got = logeng.iterate_threshold(probe, wj, logeng.LINE_SEARCH_STEPS)
            u = data.signed[:, j]
            base = state.margins - wj * u
            fvec = logistic_curve(base, u, hp.lambda2,
                                  float(state.w @ state.w) - wj * wj)
            xmin, _ = grid_minimize(fvec, step=1e-3, refine=1e-5)
            assert got == pytest.approx(xmin, abs=1e-3)

    def test_monotone_loss_along_iterates(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            data, state = _instance(rng, n=20, p=4)
            j = int(rng.integers(data.p))
            probe = coordinate_probe(state, data, j, 1e-3)
            t = float(state.w[j])
            prev = probe.value_at(t)
            for _ in range(10):
                t = t - probe.slope_at(t) / probe.lipschitz
                cur = probe.value_at(t)
                assert cur <= prev + 1e-10
                prev = cur


class TestSameSideDescent:
    def test_threshold_steps_stay_on_one_side(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            data, state = _instance(rng, n=30, p=6)
            lam2 = 0.0 if rng.random() < 0.5 else 1e-3
            hp = sc.HyperParams(lambda0=0.0, lambda2=lam2)
            j = int(rng.integers(data.p))
            g_before = grad_j(state, data, j, lam2)
            loss_before = sc.smooth_logistic_loss(state, data, lam2)
            state.set_coefficient(data, j, threshold_step(state, data, j, hp))
            g_after = grad_j(state, data, j, lam2)
            loss_after = sc.smooth_logistic_loss(state, data, lam2)
            assert g_before * g_after >= -1e-10
            assert loss_before - loss_after >= -1e-10


class TestSurrogateDominance:
    def test_quadratic_upper_bound(self):
        rng = np.random.default_rng(8)
        data, state = _instance(rng, n=25, p=5)
        lam2 = 1e-3
        for j in range(data.p):
            probe = coordinate_probe(state, data, j, lam2)
            wj = float(state.w[j])
            fw = probe.value_at(wj)
            gw = probe.slope_at(wj)
            L = probe.lipschitz
            for u in rng.uniform(-6, 6, size=40):
                surrogate = fw + (u - wj) * gw + 0.5 * L * (u - wj) ** 2
                assert surrogate >= probe.value_at(u) - 1e-9


class TestLinCut:
    def test_symmetric_parabola(self):
        probe = PolyProbe(lambda t: t * t, lambda t: 2 * t)
        assert logeng._lin_cut_val(*_anchor(probe, -1.0), *_anchor(probe, 1.0)) == pytest.approx(-1.0)

    def test_quartic(self):
        probe = PolyProbe(lambda t: t ** 4 + t * t, lambda t: 4 * t ** 3 + 2 * t)
        assert logeng._lin_cut_val(*_anchor(probe, -1.0), *_anchor(probe, 1.0)) == pytest.approx(-4.0)

    def test_both_slopes_zero_returns_value(self):
        probe = PolyProbe(lambda t: 3.0, lambda t: 0.0)
        assert logeng._lin_cut_val(*_anchor(probe, -1.0), *_anchor(probe, 1.0)) == 3.0

    def test_bounds_random_probes(self):
        rng = np.random.default_rng(51)
        checked = 0
        while checked < 100:
            n = int(rng.integers(8, 20))
            base = rng.standard_normal(n)
            u = rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5 else rng.standard_normal(n)
            probe = logeng.CoordinateProbe(base, u, lam2=0.0)
            bracket = _find_bracket(probe)
            if bracket is None:
                continue
            x1, x2 = bracket
            fvec = logistic_curve(base, u, 0.0, 0.0)
            _, fmin = grid_minimize(fvec)
            assert logeng._lin_cut_val(*_anchor(probe, x1), *_anchor(probe, x2)) <= fmin + 1e-8
            checked += 1


def _find_bracket(probe, start=0.25):
    """Find points with opposite tangent slopes by doubling outward."""
    s0 = probe.slope_at(0.0)
    if s0 == 0.0:
        return None
    direction = -math.copysign(1.0, s0)
    prev = 0.0
    x = direction * start
    for _ in range(12):
        if probe.slope_at(x) * s0 <= 0.0:
            return prev, x
        prev = x
        x *= 2.0
    return None


class TestQuadCuts:
    def test_one_point_exact_for_parabola(self):
        probe = PolyProbe(lambda t: t * t, lambda t: 2 * t)
        assert logeng._quad_cut_one_val(*probe.eval_at(1.0), 1.0) == pytest.approx(0.0)

    def test_one_point_at_stationary_point(self):
        probe = PolyProbe(lambda t: t * t + 2.0, lambda t: 2 * t)
        assert logeng._quad_cut_one_val(*probe.eval_at(0.0), 1.0) == pytest.approx(2.0)

    def test_two_point_quartic(self):
        probe = PolyProbe(lambda t: t ** 4 + t * t, lambda t: 4 * t ** 3 + 2 * t)
        two = logeng._quad_cut_two_val(*_anchor(probe, -1.0), *_anchor(probe, 1.0), 1.0)
        assert two == pytest.approx(-3.0)

    def test_two_point_degenerate_falls_back(self):
        probe = PolyProbe(lambda t: t * t, lambda t: 2 * t)
        two = logeng._quad_cut_two_val(*_anchor(probe, -1.0), *_anchor(probe, 1.0), 1.0)
        assert two == pytest.approx(0.0)

    def test_bounds_and_ordering_random_probes(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            n = int(rng.integers(8, 20))
            base = rng.standard_normal(n)
            u = rng.choice([-1.0, 1.0], size=n)
            lam2 = float(rng.choice([1e-3, 1e-2, 0.1]))
            probe = logeng.CoordinateProbe(base, u, lam2=lam2)
            bracket = _find_bracket(probe)
            if bracket is None:
                continue
            x1, x2 = bracket
            fvec = logistic_curve(base, u, lam2, 0.0)
            _, fmin = grid_minimize(fvec)
            one = logeng._quad_cut_one_val(*probe.eval_at(x1), lam2)
            two = logeng._quad_cut_two_val(*_anchor(probe, x1), *_anchor(probe, x2), lam2)
            lin = logeng._lin_cut_val(*_anchor(probe, x1), *_anchor(probe, x2))
            assert one <= fmin + 1e-8
            assert two <= fmin + 1e-8
            assert two >= lin - 1e-10
            checked += 1


class TestSweepAndIntercept:
    def test_sweep_matches_single_steps(self):
        rng = np.random.default_rng(10)
        data, state = _instance(rng, n=30, p=6)
        hp = sc.HyperParams(lambda0=0.2, lambda2=1e-3)
        ref = state.copy()
        for j in range(data.p):
            ref.set_coefficient(data, j, threshold_step(ref, data, j, hp))
        swept = state.copy()
        lip = logeng.lipschitz_all(data, hp.lambda2)
        logeng.cd_sweep(swept, data, hp.lambda0, hp.lambda2, lip, range(data.p))
        np.testing.assert_allclose(swept.w, ref.w, rtol=0, atol=1e-12)

    # Wide instances whose zero runs reach the screened path of the sweep:
    # (lambda0, lambda2, support, inert columns, coords).  The planted signal
    # sits at columns 150 and 260, inside long zero runs.  "sub_range"
    # sweeps range(20, 300); "twice" makes two consecutive sweeps.
    WIDE_CASES = {
        "enters_mid_run": (3.0, 1e-3, (40, 200, 290), (), None),
        "inert_column_in_run": (3.0, 0.0, (40, 200, 290), (120, 121), None),
        "lambda0_zero": (0.0, 1e-3, (40, 200, 290), (), None),
        "sub_range": (3.0, 1e-3, (40, 200, 290), (), "sub_range"),
        "two_sweeps": (3.0, 1e-3, (40, 200, 290), (), "twice"),
        "adjacent_support": (3.0, 1e-3, (100, 101, 102, 103, 318, 319), (), None),
    }

    @pytest.mark.parametrize("case", sorted(WIDE_CASES))
    @pytest.mark.filterwarnings("error")
    def test_wide_sweep_matches_single_steps(self, case, monkeypatch):
        lam0, lam2, support, inert, order = self.WIDE_CASES[case]
        rng = np.random.default_rng(20)
        n, p = 80, 320
        x = rng.standard_normal((n, p))
        x[:, list(inert)] = 0.0
        y = np.where(rng.random(n) < expit(2.0 * (x[:, 150] - x[:, 260])), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ModelState.zeros(data)
        for j in support:
            state.set_coefficient(data, j, float(rng.standard_normal() * 0.5))
        coords = range(20, 300) if order == "sub_range" else range(p)
        passes = 2 if order == "twice" else 1

        hp = sc.HyperParams(lambda0=lam0, lambda2=lam2)
        lip = logeng.lipschitz_all(data, lam2)
        ref = state.copy()
        ref_moves = []
        entered_mid_run = False
        for _ in range(passes):
            ref_move = 0.0
            for pos, j in enumerate(coords):
                if lip[j] <= 0.0:
                    continue
                old = float(ref.w[j])
                new = threshold_step(ref, data, j, hp)
                ref.set_coefficient(data, j, new)
                ref_move = max(ref_move, abs(new - old))
                window = [float(state.w[i]) for i in coords[max(pos - 4, 0):pos]]
                entered_mid_run |= old == 0.0 and new != 0.0 and window == [0.0] * 4
            ref_moves.append(ref_move)
        assert entered_mid_run

        screens = _record_screens(monkeypatch, logeng)
        swept = state.copy()
        moves = [logeng.cd_sweep(swept, data, lam0, lam2, lip, coords) for _ in range(passes)]
        # only sweeps at lambda0 > 0 take the batched path
        assert bool(screens) == (lam0 > 0.0)
        assert swept.support == ref.support
        np.testing.assert_allclose(swept.w, ref.w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(moves, ref_moves, rtol=0, atol=1e-12)
        for j in inert:
            assert swept.w[j] == 0.0

    def test_intercept_refit_reaches_stationarity(self):
        rng = np.random.default_rng(12)
        data, state = _instance(rng, n=50, p=4)
        logeng.refit_intercept(state, data)
        g = -float(data.y @ expit(-state.margins))
        assert abs(g) < 1e-8

    def test_intercept_refit_counts_a_stop_at_its_cap(self, monkeypatch):
        rng = np.random.default_rng(12)
        data, state = _instance(rng, n=50, p=4)
        stats = sc.FitStats()
        logeng.refit_intercept(state.copy(), data, stats)
        assert stats.cap_hits == 0
        monkeypatch.setattr(logeng, "_INTERCEPT_MAX_ITER", 1)
        logeng.refit_intercept(state, data, stats)
        assert stats.cap_hits == 1
        g = -float(data.y @ expit(-state.margins))
        assert abs(g) > 1e-8  # one step does not reach stationarity here

    def test_warm_start_and_reoptimize_pass_their_stats(self, monkeypatch):
        rng = np.random.default_rng(12)
        data, state = _instance(rng, n=50, p=4)
        hp = sc.HyperParams(lambda0=0.5, lambda2=0.1)
        seen = []
        refit = logeng.refit_intercept
        monkeypatch.setattr(logeng, "refit_intercept",
                            lambda st, d, stats=None: seen.append(stats) or refit(st, d, stats))
        stats = sc.FitStats()
        sc.warm_start(data, hp, stats=stats)
        swap.reoptimize(state, data, hp, stats)
        assert seen and all(s is stats for s in seen)

    def test_intercept_refit_empty_data(self):
        data = sc.DesignMatrix.from_arrays(np.empty((0, 1)), np.empty(0))
        state = sc.ModelState.zeros(data)
        assert logeng.refit_intercept(state, data) == 0.0

    def test_zero_column_is_inert_in_sweeps_and_fits(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((60, 4))
        x[:, 2] = 0.0
        y = np.where(rng.random(60) < expit(1.5 * x[:, 0]), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.05, lambda2=0.0)
        state = sc.fit_one(data, hp)
        assert state.w[2] == 0.0
        assert 2 not in state.support


class TestSupportSolve:
    @pytest.mark.parametrize("lam2", [1e-3, 1e-5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_scipy_oracle(self, seed, lam2):
        rng = np.random.default_rng(700 + seed)
        n, p = int(rng.integers(80, 240)), 12
        x = rng.standard_normal((n, p))
        y = np.where(rng.random(n) < expit(0.8 * (x[:, 0] - x[:, 1])), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ModelState.zeros(data)
        for j in rng.choice(p, size=int(rng.integers(0, 7)), replace=False):
            state.set_coefficient(data, int(j), float(rng.standard_normal()))
        state.set_intercept(data, float(rng.standard_normal()))
        hp = sc.HyperParams(lambda0=1.0, lambda2=lam2)
        support = sorted(state.support)
        ref, beta = scipy_fit_logistic(x, data.y, support, lam2,
                                       np.append(state.w[support], state.intercept))
        assert logeng.solve_support(state, data, hp)
        assert sorted(state.support) == support
        assert logeng.smooth_loss(state, data, hp) == pytest.approx(ref, rel=1e-9)
        np.testing.assert_allclose(np.append(state.w[support], state.intercept), beta,
                                   rtol=0, atol=1e-6)
        # the margins are rebuilt exactly from the coefficients
        rebuilt = state.copy()
        rebuilt.refresh(data)
        np.testing.assert_array_equal(state.margins, rebuilt.margins)

    @pytest.mark.parametrize("lam2", [1e-3, 1e-5])
    @pytest.mark.parametrize("seed", range(6))
    def test_swap_search_refit_is_exact(self, seed, lam2):
        # The refit after an accepted deletion or swap is the support solve:
        # certified, at the oracle's minimum, with a gradient at the
        # solver's stop test when recomputed from scratch.
        data, truth = sc.gen_classification(
            sc.SynthSpec(n=300, p=40, k=8, rho=0.9, seed=900 + seed))
        rng = np.random.default_rng(seed)
        state = sc.ModelState.zeros(data)
        for j in sorted(truth):
            state.set_coefficient(data, j, float(rng.standard_normal()))
        hp = sc.HyperParams(lambda0=1.0, lambda2=lam2)
        support = sorted(truth)
        ref, _ = scipy_fit_logistic(data.x, data.y, support, lam2,
                                    np.append(state.w[support], state.intercept))
        stats = sc.FitStats()
        swap.reoptimize(state, data, hp, stats)
        assert stats.cap_hits == 0
        assert sorted(state.support) == support
        f = logeng.smooth_loss(state, data, hp)
        assert f == pytest.approx(ref, rel=1e-9)
        a = np.column_stack([data.signed[:, support], data.y])
        q = expit(-(data.y * (data.x @ state.w + state.intercept)))
        g = -(a.T @ q)
        g[:-1] += 2.0 * lam2 * state.w[support]
        # the solver's test, plus the rounding of its gradient and of this one
        rounding = 2.0 * (data.n + 8) * EPS * (np.abs(a).T @ q + 2.0 * lam2 * np.append(
            np.abs(state.w[support]), 0.0))
        assert np.all(np.abs(g) <= NEWTON_GRAD_TOL * f * (1.0 + 1e-6) + rounding)


def _record_screens(monkeypatch, eng):
    """Record the columns of every screen that ``eng``'s sweeps run."""
    screens = []
    visits = eng.sweep_visits

    def recording(coords, w, screen):
        if screen is None:
            return visits(coords, w, None)
        return visits(coords, w, lambda cols: screens.append(cols) or screen(cols))

    monkeypatch.setattr(eng, "sweep_visits", recording)
    return screens


class TestCarriedScreen:
    """Consecutive sweeps on one state, as a warm-started path makes them,
    across intercept refits and sparsity-penalty changes.  Every sweep must
    equal a loop of ``threshold_step`` bit for bit."""

    # (lambda0, sweeps) per grid point; the support settles long before each
    # grid point ends, and lower penalties then let features enter.
    GRID = ((12.0, 40), (5.0, 40), (2.0, 40), (1.2, 10))

    @staticmethod
    def _suppressor_data(lam2):
        # Column 260 is pure noise at the zero state, but once column 150
        # (signal u plus column 260) enters, it removes the noise and
        # enters too: a coordinate whose reference test is far from its
        # threshold, moved there by the drift of the other coordinates.
        rng = np.random.default_rng(1)
        n, p = 200, 320
        x = rng.standard_normal((n, p))
        u = rng.standard_normal(n)
        x[:, 150] = x[:, 260] + u
        inert = (120, 121) if lam2 == 0.0 else ()
        x[:, list(inert)] = 0.0
        y = np.where(rng.random(n) < expit(2.5 * u), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        state = sc.ModelState.zeros(data)
        for j in (40, 200, 290):
            state.set_coefficient(data, j, float(rng.standard_normal() * 0.5))
        return data, state, inert

    @pytest.mark.parametrize("order,lam2", [("range", 0.0), ("twice", 0.0), ("range", 1e-3)])
    def test_sweeps_match_single_steps(self, order, lam2, monkeypatch):
        data, state, inert = self._suppressor_data(lam2)
        coords = range(data.p)
        passes = 1 if order == "range" else 2  # "twice": two sweeps per refit
        lip = logeng.lipschitz_all(data, lam2)
        oracle = state.copy()
        logeng.refit_intercept(state, data)
        logeng.refit_intercept(oracle, data)
        quiet, late_entries = 0, 0
        for lam0, count in self.GRID:
            hp = sc.HyperParams(lambda0=lam0, lambda2=lam2)
            # each grid point starts from a copy, as fit_path's warm start does
            state, oracle = state.copy(), oracle.copy()
            for _ in range(count):
                before = set(oracle.support)
                for _ in range(passes):
                    logeng.cd_sweep(state, data, lam0, lam2, lip, coords)
                    for j in coords:
                        if lip[j] > 0.0:
                            oracle.set_coefficient(data, j, threshold_step(oracle, data, j, hp))
                logeng.refit_intercept(state, data)
                logeng.refit_intercept(oracle, data)
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
        assert state._updates >= sc.core.MARGIN_REFRESH_EVERY  # refreshed between sweeps
        for j in inert:
            assert state.w[j] == 0.0
