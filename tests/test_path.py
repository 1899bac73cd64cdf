"""Warm start and regularization-path tests."""

from dataclasses import fields

import numpy as np
import pytest
from scipy.special import expit

import sparseclass as sc
from sparseclass import path as pathmod
from sparseclass import logistic as logeng
from sparseclass.swap import reoptimize


def _data(rng, n=100, p=8, idx=(1, 5), scale=1.5, binary=False):
    x = rng.choice([-1.0, 1.0], size=(n, p)) if binary else rng.standard_normal((n, p))
    w = np.zeros(p)
    w[list(idx)] = scale
    y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
    return sc.DesignMatrix.from_arrays(x, y)


class TestWarmStart:
    def test_huge_penalty_gives_intercept_only(self):
        rng = np.random.default_rng(0)
        data = _data(rng)
        hp = sc.HyperParams(lambda0=1e9, lambda2=1e-3)
        state = sc.warm_start(data, hp)
        assert state.support == set()
        assert np.all(state.w == 0.0)
        # intercept sits at the stationary point of the loss
        g = -float(data.y @ expit(-state.margins))
        assert abs(g) < 1e-8

    def test_sweep_cap_respected_on_separable_data(self):
        x = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        state = sc.warm_start(data, hp)  # must terminate
        assert state.w[0] > 1.0

    def test_cap_hits_counted(self):
        # The separable instance above: neither the warm start nor the
        # reoptimization of its support meets its stop test.
        x = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        stats = sc.FitStats()
        state = sc.warm_start(data, hp, stats=stats)
        assert stats.cap_hits == 1
        reoptimize(state, data, hp, stats)
        assert stats.cap_hits == 2

    def test_converging_fit_hits_no_cap(self):
        rng = np.random.default_rng(0)
        data = _data(rng, n=120, p=10, idx=(2, 7))
        stats = sc.FitStats()
        sc.fit_one(data, sc.HyperParams(lambda0=0.2, lambda2=1e-3), stats=stats)
        assert stats.swap_evals > 0
        assert stats.cap_hits == 0

    def test_surrogate_fixed_point_certificate(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = _data(rng, n=120, p=10, idx=(2, 7))
            hp = sc.HyperParams(lambda0=0.2, lambda2=1e-3)
            state = sc.warm_start(data, hp)
            lip = logeng.lipschitz_all(data, hp.lambda2)
            extra = state.copy()
            move = logeng.cd_sweep(extra, data, hp.lambda0, hp.lambda2, lip, range(data.p))
            assert move <= 1e-10

    def test_logistic_fixed_point_on_a_c06_instance(self):
        # Acceptance c06's first random instance, where sweeps alone end at
        # the 500-sweep cap short of a fixed point.
        rng = np.random.default_rng(7000)
        x = rng.standard_normal((300, 200))
        w = np.zeros(200)
        w[rng.choice(200, size=8, replace=False)] = 1.2
        y = np.where(rng.random(300) < expit(x @ w), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.15, lambda2=1e-3)
        stats = sc.FitStats()
        state = sc.warm_start(data, hp, stats=stats)
        assert stats.cap_hits == 0
        lip = logeng.lipschitz_all(data, hp.lambda2)
        move = logeng.cd_sweep(state.copy(), data, hp.lambda0, hp.lambda2, lip, range(data.p))
        assert move <= 1e-10

    def test_uncertified_logistic_solve_is_undone(self, monkeypatch):
        # The separable instance of test_cap_hits_counted: the loss tends to
        # zero, so the relative stop test of the support solve never holds.
        # The warm start must end bit for bit as with support solves off.
        x = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        solve = logeng.solve_support
        certified = []

        def recording(state, data, hp):
            certified.append(solve(state, data, hp))
            return certified[-1]

        monkeypatch.setattr(logeng, "solve_support", recording)
        runs = []
        for k in (logeng.SUPPORT_SETTLED_SWEEPS, pathmod.WARM_START_MAX_SWEEPS + 1):
            monkeypatch.setattr(logeng, "SUPPORT_SETTLED_SWEEPS", k)
            stats = sc.FitStats()
            state = sc.warm_start(data, hp, stats=stats)
            runs.append((state.w.tolist(), state.intercept, state.margins.tolist(),
                         stats.cap_hits))
        assert certified == [False]
        assert runs[0] == runs[1]

    def test_exponential_fixed_point_certificate(self):
        from sparseclass import exponential as expeng
        # p=300 leaves zero runs long enough for the screened sweep.  It
        # needs more rows and a stronger penalty than p=8: at n=80 the wide
        # instances are separable and the warm start can end at its sweep
        # cap, short of a fixed point.
        cases = [(80, 8, 0.5, seed) for seed in range(3)]
        cases += [(200, 300, 8.0, seed) for seed in range(3)]
        for n, p, lam0, seed in cases:
            rng = np.random.default_rng(50 + seed)
            data = _data(rng, n=n, p=p, binary=True)
            hp = sc.HyperParams(lambda0=lam0, loss="exponential")
            state = sc.warm_start(data, hp)
            k = len(state.support)
            assert p == 8 or (p - k) / (k + 1) >= sc.core.SCREEN_MIN_RUN
            extra = state.copy()
            move = expeng.cd_sweep(extra, data, hp.lambda0, range(data.p))
            assert move <= 1e-10

    def test_support_solve_undone_at_the_box(self, monkeypatch):
        # Separable instances: the exact solve of a settled support drives a
        # coefficient onto the box.  The warm start must undo it and end no
        # worse, and at no more sweep caps, than with support solves off.
        # Seeds 53 and 55 at lambda0 = 0.5 end at the sweep cap either way.
        from sparseclass import exponential as expeng
        solve = expeng.solve_support
        boxed = []

        def recording(state, data, hp):
            certified = solve(state, data, hp)
            boxed.append(np.abs(state.w).max(initial=0.0) >= expeng.COEF_BOUND)
            return certified

        monkeypatch.setattr(expeng, "solve_support", recording)
        settled = expeng.SUPPORT_SETTLED_SWEEPS
        for seed in (40, 41, 53, 55):
            data = _data(np.random.default_rng(seed), n=80, p=300, binary=True)
            for lam0 in (0.5, 2.0):
                hp = sc.HyperParams(lambda0=lam0, loss="exponential")
                runs = []
                for k in (settled, pathmod.WARM_START_MAX_SWEEPS + 1):
                    monkeypatch.setattr(expeng, "SUPPORT_SETTLED_SWEEPS", k)
                    stats = sc.FitStats()
                    state = sc.warm_start(data, hp, stats=stats)
                    runs.append((sc.objective(state, data, hp), stats.cap_hits))
                (obj, caps), (obj_off, caps_off) = runs
                assert obj <= obj_off * (1.0 + 1e-12), (seed, lam0)
                assert caps <= caps_off, (seed, lam0)
        assert any(boxed)


class TestPathSpec:
    def test_grid_must_descend(self):
        with pytest.raises(sc.ConfigError):
            sc.PathSpec(lambda0_grid=(1.0, 2.0))
        with pytest.raises(sc.ConfigError):
            sc.PathSpec(lambda0_grid=(2.0, 2.0))

    def test_ridge_grid_must_not_be_empty(self):
        with pytest.raises(sc.ConfigError):
            sc.PathSpec(lambda0_grid=(3.0, 2.0), lambda2_grid=())

    def test_grid_must_be_positive(self):
        with pytest.raises(sc.ConfigError):
            sc.PathSpec(lambda0_grid=(1.0, 0.0))

    def test_exponential_rejects_ridge_grid(self):
        with pytest.raises(sc.ConfigError):
            sc.PathSpec(lambda0_grid=(1.0,), lambda2_grid=(0.1,), loss="exponential")

    def test_unknown_loss_rejected_at_construction(self):
        with pytest.raises(sc.ConfigError):
            sc.PathSpec(lambda0_grid=(1.0,), loss="hinge")


class TestFitPath:
    def test_single_point_equals_direct_composition(self):
        rng = np.random.default_rng(1)
        data = _data(rng)
        hp = sc.HyperParams(lambda0=0.3, lambda2=1e-3)
        direct = sc.fit_swap_1opt(sc.warm_start(data, hp), data, hp)
        spec = sc.PathSpec(lambda0_grid=(0.3,), lambda2_grid=(1e-3,))
        result = sc.fit_path(data, spec)
        assert len(result.entries) == 1
        got = result.entries[0].state
        np.testing.assert_array_equal(got.w, direct.w)
        assert got.intercept == direct.intercept
        assert got.support == direct.support

    def test_grid_runs_in_order_with_instrumentation(self):
        rng = np.random.default_rng(2)
        data = _data(rng)
        spec = sc.PathSpec(lambda0_grid=(2.0, 1.0, 0.5), lambda2_grid=(0.0, 1e-3))
        result = sc.fit_path(data, spec)
        assert len(result.entries) == 6
        assert [(e.lambda0, e.lambda2) for e in result.entries] == [
            (2.0, 0.0), (1.0, 0.0), (0.5, 0.0),
            (2.0, 1e-3), (1.0, 1e-3), (0.5, 1e-3),
        ]
        for e in result.entries:
            assert e.error is None
            assert e.wall_ms > 0.0
            assert np.isfinite(e.objective)

    def test_entries_carry_fit_stats(self):
        rng = np.random.default_rng(4)
        data = _data(rng)
        hp = sc.HyperParams(lambda0=0.3, lambda2=1e-3)
        stats = sc.FitStats()
        sc.fit_one(data, hp, stats=stats)
        entry = sc.fit_path(data, sc.PathSpec(lambda0_grid=(0.3,), lambda2_grid=(1e-3,))).entries[0]
        got = (entry.swap_evals, entry.cut_prunes, entry.candidates, entry.line_searches,
               entry.cap_hits)
        assert got == (stats.swap_evals, stats.cut_prunes, stats.candidates, stats.line_searches,
                       stats.cap_hits)
        assert stats.candidates > 0
        assert stats.cut_prunes + stats.line_searches <= stats.candidates

    @pytest.mark.parametrize("loss", ["logistic", "exponential"])
    def test_deterministic_across_runs(self, loss):
        rng = np.random.default_rng(3)
        exponential = loss == "exponential"
        data = _data(rng, binary=exponential)
        spec = sc.PathSpec(lambda0_grid=(1.0, 0.5), lambda2_grid=(0.0 if exponential else 1e-3,),
                           loss=loss)
        r1 = sc.fit_path(data, spec)
        r2 = sc.fit_path(data, spec)
        counters = [f.name for f in fields(sc.FitStats)]
        assert len(r1.entries) == len(r2.entries) == 2
        for a, b in zip(r1.entries, r2.entries):
            assert a.error is None and b.error is None
            np.testing.assert_array_equal(a.state.w, b.state.w)
            assert a.state.intercept == b.state.intercept
            assert a.objective == b.objective
            assert [getattr(a, k) for k in counters] == [getattr(b, k) for k in counters]

    def test_failures_recorded_and_grid_continues(self, monkeypatch):
        rng = np.random.default_rng(4)
        data = _data(rng)
        real = pathmod.warm_start

        def flaky(data_, hp, init=None, stats=None):
            if hp.lambda0 == 1.0:
                raise RuntimeError("boom")
            return real(data_, hp, init=init, stats=stats)

        monkeypatch.setattr(pathmod, "warm_start", flaky)
        spec = sc.PathSpec(lambda0_grid=(2.0, 1.0, 0.5), lambda2_grid=(1e-3,))
        result = pathmod.fit_path(data, spec)
        assert len(result.entries) == 3
        assert result.entries[0].error is None
        assert "boom" in result.entries[1].error
        assert result.entries[2].error is None

    def test_quad_cut_checked_against_every_ridge_before_fitting(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("warm start ran")

        monkeypatch.setattr(pathmod, "warm_start", never)
        data = _data(np.random.default_rng(6))
        spec = sc.PathSpec(lambda0_grid=(1.0,), lambda2_grid=(0.0, 1e-3))
        with pytest.raises(sc.ConfigError, match="lambda2 > 0"):
            pathmod.fit_path(data, spec, cut="quad")
        with pytest.raises(sc.ConfigError, match="lambda2 > 0"):
            pathmod.fit_one(data, sc.HyperParams(lambda0=1.0), cut="quad")

    def test_ordering_checked_before_the_warm_start(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("warm start ran")

        monkeypatch.setattr(pathmod, "warm_start", never)
        data = _data(np.random.default_rng(6))
        with pytest.raises(sc.ConfigError, match="ordering"):
            pathmod.fit_one(data, sc.HyperParams(lambda0=1.0), ordering="bogus")

    def test_sparsity_trend_reported(self, capsys):
        rng = np.random.default_rng(5)
        data = _data(rng, n=150, p=12, idx=(1, 5, 9))
        spec = sc.PathSpec(lambda0_grid=(3.0, 1.5, 0.8, 0.4, 0.2, 0.1),
                           lambda2_grid=(1e-3,))
        result = sc.fit_path(data, spec)
        sizes = [e.support_size for e in result.entries]
        pairs = list(zip(sizes, sizes[1:]))
        frac = sum(1 for a, b in pairs if b >= a) / len(pairs)
        print(f"support-size nondecreasing fraction along the path: {frac:.2f} {sizes}")
        assert len(sizes) == 6  # diagnostic only; the trend is not asserted

    def test_exponential_path(self):
        rng = np.random.default_rng(6)
        data = _data(rng, n=120, p=10, idx=(2, 6), binary=True)
        spec = sc.PathSpec(lambda0_grid=(3.0, 1.0), loss="exponential",
                           lambda2_grid=(0.0,),
                           base=sc.HyperParams(loss="exponential"))
        result = sc.fit_path(data, spec)
        assert all(e.error is None for e in result.entries)
        assert result.entries[-1].support_size >= 1
