"""Data model and objective tests."""

import math

import numpy as np
import pytest

import sparseclass as sc
from oracles import direct_exponential_objective, direct_logistic_objective


def _random_state(data, rng, k=2, cls=sc.ModelState):
    state = cls.zeros(data)
    idx = rng.choice(data.p, size=k, replace=False)
    for j in idx:
        state.set_coefficient(data, int(j), float(rng.standard_normal()))
    state.set_intercept(data, float(rng.standard_normal() * 0.3))
    return state


class TestPackageSurface:
    # the names a fit, a prediction or the CLI uses; the scalar coordinate
    # references live in tests/oracles.py
    NAMES = {
        "ConfigError", "DataError", "DesignMatrix", "ExpState", "FailureQueue", "FitStats",
        "HyperParams", "ModelState", "PathEntry", "PathResult", "PathSpec", "Scorecard",
        "ScorecardTerm", "SupportComparison", "SwapOutcome", "SynthSpec", "ThresholdGroup",
        "ThresholdMap", "accuracy", "auc", "binarize", "export_scorecard", "fit_one",
        "fit_path", "fit_swap_1opt", "gen_classification", "objective", "planted_support",
        "predict_probability", "probability_from_scores", "recovery_f1",
        "smooth_logistic_loss", "smooth_loss", "try_delete_or_swap", "warm_start",
        "zero_interval",
    }

    def test_exports_are_exactly_the_fit_surface(self):
        assert len(sc.__all__) == len(set(sc.__all__)) == 36
        assert set(sc.__all__) == self.NAMES
        for name in sc.__all__:
            assert getattr(sc, name) is not None


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

    def test_column_reads_of_x_share_one_array(self):
        data = sc.DesignMatrix.from_arrays(np.arange(12.0).reshape(4, 3), [1, -1, -1, 1])
        columns = [data.x[:, j] for j in range(3)]
        assert all(c.base is columns[0].base for c in columns)
        np.testing.assert_array_equal(np.column_stack(columns), np.arange(12.0).reshape(4, 3))

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
        assert sc.objective(state, data, hp) == pytest.approx(4 * math.log(2), rel=1e-12)

    def test_penalty_only_with_no_observations(self):
        data = sc.DesignMatrix.from_arrays(np.empty((0, 2)), np.empty(0))
        hp = sc.HyperParams(lambda0=5.0, lambda2=0.0)
        state = sc.ModelState.zeros(data)
        state.set_coefficient(data, 1, 1.0)
        assert sc.objective(state, data, hp) == 5.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((20, 5)),
                                           np.where(rng.random(20) < 0.5, 1.0, -1.0))
        hp = sc.HyperParams(lambda0=0.7, lambda2=0.01)
        state = _random_state(data, rng)
        expected = direct_logistic_objective(data.x, data.y, state.w,
                                             state.intercept, hp.lambda0, hp.lambda2)
        assert sc.objective(state, data, hp) == pytest.approx(expected, rel=1e-12)

    def test_overflow_safe_for_large_margins(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [1.0]], [1, -1])
        state = sc.ModelState.zeros(data)
        state.set_coefficient(data, 0, 500.0)
        hp = sc.HyperParams(lambda0=0.0, lambda2=0.0)
        val = sc.objective(state, data, hp)
        assert np.isfinite(val) and val == pytest.approx(500.0, rel=1e-9)


class TestExponentialObjective:
    def test_zero_state(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [-1.0], [1.0]], [1, 1, -1])
        hp = sc.HyperParams(lambda0=0.0, loss="exponential")
        state = sc.ExpState.zeros(data)
        assert sc.objective(state, data, hp) == pytest.approx(3.0, rel=1e-12)

    def test_penalty_with_empty_support(self):
        data = sc.DesignMatrix.from_arrays([[1.0], [-1.0], [1.0]], [1, 1, -1])
        hp = sc.HyperParams(lambda0=2.0, loss="exponential")
        state = sc.ExpState.zeros(data)
        assert sc.objective(state, data, hp) == 3.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        x = rng.choice([-1.0, 1.0], size=(16, 4))
        y = np.where(rng.random(16) < 0.5, 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.4, loss="exponential")
        state = _random_state(data, rng, cls=sc.ExpState)
        expected = direct_exponential_objective(data.x, data.y, state.w,
                                                state.intercept, hp.lambda0)
        assert sc.objective(state, data, hp) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonbinary_design(self):
        rng = np.random.default_rng(0)
        data = sc.DesignMatrix.from_arrays(rng.standard_normal((5, 2)),
                                           [1, -1, 1, -1, 1])
        hp = sc.HyperParams(lambda0=0.0, loss="exponential")
        with pytest.raises(sc.DataError):
            sc.objective(sc.ExpState.zeros(data), data, hp)


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
        before = sc.objective(state, data, hp)
        state.refresh(data)
        after = sc.objective(state, data, hp)
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

    @pytest.mark.parametrize("cls", [sc.ModelState, sc.ExpState])
    def test_copy_is_independent(self, cls):
        rng = np.random.default_rng(8)
        data = sc.DesignMatrix.from_arrays(rng.choice([-1.0, 1.0], size=(30, 24)),
                                           np.where(rng.random(30) < 0.5, 1.0, -1.0))
        state = _random_state(data, rng, k=3, cls=cls)
        sc.core.engine("exponential" if cls is sc.ExpState else "logistic").sweep(
            state, data, sc.HyperParams(lambda0=1.0))
        slots = [s for k in cls.__mro__ for s in getattr(k, "__slots__", ())]

        def snapshot(st):
            return {s: getattr(st, s).copy() if isinstance(getattr(st, s), (np.ndarray, set))
                    else getattr(st, s) for s in slots}

        def assert_same(a, b):
            for s in slots:
                if isinstance(a[s], np.ndarray):
                    np.testing.assert_array_equal(a[s], b[s], err_msg=s)
                else:
                    assert a[s] == b[s] or a[s] is b[s], s

        before = snapshot(state)
        dup = state.copy()
        assert type(dup) is cls
        assert_same(snapshot(dup), before)
        free = next(j for j in range(data.p) if j not in state.support)
        dup.set_coefficient(data, free, 0.5)
        dup.set_coefficient(data, min(state.support), 0.0)
        dup.set_intercept(data, 0.25)
        dup.refresh(data)
        assert_same(snapshot(state), before)
        copied = snapshot(dup)
        state.set_coefficient(data, free, -0.5)
        state.set_intercept(data, -0.25)
        state.refresh(data)
        assert_same(snapshot(dup), copied)


def _load_tracer():
    """The benchmark's ``perfbench/tracing.py``, which is not a package."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


# What the benchmark's tracer finds nothing to wrap for: two hooks of swap
# functions that the block screen replaced, and the ``ExpState`` mutators
# that ``ModelState`` alone defines (labelled by the class's own name).
MISSING_TRACER_TARGETS = ["sparseclass.swap._try_add_quad", "sparseclass.swap._try_add_lin",
                          "ExpState.set_coefficient", "ExpState.refresh"]


class TestEngines:
    FUNCTIONS = {
        "new_state": ["data"],
        "smooth_loss": ["state", "data", "hp"],
        "sweep": ["state", "data", "hp"],
        "refit_intercept": ["state", "data", "stats"],
        "find_swap": ["trial", "data", "hp", "forbidden", "f0", "threshold", "cut", "stats"],
        "solve_support": ["state", "data", "hp"],
    }

    def test_engines_define_the_same_functions(self):
        import inspect
        from sparseclass import exponential, logistic
        for name, params in self.FUNCTIONS.items():
            for module in (logistic, exponential):
                got = list(inspect.signature(getattr(module, name)).parameters)
                assert got == params, (module.__name__, name)

    def test_engines_have_one_support_solver(self):
        # ``solve_support`` is each engine's only support solve; the swap
        # search and the warm start both call it.
        from sparseclass import exponential, logistic
        for module in (logistic, exponential):
            assert not hasattr(module, "reoptimize"), module.__name__

    def test_engines_define_the_loss_constants(self):
        from sparseclass import exponential, logistic
        got = [(m.PROBABILITY_SCALE, m.TAKES_RIDGE, m.BINARIZE_ENCODING, m.SUPPORT_SETTLED_SWEEPS,
                m.COEF_BOUND) for m in (logistic, exponential)]
        bound = 0.5 * math.log((1.0 - 1e-10) / 1e-10)
        assert got == [(1.0, True, "0/1", 20, math.inf), (2.0, False, "-1/+1", 3, bound)]

    def test_states_keep_their_traced_methods(self):
        # The benchmark's tracer counts calls by patching these methods in
        # each state class's own namespace; ``ModelState`` alone has them.
        tracing = _load_tracer()
        targets = tracing.Tracer()._targets()
        assert [f"{o.__name__}.{a}" for o, a, _ in targets if tracing._lookup(o, a) is None] \
            == MISSING_TRACER_TARGETS
        assert {"set_coefficient", "refresh"} <= set(vars(sc.ModelState))

    def test_exp_state_keeps_no_weights_of_its_own(self):
        # Its weights are read from the margins: it defines no mutator and
        # no slot, and no update reports a refresh for it to follow.
        assert not {"copy", "set_coefficient", "set_intercept", "refresh"} & set(vars(sc.ExpState))
        assert sc.ExpState.__slots__ == ()
        data = sc.DesignMatrix.from_arrays([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]], [1, -1, 1])
        state = sc.ExpState.zeros(data)
        for k in range(sc.core.MARGIN_REFRESH_EVERY + 1):  # across one refresh
            assert state.set_coefficient(data, k % 2, 0.25 * (k + 1)) is None

    def test_tracer_wraps_every_live_target_and_restores_it(self):
        # The benchmark's tracer only warns about a name it cannot find, and
        # the layer behind it then reads 0; it reads ``coords`` by position.
        import inspect
        from sparseclass import exponential, logistic
        for module, position in ((logistic, 5), (exponential, 3)):
            assert list(inspect.signature(module.cd_sweep).parameters)[position] == "coords"
        tracer = _load_tracer().Tracer()
        tracer.install()
        try:
            assert tracer.missing == MISSING_TRACER_TARGETS
        finally:
            tracer.uninstall()
        assert tracer.leftovers() == []

    def test_lookup_by_loss_name(self):
        from sparseclass import core, exponential, logistic
        assert core.engine("logistic") is logistic
        assert core.engine("exponential") is exponential
        with pytest.raises(sc.ConfigError):
            core.engine("hinge")


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
