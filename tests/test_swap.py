"""Delete-or-swap search tests."""

import numpy as np
import pytest
from scipy.special import expit

import sparseclass as sc
from sparseclass import logistic as logeng
from sparseclass.swap import reoptimize
from oracles import grid_minimize, logistic_curve


def _planted(rng, n=120, p=8, idx=(1, 4), scale=1.4):
    x = rng.standard_normal((n, p))
    w = np.zeros(p)
    w[list(idx)] = scale
    y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
    return sc.DesignMatrix.from_arrays(x, y)


def _restricted_fit(data, support, hp):
    state = sc.ModelState.zeros(data)
    for j in support:
        state.set_coefficient(data, j, 1e-3)
    reoptimize(state, data, hp)
    return state


class TestFailureQueue:
    def test_never_checked_first_then_fewest_failures(self):
        q = sc.FailureQueue(6)
        q.record_failure(0)
        q.record_failure(0)
        q.record_failure(3)
        assert q.ordered({0, 1, 3, 5}) == [1, 5, 3, 0]

    def test_ties_broken_by_index(self):
        q = sc.FailureQueue(4)
        assert q.ordered({2, 0, 3}) == [0, 2, 3]

    def test_ordering_is_permutation_of_support(self):
        rng = np.random.default_rng(0)
        q = sc.FailureQueue(20)
        for _ in range(50):
            j = int(rng.integers(20))
            q.record_failure(j)
        support = set(int(v) for v in rng.choice(20, size=9, replace=False))
        assert sorted(q.ordered(support)) == sorted(support)


class TestCandidateOrder:
    @pytest.mark.parametrize("limit", [None, 1, 7, 500])
    def test_matches_list_filter_with_ties(self, limit):
        from sparseclass.swap import _candidate_order
        rng = np.random.default_rng(3)
        # Few distinct magnitudes of both signs, so most features tie.
        grads = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=300)
        forbidden = {int(j) for j in rng.choice(300, size=40, replace=False)}
        order = np.argsort(-np.abs(grads), kind="stable")
        expected = [int(j) for j in order if int(j) not in forbidden]
        if limit is not None:
            expected = expected[:limit]
        got = _candidate_order(grads, forbidden, limit)
        assert got == expected
        assert all(type(j) is int for j in got)
        assert _candidate_order(grads, set(), limit) == [int(j) for j in order][:limit]


class TestDeletion:
    def test_zero_column_deleted_at_equal_loss(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 3))
        x[:, 2] = 0.0
        data = sc.DesignMatrix.from_arrays(x, np.where(rng.random(40) < 0.5, 1.0, -1.0))
        hp = sc.HyperParams(lambda0=0.05, lambda2=0.0)
        state = sc.ModelState.zeros(data)
        state.set_coefficient(data, 0, 0.8)
        state.set_coefficient(data, 2, 0.7)  # dead weight on a zero column
        out = sc.try_delete_or_swap(state, data, hp, 2)
        assert out.kind == "deleted"
        assert out.removed == 2
        assert len(out.new_state.support) == len(state.support) - 1

    def test_duplicated_column_with_bad_split_deleted(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((80, 3))
        x[:, 1] = x[:, 0]
        y = np.where(rng.random(80) < expit(1.2 * x[:, 0]), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.05, lambda2=1e-3)
        # put the combined optimum on column 0, then add pure excess on 1
        state = _restricted_fit(data, [0], hp)
        state.set_coefficient(data, 1, 0.9)
        out = sc.try_delete_or_swap(state, data, hp, 1)
        assert out.kind == "deleted"
        assert out.removed == 1


class TestSwap:
    def test_noisy_copy_swapped_for_true_feature(self):
        rng = np.random.default_rng(3)
        n, p = 200, 7
        x = rng.standard_normal((n, p))
        x[:, 2] = 0.9 * x[:, 5] + 0.45 * rng.standard_normal(n)
        y = np.where(rng.random(n) < expit(1.6 * x[:, 5] + 1.2 * x[:, 0]), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.05, lambda2=1e-3)
        state = _restricted_fit(data, [0, 2], hp)
        out = sc.try_delete_or_swap(state, data, hp, 2)
        assert out.kind == "swapped"
        assert out.removed == 2 and out.added == 5

    def test_isolated_strong_feature_unchanged(self):
        rng = np.random.default_rng(4)
        data = _planted(rng, n=300, p=6, idx=(2,), scale=2.0)
        hp = sc.HyperParams(lambda0=0.2, lambda2=1e-3)
        state = _restricted_fit(data, [2], hp)
        out = sc.try_delete_or_swap(state, data, hp, 2)
        assert out.kind == "no_change"
        assert out.new_state is state

    def test_swap_outcome_invariants(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            data = _planted(rng, n=150, p=10, idx=(1, 6), scale=1.5)
            hp = sc.HyperParams(lambda0=0.1, lambda2=1e-3)
            state = sc.warm_start(data, hp)
            for j in sorted(state.support):
                out = sc.try_delete_or_swap(state, data, hp, j)
                if out.kind == "swapped":
                    assert out.removed != out.added
                    assert len(out.new_state.support) == len(state.support)
                elif out.kind == "deleted":
                    assert len(out.new_state.support) == len(state.support) - 1
                else:
                    assert out.new_state is state

    def test_accepted_changes_lower_objective(self):
        rng = np.random.default_rng(6)
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            loss = "exponential" if seed % 2 else "logistic"
            n, p = 120, 9
            if loss == "exponential":
                x = rng.choice([-1.0, 1.0], size=(n, p))
            else:
                x = rng.standard_normal((n, p))
            w = np.zeros(p)
            w[[1, 4, 7]] = 1.3
            y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
            data = sc.DesignMatrix.from_arrays(x, y)
            hp = sc.HyperParams(lambda0=0.15, loss=loss,
                                lambda2=0.0 if loss == "exponential" else 1e-3)
            state = sc.warm_start(data, hp)
            for _ in range(20):
                if not state.support:
                    break
                prev = sc.objective(state, data, hp)
                j = sorted(state.support)[0]
                out = sc.try_delete_or_swap(state, data, hp, j)
                if out.kind == "no_change":
                    break
                state = out.new_state
                cur = sc.objective(state, data, hp)
                assert cur <= prev + 1e-9


class TestTryAdd:
    def _probe_oracle_min(self, state, data, j2, lam2):
        u = data.signed[:, j2]
        fvec = logistic_curve(state.margins, u, lam2, float(state.w @ state.w))
        return grid_minimize(fvec)

    def _three_column_instance(self, rng, weak_noise=4.0):
        # col0 carries the signal, col1 is a strong alternative, col2 is junk
        n = 150
        base = rng.standard_normal(n)
        x = np.column_stack([
            base + 0.4 * rng.standard_normal(n),
            base + 0.4 * rng.standard_normal(n),
            weak_noise * rng.standard_normal(n),
        ])
        y = np.where(rng.random(n) < expit(1.8 * base), 1.0, -1.0)
        return sc.DesignMatrix.from_arrays(x, y)

    def test_weak_candidate_pruned_soundly(self):
        rng = np.random.default_rng(7)
        data = self._three_column_instance(rng)
        hp = sc.HyperParams(lambda0=0.1, lambda2=1e-2)
        state = _restricted_fit(data, [0], hp)
        loss_best = sc.smooth_logistic_loss(state, data, hp.lambda2)
        trial = state.copy()
        trial.set_coefficient(data, 0, 0.0)
        res = sc.try_add_quad(trial, data, hp, 2, loss_best)
        assert not res.accepted and res.cut_pruned
        _, fmin = self._probe_oracle_min(trial, data, 2, hp.lambda2)
        assert fmin > loss_best - 1e-8

    def test_strong_candidate_accepted_near_grid_minimizer(self):
        rng = np.random.default_rng(8)
        data = self._three_column_instance(rng)
        # enough line-search steps to pin the coefficient down tightly
        hp = sc.HyperParams(lambda0=0.1, lambda2=1e-3, max_inner_iter=80)
        # incumbent support is the junk column; swapping in the signal's twin
        # is a large improvement
        state = _restricted_fit(data, [2], hp)
        loss_best = sc.smooth_logistic_loss(state, data, hp.lambda2)
        trial = state.copy()
        trial.set_coefficient(data, 2, 0.0)
        res = sc.try_add_quad(trial, data, hp, 1, loss_best)
        assert res.accepted
        xmin, _ = self._probe_oracle_min(trial, data, 1, hp.lambda2)
        assert res.coefficient == pytest.approx(xmin, abs=1e-3)

    @pytest.mark.parametrize("lam2,fn", [(0.0, sc.try_add_lincut), (1e-3, sc.try_add_quad)])
    def test_decisions_match_exhaustive_line_search(self, lam2, fn):
        rng = np.random.default_rng(9)
        hits = {True: 0, False: 0}
        for trial_idx in range(120):
            n, p = 60, 8
            x = rng.standard_normal((n, p))
            # the last two columns shadow the planted ones so that some
            # candidates are genuine improvements after a drop
            x[:, 6] = x[:, 0] + 0.3 * rng.standard_normal(n)
            x[:, 7] = x[:, 3] + 0.3 * rng.standard_normal(n)
            w = np.zeros(p)
            w[[0, 3]] = 1.2
            y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
            data = sc.DesignMatrix.from_arrays(x, y)
            hp = sc.HyperParams(lambda0=0.1, lambda2=lam2)
            state = _restricted_fit(data, [0, 3], hp)
            loss_best = sc.smooth_logistic_loss(state, data, hp.lambda2)
            j = int(rng.choice([0, 3]))
            trial = state.copy()
            trial.set_coefficient(data, j, 0.0)
            j2 = int(rng.choice([c for c in range(p) if c not in (0, 3)]))
            res = fn(trial, data, hp, j2, loss_best)
            probe = sc.coordinate_probe(trial, data, j2, hp.lambda2)
            w_hat = logeng.iterate_threshold(probe, 0.0, hp.max_inner_iter)
            exhaustive = probe.value_at(w_hat) < loss_best - hp.objective_tol
            assert res.accepted == exhaustive
            if res.accepted:
                assert res.coefficient == pytest.approx(w_hat, abs=1e-6)
            hits[res.accepted] += 1
        assert hits[True] > 0 and hits[False] > 0


class TestFitSwap1Opt:
    def test_already_optimal_state_returned_unchanged(self):
        rng = np.random.default_rng(10)
        data = _planted(rng, n=400, p=5, idx=(0, 1, 2, 3, 4), scale=1.0)
        hp = sc.HyperParams(lambda0=0.05, lambda2=1e-3)
        state = sc.warm_start(data, hp)
        assert len(state.support) == 5
        # drive to swap optimality once, then a second pass must be a no-op
        settled = sc.fit_swap_1opt(state, data, hp)
        stats = sc.FitStats()
        again = sc.fit_swap_1opt(settled, data, hp, stats=stats)
        assert again is settled
        assert stats.swap_evals == len(settled.support)

    def test_empty_support_returns_immediately(self):
        rng = np.random.default_rng(11)
        data = _planted(rng, n=50, p=4, idx=(1,), scale=0.1)
        hp = sc.HyperParams(lambda0=50.0, lambda2=1e-3)
        state = sc.warm_start(data, hp)
        assert state.support == set()
        out = sc.fit_swap_1opt(state, data, hp)
        assert out is state

    def test_orderings_reach_equal_objectives(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            data = _planted(rng, n=150, p=12, idx=(1, 5, 9), scale=1.2)
            hp = sc.HyperParams(lambda0=0.08, lambda2=1e-3)
            start = sc.warm_start(data, hp)
            a = sc.fit_swap_1opt(start.copy(), data, hp, ordering="dynamic")
            b = sc.fit_swap_1opt(start.copy(), data, hp, ordering="sequential")
            oa = sc.objective(a, data, hp)
            ob = sc.objective(b, data, hp)
            assert oa == pytest.approx(ob, abs=1e-6)

    def test_candidate_limit_restricts_the_pool(self):
        # the true replacement ranks second by gradient, so a pool of one
        # cannot find it while the full pool can
        rng = np.random.default_rng(13)
        n = 300
        base = rng.standard_normal(n)
        decoy = base + 0.25 * rng.standard_normal(n)
        x = np.column_stack([
            base + 0.6 * rng.standard_normal(n),  # noisy stand-in, in support
            decoy * 1.05,                          # top-gradient decoy
            base,                                  # the real signal
        ])
        y = np.where(rng.random(n) < expit(2.2 * base), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp_full = sc.HyperParams(lambda0=0.02, lambda2=1e-3)
        state = _restricted_fit(data, [0], hp_full)
        out_full = sc.try_delete_or_swap(state, data, hp_full, 0)
        assert out_full.kind == "swapped"
        hp_one = sc.HyperParams(lambda0=0.02, lambda2=1e-3, candidate_limit=1)
        out_one = sc.try_delete_or_swap(state, data, hp_one, 0)
        if out_one.kind == "swapped":
            # with one slot only the top-ranked candidate can ever enter
            trial = state.copy()
            trial.set_coefficient(data, 0, 0.0)
            grads = [abs(sc.grad_j(trial, data, c, 0.0)) for c in (1, 2)]
            top = 1 if grads[0] >= grads[1] else 2
            assert out_one.added == top

    def test_quad_cut_requires_ridge(self):
        rng = np.random.default_rng(12)
        data = _planted(rng, n=50, p=4, idx=(1, 3))
        hp = sc.HyperParams(lambda0=0.1, lambda2=0.0)
        state = sc.warm_start(data, hp)
        with pytest.raises(sc.ConfigError):
            sc.fit_swap_1opt(state, data, hp, cut="quad")
