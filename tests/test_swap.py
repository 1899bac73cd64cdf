"""Delete-or-swap search tests."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import sparseclass as sc
from sparseclass import logistic as logeng
from sparseclass import swap
from sparseclass.core import EPS, OBJECTIVE_TOL, engine
from oracles import (coordinate_probe, direct_exponential_objective, direct_logistic_objective,
                     grad_j, grid_minimize, iterate_threshold, logistic_curve, reference_swap_visit,
                     scalar_try_add, screen_allowance, self_concordant_bound)


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
    engine(hp.loss).solve_support(state, data, hp)
    return state


def _scripted_search(monkeypatch, ordering, p, support, change):
    """``fit_swap_1opt`` with ``swap.try_delete_or_swap`` replaced by a
    script: ``change(j, visits, support)`` returns the support after the
    ``visits``-th visit of feature ``j``, or None for no change.  Returns
    the visits as (j, support at the visit, changed) and the stats."""
    visits, seen = [], Counter()

    def scripted(state, data, hp, j, cut="auto", stats=None):
        seen[j] += 1
        new = change(j, seen[j], set(state.support))
        visits.append((j, frozenset(state.support), new is not None))
        if new is None:
            return swap.SwapOutcome("no_change", None, None, state)
        kind = "deleted" if len(new) < len(state.support) else "swapped"
        return swap.SwapOutcome(kind, j, None, SimpleNamespace(support=set(new)))

    monkeypatch.setattr(swap, "try_delete_or_swap", scripted)
    stats = sc.FitStats()
    sc.fit_swap_1opt(SimpleNamespace(support=set(support)), SimpleNamespace(p=p),
                     sc.HyperParams(), ordering=ordering, stats=stats)
    return visits, stats


def _check_walks(visits, ordering):
    """Each walk visits its support in ascending (failures so far, index)
    under ``dynamic`` and ascending index under ``sequential``, up to and
    including its accepted change; the last walk, which accepts none,
    visits every support feature once."""
    failures = Counter()
    i = 0
    while i < len(visits):
        support = visits[i][1]
        key = (lambda j: (failures[j], j)) if ordering == "dynamic" else None
        order = sorted(support, key=key)
        walk, changed = [], False
        while i < len(visits) and not changed:
            j, at, changed = visits[i]
            assert at == support
            walk.append(j)
            if not changed:
                failures[j] += 1
            i += 1
        assert walk == order[:len(walk)]
        if not changed:
            assert i == len(visits) and sorted(walk) == sorted(support)


class TestWalkOrder:
    """The order in which ``fit_swap_1opt`` visits the support."""

    # Feature 9 is swapped for feature 1 at its first visit, and feature 2
    # is deleted at its second; every other visit changes nothing.
    @staticmethod
    def _change(j, visits, support):
        if (j, visits) == (9, 1):
            return support - {9} | {1}
        if (j, visits) == (2, 2):
            return support - {2}
        return None

    @pytest.mark.parametrize("ordering, expected", [
        # walk 2 leads with the never-tried 1 and 14, then 2 and 5 (one
        # failure each), ties by index; walk 3's three features each failed
        # once, so index decides
        ("dynamic", [2, 5, 9, 1, 14, 2, 1, 5, 14]),
        ("sequential", [2, 5, 9, 1, 2, 1, 5, 14]),
    ])
    def test_scripted_walks(self, ordering, expected, monkeypatch):
        visits, stats = _scripted_search(monkeypatch, ordering, 20, {14, 2, 9, 5}, self._change)
        assert [j for j, _, _ in visits] == expected
        assert stats.swap_evals == len(expected) and stats.cap_hits == 0
        _check_walks(visits, ordering)

    @pytest.mark.parametrize("ordering", swap.ORDERINGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_walks(self, ordering, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        p = 30
        budget = [12]  # accepted changes, so the search ends

        def change(j, visits, support):
            u = rng.random()
            if budget[0] <= 0 or u > 0.25:
                return None
            budget[0] -= 1
            if u < 0.1 or len(support) == p:
                return support - {j}
            return support - {j} | {int(rng.choice(sorted(set(range(p)) - support)))}

        support = {int(j) for j in rng.choice(p, size=9, replace=False)}
        visits, stats = _scripted_search(monkeypatch, ordering, p, support, change)
        assert sum(changed for _, _, changed in visits) == 12 - budget[0] > 0
        assert stats.swap_evals == len(visits)
        _check_walks(visits, ordering)


class TestCandidateOrder:
    @pytest.mark.parametrize("limit", [None, 1, 7, 500])
    def test_matches_list_filter_with_ties(self, limit):
        from sparseclass.core import _candidate_order
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

    @pytest.mark.parametrize("lam2", [0.0, 1e-3])
    def test_zero_column_is_no_candidate(self, lam2):
        # A ridge gives an all-zero column a curvature bound of 2 lam2 > 0,
        # but its slope is zero at any coefficient: it is not a candidate.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((100, 4))
        x[:, 3] = 0.0
        y = np.where(rng.random(100) < expit(1.5 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2]), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.05, lambda2=lam2)
        state = _restricted_fit(data, [0, 1, 2], hp)
        stats = sc.FitStats()
        out = sc.try_delete_or_swap(state, data, hp, 0, stats=stats)
        assert out.kind == "no_change"
        assert (stats.candidates, stats.cut_prunes, stats.line_searches) == (0, 0, 0)

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


class TestSupportSolveCount:
    """The support solve that ends an accepted delete or swap is where the
    swap search counts an uncertified solve, once per solve."""

    @staticmethod
    def _visit(kind):
        # the instances of the deletion, swap and no-change tests above
        rng = np.random.default_rng({"deleted": 2, "swapped": 3, "no_change": 4}[kind])
        hp = sc.HyperParams(lambda0=0.05, lambda2=1e-3)
        if kind == "deleted":
            x = rng.standard_normal((80, 3))
            x[:, 1] = x[:, 0]
            y = np.where(rng.random(80) < expit(1.2 * x[:, 0]), 1.0, -1.0)
            data = sc.DesignMatrix.from_arrays(x, y)
            state = _restricted_fit(data, [0], hp)
            state.set_coefficient(data, 1, 0.9)
            return data, hp, state, 1
        if kind == "swapped":
            x = rng.standard_normal((200, 7))
            x[:, 2] = 0.9 * x[:, 5] + 0.45 * rng.standard_normal(200)
            y = np.where(rng.random(200) < expit(1.6 * x[:, 5] + 1.2 * x[:, 0]), 1.0, -1.0)
            data = sc.DesignMatrix.from_arrays(x, y)
            return data, hp, _restricted_fit(data, [0, 2], hp), 2
        data = _planted(rng, n=300, p=6, idx=(2,), scale=2.0)
        hp = sc.HyperParams(lambda0=0.2, lambda2=1e-3)
        return data, hp, _restricted_fit(data, [2], hp), 2

    @pytest.mark.parametrize("kind", ["deleted", "swapped", "no_change"])
    def test_an_uncertified_solve_adds_one_cap_hit(self, kind, monkeypatch):
        data, hp, state, j = self._visit(kind)
        stats = sc.FitStats()
        assert sc.try_delete_or_swap(state, data, hp, j, stats=stats).kind == kind
        assert stats.cap_hits == 0  # the real solve is certified
        real, solves = logeng.solve_support, []

        def uncertified(trial, data, hp):
            solves.append(real(trial, data, hp))
            return False

        monkeypatch.setattr(logeng, "solve_support", uncertified)
        stats = sc.FitStats()
        assert sc.try_delete_or_swap(state, data, hp, j, stats=stats).kind == kind
        assert solves == ([] if kind == "no_change" else [True])
        assert stats.cap_hits == len(solves)


class TestObjectiveNeverRises:
    """Across every accepted delete or swap, the objective as the scalar
    oracles compute it does not rise beyond rounding."""

    @staticmethod
    def _instance(rng, loss, kind):
        n = int(rng.integers(40, 120))
        if kind == "dummies":
            raw = np.column_stack([rng.standard_normal((n, 3)), rng.integers(0, 5, size=(n, 2))])
            y = np.where(rng.random(n) < expit(raw[:, 0] - raw[:, 3] + 1.0), 1.0, -1.0)
            data, _ = sc.binarize(sc.DesignMatrix.from_arrays(raw, y),
                                  direction=str(rng.choice(["<=", ">="])),
                                  encoding=engine(loss).BINARIZE_ENCODING,
                                  max_thresholds=int(rng.integers(2, 12)))
            return data
        x = rng.standard_normal((n, 10))
        if loss == "exponential":
            x = np.where(x > 0.0, 1.0, -1.0)
        else:
            x[:, 0] = 0.0
        y = np.where(rng.random(n) < expit(1.2 * (x[:, 1] - x[:, 6])), 1.0, -1.0)
        return sc.DesignMatrix.from_arrays(x, y)

    @staticmethod
    def _oracle(state, data, hp):
        x, y = np.asarray(data.x), np.asarray(data.y)
        if hp.loss == "exponential":
            return direct_exponential_objective(x, y, state.w, state.intercept, hp.lambda0)
        return direct_logistic_objective(x, y, state.w, state.intercept, hp.lambda0, hp.lambda2)

    @pytest.mark.parametrize("kind", ["generic", "dummies"])
    @pytest.mark.parametrize("loss", ["logistic", "exponential"])
    def test_accepted_changes_never_raise_the_oracle_objective(self, loss, kind):
        rng = np.random.default_rng(31 if loss == "logistic" else 32)
        outcomes = Counter()
        for _ in range(12):
            data = self._instance(rng, loss, kind)
            hp = sc.HyperParams(lambda0=float(rng.uniform(0.2, 2.0)), loss=loss,
                                lambda2=1e-3 if loss == "logistic" else 0.0)
            # a random support fitted on its own, so that changes get accepted
            state = engine(loss).new_state(data)
            for j in rng.choice(data.p, size=min(4, data.p), replace=False):
                state.set_coefficient(data, int(j), float(rng.uniform(-0.5, 0.5)))
            engine(loss).solve_support(state, data, hp)
            if kind == "generic" and loss == "logistic":
                state.set_coefficient(data, 0, 0.5)  # its deletion lowers the ridge alone
            for _ in range(8):
                if not state.support:
                    break
                j = int(rng.choice(sorted(state.support)))
                out = sc.try_delete_or_swap(state, data, hp, j)
                outcomes[out.kind] += 1
                if out.kind == "no_change":
                    continue
                old = self._oracle(state, data, hp)
                new = self._oracle(out.new_state, data, hp)
                # rounding of the oracle's n-term sums and of the solver's
                # acceptance tests, both far below 64 n EPS of the value
                assert new <= old + 64 * data.n * EPS * abs(old)
                state = out.new_state
        assert outcomes["swapped"] > 0 and outcomes["no_change"] > 0
        assert outcomes["deleted"] > 0 or (kind, loss) != ("generic", "logistic")


class TestTryAdd:
    @staticmethod
    def _find_one(trial, data, hp, j2, loss_best, cut):
        """``logistic.find_swap`` with every feature but ``j2`` forbidden:
        the result (None or (j2, coefficient)) and the visit's counters."""
        stats = sc.FitStats()
        found = logeng.find_swap(trial, data, hp, set(range(data.p)) - {j2},
                                 sc.smooth_logistic_loss(trial, data, hp.lambda2),
                                 loss_best - OBJECTIVE_TOL, cut, stats)
        assert stats.candidates == 1
        return found, stats

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
        found, stats = self._find_one(trial, data, hp, 2, loss_best, "quad")
        assert found is None and stats.cut_prunes == 1
        _, fmin = self._probe_oracle_min(trial, data, 2, hp.lambda2)
        assert fmin > loss_best - 1e-8

    def test_strong_candidate_accepted_near_grid_minimizer(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = self._three_column_instance(rng)
        # enough line-search steps to pin the coefficient down tightly
        monkeypatch.setattr(logeng, "LINE_SEARCH_STEPS", 80)
        hp = sc.HyperParams(lambda0=0.1, lambda2=1e-3)
        # incumbent support is the junk column; swapping in the signal's twin
        # is a large improvement
        state = _restricted_fit(data, [2], hp)
        loss_best = sc.smooth_logistic_loss(state, data, hp.lambda2)
        trial = state.copy()
        trial.set_coefficient(data, 2, 0.0)
        found, _ = self._find_one(trial, data, hp, 1, loss_best, "quad")
        assert found is not None and found[0] == 1
        xmin, _ = self._probe_oracle_min(trial, data, 1, hp.lambda2)
        assert found[1] == pytest.approx(xmin, abs=1e-3)

    @pytest.mark.parametrize("lam2,cut", [(0.0, "lin"), (1e-3, "quad")])
    def test_decisions_match_exhaustive_line_search(self, lam2, cut):
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
            found, _ = self._find_one(trial, data, hp, j2, loss_best, cut)
            accepted = found is not None
            probe = coordinate_probe(trial, data, j2, hp.lambda2)
            w_hat = iterate_threshold(probe, 0.0, logeng.LINE_SEARCH_STEPS)
            exhaustive = probe.value_at(w_hat) < loss_best - OBJECTIVE_TOL
            assert accepted == exhaustive
            if accepted:
                assert found[1] == pytest.approx(w_hat, abs=1e-6)
            hits[accepted] += 1
        assert hits[True] > 0 and hits[False] > 0


def _wide_instance(scale, n=150, p=240):
    """A stand-in for the signal in column 0, plus the signal itself in
    column 7 scaled by ``scale``: the smaller the scale, the smaller its
    gradient and the later the scan reaches it, while its line search
    reaches the same loss.  Column 9 is its negated copy and column 20 a
    copy of column 30 (ties in gradient magnitude), column 50 is zero (inert
    at lambda2 = 0), and column 60 has slope exactly 0 at every state:
    rows 0 and 1 are equal, so their margins are, and it is +1 and -1 on
    them and 0 elsewhere in the signed design."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, p))
    base = rng.standard_normal(n)
    x[:, 0] = base + 0.8 * rng.standard_normal(n)
    y = np.where(rng.random(n) < expit(1.8 * base + x[:, 1]), 1.0, -1.0)
    x[:, 7] = scale * base
    x[:, 9] = -x[:, 7]
    x[:, 20] = x[:, 30]
    x[:, 50] = 0.0
    x[1], y[1] = x[0], y[0]
    x[:, 60] = 0.0
    x[0, 60], x[1, 60] = y[0], -y[1]
    return sc.DesignMatrix.from_arrays(x, y)


class TestBlockEvaluation:
    # Small ridges leave most 1-D optima beyond twice the surrogate step;
    # ridges of 1 and 5 bring them nearer, onto the other bracket branches.
    CONFIGS = [(0.0, "lin"), (1e-3, "lin"), (1e-3, "quad"), (1.0, "quad"),
               (5.0, "lin"), (5.0, "quad")]

    def test_matches_sequential_scalar_scan(self, monkeypatch):
        """Every visit decides and counts as the scalar scan of
        ``oracles.reference_swap_visit``, whole visits in one block or
        spread over blocks of 16, with and without a candidate limit."""
        seen = {"mid_block": 0, "later_block": 0, "full_scan": 0, "rejected_searches": 0}
        branches = Counter()
        for lam2, cut in self.CONFIGS:
            for scale in (0.3, 0.2):
                data = _wide_instance(scale)
                for limit in (None, 40):
                    hp = sc.HyperParams(lambda0=0.1, lambda2=lam2, candidate_limit=limit)
                    # Weak support features make the settled state's visits
                    # scan every candidate, with line searches that fail.
                    start = _restricted_fit(data, [0, 1, 2, *range(100, 112)], hp)
                    settled = sc.fit_swap_1opt(start, data, hp, cut=cut)
                    for state in (start, settled):
                        assert data.signed[:, 60] @ expit(-state.margins) == 0.0
                        for j in sorted(state.support)[:4]:
                            ref = reference_swap_visit(state, data, hp, j, cut)
                            self._check_visit(state, data, hp, j, cut, ref, monkeypatch)
                            branches += ref["branches"]
                            accepted_at = ref["candidates"]
                            if ref["kind"] == "swapped":
                                seen["mid_block"] += 1 < accepted_at < 16
                                seen["later_block"] += accepted_at > 16
                            elif ref["kind"] == "no_change" and limit is None:
                                seen["full_scan"] += 1
                            seen["rejected_searches"] += (ref["line_searches"]
                                                          - (ref["kind"] == "swapped"))
        assert all(seen.values()), seen
        # In these visits no candidate whose optimum lies beyond K steps is
        # good enough to be line-searched; the threshold ladder of
        # ``test_every_outcome_at_any_threshold_matches_scalar_screening``
        # reaches that branch.
        expected = {("zero", "pruned"), ("zero", "rejected"), ("reach", "pruned"),
                    ("bracket", "pruned"), ("bracket", "searched")}
        assert expected <= set(branches), expected - set(branches)

    @pytest.mark.parametrize("lam2,cut", CONFIGS)
    def test_every_block_candidate_matches_scalar_screening(self, lam2, cut):
        """All candidates of a block, also those after an acceptance, are
        pruned, rejected or line-searched as ``oracles.scalar_try_add``
        screens them alone."""
        data = _wide_instance(0.2)
        hp = sc.HyperParams(lambda0=0.1, lambda2=lam2)
        start = _restricted_fit(data, [0, 1, 2, *range(100, 112)], hp)
        settled = sc.fit_swap_1opt(start, data, hp, cut=cut)
        for state in (start, settled):
            loss_best = sc.smooth_logistic_loss(state, data, lam2)
            threshold = loss_best - OBJECTIVE_TOL
            for j in sorted(state.support)[:2]:
                self._screen_visit(state, data, hp, j, cut, threshold)

    @pytest.mark.parametrize("lam2,cut", [(0.0, "lin"), (1e-3, "quad")])
    def test_every_outcome_at_any_threshold_matches_scalar_screening(self, lam2, cut):
        """Thresholds from just below the dropped loss down to far below it
        reach every branch of the screen, searched and pruned, and every
        candidate is decided as ``oracles.scalar_try_add`` decides it."""
        data = _wide_instance(0.2)
        hp = sc.HyperParams(lambda0=0.1, lambda2=lam2)
        state = sc.fit_swap_1opt(_restricted_fit(data, [0, 1, 2, *range(100, 112)], hp),
                                 data, hp, cut=cut)
        branches = Counter()
        # Under ``quad`` the self-concordant cut at zero prunes every reach
        # prune of the first two visits; the third has reach prunes left.
        for j in sorted(state.support)[:3]:
            trial = state.copy()
            trial.set_coefficient(data, j, 0.0)
            f0 = sc.smooth_logistic_loss(trial, data, lam2)
            for gap in (1e-6, 1e-3, 0.1, 1.0, 10.0):
                branches += self._screen_visit(state, data, hp, j, cut, f0 - gap)
        expected = {(branch, step) for branch in ("reach", "bracket")
                    for step in ("pruned", "searched")}
        assert expected <= set(branches), expected - set(branches)

    def test_settled_c06_visits_run_no_reach_pass(self, monkeypatch):
        """On acceptance c06's instance of seed 7000, settled by the swap
        search, the cuts at zero prune every candidate of every visit, so
        no ``BlockProbe`` pass runs."""
        rng = np.random.default_rng(7000)
        n, p, k = 300, 200, 8
        x = rng.standard_normal((n, p))
        w = np.zeros(p)
        w[rng.choice(p, size=k, replace=False)] = 1.2
        y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.15, lambda2=1e-3)
        settled = sc.fit_one(data, hp)
        passes = []
        real = logeng.BlockProbe.evaluate

        def evaluate(probe, t, curvature=False):
            passes.append(len(t))
            return real(probe, t, curvature)

        monkeypatch.setattr(logeng.BlockProbe, "evaluate", evaluate)
        for j in sorted(settled.support):
            stats = sc.FitStats()
            out = sc.try_delete_or_swap(settled, data, hp, j, cut="quad", stats=stats)
            assert out.kind == "no_change"
            assert stats.cut_prunes == stats.candidates == p - len(settled.support)
        assert passes == []

    @staticmethod
    def _screen_visit(state, data, hp, j, cut, threshold):
        """Screen every candidate of the visit of ``j`` in one block at
        ``threshold``, check each against the scalar screen and return the
        tally of (branch, step) pairs."""
        lam2 = hp.lambda2
        lip = logeng.lipschitz_all(data, lam2)
        trial = state.copy()
        trial.set_coefficient(data, j, 0.0)
        f0 = sc.smooth_logistic_loss(trial, data, lam2)
        base_sq = float(trial.w @ trial.w)
        grads = -(data.signed.T @ expit(-trial.margins))
        cands = np.array([c for c in range(data.p)
                          if c not in state.support and lip[c] > 0.0])
        probe = logeng.BlockProbe(trial.margins, data.signed.T[cands], lam2, base_sq)
        res = logeng.screen_block(probe, grads[cands], lip[cands], f0, threshold,
                                  cut == "quad", logeng.LINE_SEARCH_STEPS)
        branches = Counter()
        for i, c in enumerate(cands):
            scalar = logeng.CoordinateProbe(trial.margins, data.signed[:, c], lam2=lam2,
                                            base_sq=base_sq, lipschitz=float(lip[c]),
                                            f0=f0)
            step, branch, accepted, w_hat = scalar_try_add(scalar, float(grads[c]),
                                                           threshold, cut == "quad")
            got = ("pruned" if res.pruned[i]
                   else "searched" if res.searched[i] else "rejected")
            assert (got, bool(res.accepted[i])) == (step, accepted), c
            if accepted:
                assert res.coefficient[i] == pytest.approx(w_hat, abs=1e-10)
            branches[branch, step] += 1
        return branches

    def _check_visit(self, state, data, hp, j, cut, ref, monkeypatch):
        for width in (None, 16):
            if width is not None:
                monkeypatch.setattr(logeng, "BLOCK_ELEMENTS", width * data.n)
            got = self._visit(state, data, hp, j, cut, monkeypatch)
            monkeypatch.undo()
            assert got["kind"] == ref["kind"]
            assert got["removed"] == ref["removed"]
            assert got["added"] == ref["added"]
            for key in ("cut_prunes", "candidates", "line_searches"):
                assert got[key] == ref[key], key
            if ref["kind"] == "swapped":
                assert got["coefficient"] == pytest.approx(ref["coefficient"], abs=1e-10)

    @staticmethod
    def _visit(state, data, hp, j, cut, monkeypatch):
        """``try_delete_or_swap`` with its counters and the added coefficient
        as the evaluator set it, before the support is solved."""
        added = {}
        real = logeng.solve_support

        def record(trial, data, hp):
            added.setdefault("w", trial.w.copy())
            return real(trial, data, hp)

        monkeypatch.setattr(logeng, "solve_support", record)
        stats = sc.FitStats()
        out = sc.try_delete_or_swap(state, data, hp, j, cut=cut, stats=stats)
        return {"kind": out.kind, "removed": out.removed, "added": out.added,
                "coefficient": added["w"][out.added] if out.kind == "swapped" else None,
                "cut_prunes": stats.cut_prunes, "candidates": stats.candidates,
                "line_searches": stats.line_searches}


def _random_probe(seed, lam2):
    """A c02-style 1-D restriction: random base margins and a +-1 or
    Gaussian column of 8 to 25 rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 26))
    base = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
    u = rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5 else rng.standard_normal(n)
    return logeng.CoordinateProbe(base, u, lam2=lam2)


def _reach_point(probe, iterations):
    """Kt with its value, slope and curvature bound from one block pass."""
    s0 = probe.slope_at(0.0)
    x = iterations * (-s0 / probe.lipschitz)
    block = logeng.BlockProbe(probe.base_margins, probe.u[None, :], probe.lam2)
    fk, sk, mu = block.evaluate(np.array([x]), curvature=True)
    return s0, x, float(fk[0]), float(sk[0]), float(mu[0])


_PROBES = dict(seed=st.integers(0, 2**32 - 1), iterations=st.integers(1, 12),
               lam2=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]))


class TestScreenSoundness:
    """The two bounds of ``logistic.screen_block`` against 1-D oracles."""

    @settings(max_examples=300, deadline=None)
    @given(**_PROBES)
    def test_reach_bound_never_exceeds_the_search_loss(self, seed, iterations, lam2):
        probe = _random_probe(seed, lam2)
        s0, x, fk, sk, _ = _reach_point(probe, iterations)
        assume(s0 * sk > 0.0)
        w = iterate_threshold(probe, 0.0, iterations)
        assert abs(w) <= abs(x) * (1.0 + 1e-12)
        allowance = screen_allowance(probe.u.size, iterations, probe.f0, fk,
                                     probe.lipschitz, x, 0.0)
        assert fk <= probe.value_at(w) + allowance

    @settings(max_examples=300, deadline=None)
    @given(**_PROBES)
    def test_curvature_bound_holds_between_zero_and_the_reach_point(self, seed, iterations,
                                                                     lam2):
        probe = _random_probe(seed, lam2)
        _, x, _, _, mu = _reach_point(probe, iterations)
        m = probe.base_margins[None, :] + np.linspace(0.0, x, 201)[:, None] * probe.u
        second = (probe.u ** 2 * expit(m) * expit(-m)).sum(axis=1) + 2.0 * lam2
        assert mu <= second.min() * (1.0 + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(**_PROBES)
    def test_bracket_cuts_never_exceed_the_grid_minimum(self, seed, iterations, lam2):
        """Both cuts, the curvature cut also at lam2 = 0, where only the
        tangent-line cut screens."""
        probe = _random_probe(seed, lam2)
        s0, x, fk, sk, mu = _reach_point(probe, iterations)
        assume(s0 != 0.0 and s0 * sk <= 0.0)
        lo, hi = sorted((0.0, x))
        step = (hi - lo) / 4000 + 1e-12
        _, fmin = grid_minimize(logistic_curve(probe.base_margins, probe.u, lam2),
                                lo - step, hi + step, step, step / 100)
        f0 = probe.f0
        assert logeng._lin_cut_val(f0, s0, 0.0, fk, sk, x) <= fmin + 1e-9
        assert logeng._quad_cut_two_val(f0, s0, 0.0, fk, sk, x, 0.5 * mu) <= fmin + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(**_PROBES)
    def test_screen_keeps_every_search_that_succeeds(self, seed, iterations, lam2):
        """Just above the search's loss the candidate is accepted, just
        below it rejected, whichever bound applies."""
        probe = _random_probe(seed, lam2)
        s0 = probe.slope_at(0.0)
        assume(s0 != 0.0)
        w = iterate_threshold(probe, 0.0, iterations)
        loss = probe.value_at(w)
        block = logeng.BlockProbe(probe.base_margins, probe.u[None, :], lam2)
        for sign in (1.0, -1.0):
            res = logeng.screen_block(block, np.array([s0]), np.array([probe.lipschitz]),
                                      probe.f0, loss + sign * 1e-9 * (1.0 + abs(loss)),
                                      lam2 > 0.0, iterations)
            assert bool(res.accepted[0]) == (sign > 0.0)
            if sign > 0.0:
                assert res.coefficient[0] == pytest.approx(w, abs=1e-10)


class TestSelfConcordantCut:
    """The cut at zero of ``logistic.screen_block`` against the K-step
    search on random 1-D restrictions."""

    def test_never_exceeds_the_search_loss(self):
        """The bound less its allowance is never above the loss that
        ``iterate_threshold`` reaches.  The restrictions have +-1 or
        Gaussian columns and margins within +-20, or, for one in ten, all
        beyond exp's underflow (mu0 = 0); the minimizer of the bound falls
        inside [0, |Kt|], at |Kt|, or nowhere (|s0| rho >= mu0)."""
        branches = Counter()
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 26))
            u = rng.choice([-1.0, 1.0], size=n) if rng.random() < 0.5 else rng.standard_normal(n)
            if rng.random() < 0.1:
                base = np.full(n, -800.0)
            else:
                base = np.clip(rng.uniform(-20.0, 20.0)
                               + rng.uniform(0.1, 5.0) * rng.standard_normal(n), -20.0, 20.0)
            lam2 = float(rng.choice([0.0, 1e-3, 1e-2, 0.1]))
            iterations = int(rng.integers(1, 13))
            probe = logeng.CoordinateProbe(base, u, lam2=lam2)
            s0 = probe.slope_at(0.0)
            if s0 == 0.0:
                continue
            x = iterations * (-s0 / probe.lipschitz)
            mu0, third = logeng.BlockProbe(base, u[None, :], lam2).zero_curvature()
            bound = float(logeng._self_concordant_cut_val(probe.f0, abs(s0), abs(x), mu0,
                                                          third)[0])
            allowance = float(logeng._allowance(n, iterations, 2.0 * abs(probe.f0),
                                                probe.lipschitz, abs(x), 2.0 * mu0)[0])
            w_hat = iterate_threshold(probe, 0.0, iterations)
            assert bound - allowance <= probe.value_at(w_hat), seed
            assert bound == pytest.approx(self_concordant_bound(probe, s0, x)[0], rel=0.0,
                                          abs=1e-12 * (abs(probe.f0) + abs(s0 * x))), seed
            mu0, third = float(mu0[0]), float(third[0])
            if mu0 == 0.0:
                branches["mu0 = 0"] += 1
            elif abs(s0) * third >= mu0 * mu0:
                branches["no minimizer"] += 1
            elif -np.log1p(-abs(s0) * third / (mu0 * mu0)) * mu0 / third >= abs(x):
                branches["at |Kt|"] += 1
            else:
                branches["inside"] += 1
        assert len(branches) == 4 and min(branches.values()) >= 20, branches


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
            grads = [abs(grad_j(trial, data, c, 0.0)) for c in (1, 2)]
            top = 1 if grads[0] >= grads[1] else 2
            assert out_one.added == top

    def test_quad_cut_requires_ridge(self):
        rng = np.random.default_rng(12)
        data = _planted(rng, n=50, p=4, idx=(1, 3))
        hp = sc.HyperParams(lambda0=0.1, lambda2=0.0)
        state = sc.warm_start(data, hp)
        with pytest.raises(sc.ConfigError):
            sc.fit_swap_1opt(state, data, hp, cut="quad")

    def test_pass_bound_counts_cap_hit(self, monkeypatch):
        # the first walk swaps the noisy copy 2 for the true feature 5, so
        # a search bounded to one walk stops before its stop test is met
        rng = np.random.default_rng(3)
        n, p = 200, 7
        x = rng.standard_normal((n, p))
        x[:, 2] = 0.9 * x[:, 5] + 0.45 * rng.standard_normal(n)
        y = np.where(rng.random(n) < expit(1.6 * x[:, 5] + 1.2 * x[:, 0]), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        hp = sc.HyperParams(lambda0=0.05, lambda2=1e-3)
        state = _restricted_fit(data, [0, 2], hp)
        stats = sc.FitStats()
        sc.fit_swap_1opt(state.copy(), data, hp, stats=stats)
        assert stats.cap_hits == 0
        walks = stats.swap_evals
        monkeypatch.setattr(swap, "SWAP_MAX_PASSES", 1)
        stats = sc.FitStats()
        out = sc.fit_swap_1opt(state.copy(), data, hp, stats=stats)
        assert stats.cap_hits == 1
        assert 5 in out.support and 2 not in out.support
        assert stats.swap_evals < walks


class TestSearchClaims:
    """The paper's two claims about the swap search, on acceptance c07's
    reference path (seed 0), where the search accepts changes: the
    quadratic cut saves line searches over the tangent cut without
    changing any answer, and failure-count ordering saves swap evaluations
    over the sequential order.  Only the directions are asserted."""

    GRID = (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.8)

    @pytest.fixture(scope="class")
    def paths(self):
        data, _ = sc.gen_classification(sc.SynthSpec(n=800, p=1000, k=25, rho=0.9, seed=0))
        spec = sc.PathSpec(lambda0_grid=self.GRID, lambda2_grid=(1e-5,), loss="logistic",
                           base=sc.HyperParams(loss="logistic", candidate_limit=50))
        runs = {(ordering, cut): sc.fit_path(data, spec, ordering=ordering, cut=cut).entries
                for ordering, cut in (("dynamic", "quad"), ("dynamic", "lin"),
                                      ("sequential", "quad"))}
        for entries in runs.values():
            assert all(e.error is None for e in entries)
        return runs

    @staticmethod
    def _total(entries, counter):
        return sum(getattr(e, counter) for e in entries)

    def test_cuts_give_the_same_answers(self, paths):
        quad, lin = paths["dynamic", "quad"], paths["dynamic", "lin"]
        assert [e.state.support for e in quad] == [e.state.support for e in lin]
        assert [e.objective for e in quad] == [e.objective for e in lin]
        assert self._total(quad, "candidates") == self._total(lin, "candidates")

    def test_quad_cut_runs_fewer_line_searches(self, paths):
        quad, lin = paths["dynamic", "quad"], paths["dynamic", "lin"]
        assert self._total(quad, "line_searches") < self._total(lin, "line_searches")

    def test_dynamic_ordering_makes_fewer_swap_evaluations(self, paths):
        # a search that accepts nothing visits every support feature once in
        # either order, so the two counts can differ only where it accepts
        dynamic, sequential = paths["dynamic", "quad"], paths["sequential", "quad"]
        assert self._total(dynamic, "swap_evals") < self._total(sequential, "swap_evals")
