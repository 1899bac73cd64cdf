"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in captured
output).  Oracles come from tests/oracles.py and are independent of the
solver code they check.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.special import expit

import sparseclass as sc
from sparseclass import logistic as logeng
from sparseclass.core import OBJECTIVE_TOL
from sparseclass.swap import reoptimize
from oracles import (
    brute_auc,
    coordinate_probe,
    d_minus,
    exp_coordinate_update,
    exp_curve,
    grad_j,
    grid_minimize,
    logistic_curve,
    random_logistic_instance,
    threshold_step,
)


def criterion(num, name, budget_s):
    """Wrap a test so it prints one line and honors its runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            extra = f" [{detail}]" if detail else ""
            print(f"criterion {num:02d} ({name}): PASS in {elapsed:.1f}s{extra}")
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
        return wrapper
    return deco


def _random_support_state(data, rng, k, scale=0.8):
    state = sc.ModelState.zeros(data)
    for j in rng.choice(data.p, size=k, replace=False):
        state.set_coefficient(data, int(j), float(rng.standard_normal() * scale))
    state.set_intercept(data, float(rng.standard_normal() * 0.2))
    return state


@criterion(1, "one-sided monotone thresholding steps", budget_s=10)
def test_c01_thresholding_same_side_and_descent():
    steps = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((50, 10))
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        lam2 = 0.0 if seed % 2 == 0 else 1e-3
        hp = sc.HyperParams(lambda0=0.0, lambda2=lam2)
        state = _random_support_state(data, rng, k=3)
        for j in range(data.p):
            g_before = grad_j(state, data, j, lam2)
            loss_before = sc.smooth_logistic_loss(state, data, lam2)
            state.set_coefficient(data, j, threshold_step(state, data, j, hp))
            g_after = grad_j(state, data, j, lam2)
            loss_after = sc.smooth_logistic_loss(state, data, lam2)
            assert g_before * g_after >= -1e-10
            assert loss_before - loss_after >= -1e-10
            steps += 1
    return f"{steps} steps"


def _bracket(probe, s0, start=0.25, spans=13):
    direction = -math.copysign(1.0, s0)
    prev = 0.0
    x = direction * start
    for _ in range(spans):
        if probe.slope_at(x) * s0 <= 0.0:
            return prev, x
        prev = x
        x *= 2.0
    return None


@criterion(2, "cut soundness against the grid oracle", budget_s=30)
def test_c02_cut_soundness():
    rng = np.random.default_rng(2024)
    checked = two_point = 0
    while checked < 1000:
        n = int(rng.integers(8, 25))
        base = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            u = rng.choice([-1.0, 1.0], size=n)
        else:
            u = rng.standard_normal(n)
            if float(u @ u) < 1e-6:
                continue
        lam2 = float(rng.choice([0.0, 1e-3, 1e-2, 0.1])) if checked % 10 < 3 \
            else float(rng.choice([1e-3, 1e-2, 0.1]))
        probe = logeng.CoordinateProbe(base, u, lam2=lam2)
        fvec = logistic_curve(base, u, lam2, 0.0)
        _, fmin = grid_minimize(fvec)
        if lam2 > 0.0:
            x1 = float(rng.uniform(-3, 3))
            assert logeng._quad_cut_one_val(*probe.eval_at(x1), lam2) <= fmin + 1e-8
        s0 = probe.slope_at(0.0)
        if s0 != 0.0:
            pair = _bracket(probe, s0)
            if pair is not None:
                a, b = pair
                anchors = (*probe.eval_at(a), a, *probe.eval_at(b), b)
                lin = logeng._lin_cut_val(*anchors)
                assert lin <= fmin + 1e-8
                if lam2 > 0.0:
                    two = logeng._quad_cut_two_val(*anchors, lam2)
                    assert two <= fmin + 1e-8
                    assert two >= lin - 1e-10
                    two_point += 1
        checked += 1
    assert two_point >= 300
    return f"{checked} probes, {two_point} two-point comparisons"


@criterion(3, "cut pruning never changes decisions", budget_s=60)
def test_c03_pruning_decision_equivalence():
    rng = np.random.default_rng(77)
    invocations = accepted = pruned = 0
    while invocations < 500:
        n, p = 60, 8
        x = rng.standard_normal((n, p))
        x[:, 6] = x[:, 0] + 0.3 * rng.standard_normal(n)
        x[:, 7] = x[:, 3] + 0.3 * rng.standard_normal(n)
        w = np.zeros(p)
        w[[0, 3]] = 1.2
        y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
        data = sc.DesignMatrix.from_arrays(x, y)
        lam2 = 0.0 if invocations % 2 == 0 else 1e-3
        hp = sc.HyperParams(lambda0=0.1, lambda2=lam2)
        state = sc.ModelState.zeros(data)
        for j in (0, 3):
            state.set_coefficient(data, j, 1e-3)
        reoptimize(state, data, hp)
        loss_best = sc.smooth_logistic_loss(state, data, lam2)
        for j in (0, 3):
            trial = state.copy()
            trial.set_coefficient(data, j, 0.0)
            for j2 in rng.choice([c for c in range(p) if c not in (0, 3)],
                                 size=2, replace=False):
                # the swap search's own evaluator, with j2 the only candidate
                stats = sc.FitStats()
                found = logeng.find_swap(trial, data, hp, set(range(p)) - {int(j2)},
                                         sc.smooth_logistic_loss(trial, data, lam2),
                                         loss_best - OBJECTIVE_TOL,
                                         "quad" if lam2 > 0.0 else "lin", stats)
                assert stats.candidates == 1
                probe = coordinate_probe(trial, data, int(j2), lam2)
                w_hat = logeng.iterate_threshold(probe, 0.0, logeng.LINE_SEARCH_STEPS)
                exhaustive = probe.value_at(w_hat) < loss_best - OBJECTIVE_TOL
                assert (found is not None) == exhaustive
                if found is not None:
                    assert found[1] == pytest.approx(w_hat, abs=1e-6)
                    accepted += 1
                if stats.cut_prunes:
                    pruned += 1
                invocations += 1
    assert accepted > 0 and pruned > 0
    return f"{invocations} invocations, {accepted} accepts, {pruned} prunes"


@criterion(4, "analytic zero test matches loss-reduction oracle", budget_s=30)
def test_c04_exponential_interval_oracle():
    # hand-worked case: quarter of the mass on the negative side of the
    # column, uniform weights, H = 4, penalty 0.5
    x = np.array([[1.0], [1.0], [1.0], [-1.0]])
    data = sc.DesignMatrix.from_arrays(x, np.ones(4))
    state = sc.ExpState.zeros(data)
    new = exp_coordinate_update(state, data, 0, 0.5)
    assert new == pytest.approx(0.5 * math.log(3.0), rel=1e-12)
    assert 4.0 - state.H == pytest.approx(0.535898, abs=1e-6)

    rng = np.random.default_rng(88)
    cases = zeroed = 0
    while cases < 500:
        n = int(rng.integers(12, 40))
        p = int(rng.integers(3, 7))
        xb = rng.choice([-1.0, 1.0], size=(n, p))
        yb = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        datab = sc.DesignMatrix.from_arrays(xb, yb)
        state = sc.ExpState.zeros(datab)
        for j in rng.choice(p, size=int(rng.integers(0, 3)), replace=False):
            state.set_coefficient(datab, int(j), float(rng.standard_normal() * 0.6))
        j = int(rng.integers(p))
        lam0 = float(rng.choice([0.0, 0.1, 0.5, 1.0, 3.0, 10.0]))
        wj = float(state.w[j])
        if wj == 0.0:
            h_ref = state.H
            d = d_minus(state, datab, j)
            c_ref = state.c.copy()
        else:
            scratch = state.copy()
            scratch.set_coefficient(datab, j, 0.0)
            h_ref = scratch.H
            d = d_minus(state, datab, j, exclude_own=True)
            c_ref = scratch.c.copy()
        drop = h_ref - 2.0 * h_ref * math.sqrt(d * (1.0 - d))
        new = exp_coordinate_update(state, datab, j, lam0)
        assert (new == 0.0) == (drop <= lam0), (drop, lam0, new)
        if new != 0.0 and 1e-6 < d < 1 - 1e-6:
            xmin, _ = grid_minimize(exp_curve(c_ref, datab.signed[:, j]))
            assert new == pytest.approx(xmin, abs=1e-6)
        else:
            zeroed += 1
        cases += 1
    assert 0 < zeroed < 500
    return f"{cases} cases, {zeroed} zero decisions"


@criterion(5, "swap-optimal certificate by exhaustive enumeration", budget_s=120)
def test_c05_swap_certificate():
    from oracles import newton_fit_exponential, newton_fit_logistic

    pairs_checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        loss = "exponential" if seed >= 12 else "logistic"
        n = 80
        p = int(rng.integers(10, 16))
        k = int(rng.integers(3, 5))
        x, y, _ = random_logistic_instance(rng, n, p, k=k, scale=1.2,
                                           binary=(loss == "exponential"))
        data = sc.DesignMatrix.from_arrays(x, y)
        lam2 = float(rng.choice([0.0, 1e-3])) if loss == "logistic" else 0.0
        lam0 = float(rng.choice([0.05, 0.1, 0.2])) if loss == "logistic" \
            else float(rng.choice([0.5, 1.0]))
        hp = sc.HyperParams(lambda0=lam0, lambda2=lam2, loss=loss)
        state = sc.fit_one(data, hp)
        obj = sc.objective(state, data, hp)
        outside = [j for j in range(p) if j not in state.support]
        for j in sorted(state.support):
            for j2 in outside:
                support2 = (state.support - {j}) | {j2}
                if loss == "logistic":
                    _, _, smooth = newton_fit_logistic(x, y, support2, lam2)
                else:
                    _, _, smooth = newton_fit_exponential(x, y, support2)
                alt = smooth + lam0 * len(support2)
                assert obj - alt <= 1e-6, (seed, j, j2, obj - alt)
                pairs_checked += 1
    return f"{pairs_checked} swap pairs enumerated"


def _ordering_instance():
    rng = np.random.default_rng(42)
    n, p = 400, 16
    x = rng.standard_normal((n, p))
    x[:, 3] = 0.85 * x[:, 5] + 0.5 * rng.standard_normal(n)
    x[:, 9] = 0.85 * x[:, 10] + 0.5 * rng.standard_normal(n)
    w = np.zeros(p)
    w[[1, 5, 7, 10, 11, 15]] = 1.0
    y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
    return sc.DesignMatrix.from_arrays(x, y)


@criterion(6, "failure-count ordering saves evaluations", budget_s=60)
def test_c06_dynamic_ordering_ablation():
    data = _ordering_instance()
    hp = sc.HyperParams(lambda0=0.1, lambda2=1e-3)

    def start_state():
        st = sc.ModelState.zeros(data)
        for j in (1, 3, 7, 9, 11, 15):
            st.set_coefficient(data, j, 1e-3)
        reoptimize(st, data, hp)
        return st

    results = {}
    for ordering in ("dynamic", "sequential"):
        stats = sc.FitStats()
        out = sc.fit_swap_1opt(start_state(), data, hp, ordering=ordering, stats=stats)
        # both orderings repair the two shadowed features
        assert out.support == {1, 5, 7, 10, 11, 15}
        results[ordering] = (stats.swap_evals, sc.objective(out, data, hp))
    dyn_calls, dyn_obj = results["dynamic"]
    seq_calls, seq_obj = results["sequential"]
    assert dyn_obj == pytest.approx(seq_obj, abs=1e-6)
    assert dyn_calls < seq_calls

    dyn_total = seq_total = 0
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        n, p, k = 300, 200, 8
        xs = rng.standard_normal((n, p))
        idx = rng.choice(p, size=k, replace=False)
        wv = np.zeros(p)
        wv[idx] = 1.2
        ys = np.where(rng.random(n) < expit(xs @ wv), 1.0, -1.0)
        dat = sc.DesignMatrix.from_arrays(xs, ys)
        hps = sc.HyperParams(lambda0=0.15, lambda2=1e-3)
        startp = sc.warm_start(dat, hps)
        s_dyn, s_seq = sc.FitStats(), sc.FitStats()
        sc.fit_swap_1opt(startp.copy(), dat, hps, ordering="dynamic", stats=s_dyn)
        sc.fit_swap_1opt(startp.copy(), dat, hps, ordering="sequential", stats=s_seq)
        dyn_total += s_dyn.swap_evals
        seq_total += s_seq.swap_evals
    assert dyn_total / 10 <= seq_total / 10
    return (f"constructed: {dyn_calls} vs {seq_calls} calls; "
            f"p=200 means: {dyn_total / 10:.1f} vs {seq_total / 10:.1f}")


@criterion(7, "support recovery at reference scale", budget_s=300)
def test_c07_support_recovery():
    grid = (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.8)
    base = sc.HyperParams(loss="logistic", candidate_limit=50)
    bests = []
    for seed in range(5):
        data, truth = sc.gen_classification(
            sc.SynthSpec(n=800, p=1000, k=25, rho=0.9, seed=seed))
        spec = sc.PathSpec(lambda0_grid=grid, lambda2_grid=(1e-5,),
                           loss="logistic", base=base)
        result = sc.fit_path(data, spec)
        assert all(e.error is None for e in result.entries)
        best = max(sc.recovery_f1(e.state.support, truth)
                   if e.state.support else 0.0
                   for e in result.entries)
        bests.append(best)
    mean_best = sum(bests) / len(bests)
    # floor tightened from the 0.5 working value after pilot runs
    # (observed per-seed bests 0.77-0.96, mean 0.89)
    assert mean_best >= 0.7, bests
    return "per-seed best F1: " + ", ".join(f"{b:.3f}" for b in bests)


@criterion(8, "analytic-loss path is faster than cut-screened path", budget_s=180)
def test_c08_exponential_speed_direction():
    raw, _ = sc.gen_classification(sc.SynthSpec(n=1000, p=25, k=5, rho=0.5, seed=3))
    bdata, _ = sc.binarize(raw, encoding="-1/+1", max_thresholds=20)
    assert bdata.p == 500 and bdata.binary
    # the comparison stays apples-to-apples while the two losses select
    # models of similar size; below lam0 ~ 2 on this data the penalties
    # stop being comparable across losses and support sizes diverge
    grid = (7.0, 6.0, 5.0, 4.0, 3.0, 2.0)

    def run_exp():
        return sc.fit_path(bdata, sc.PathSpec(grid, (0.0,), "exponential",
                                              sc.HyperParams(loss="exponential",
                                                             candidate_limit=50)))

    def run_log():
        return sc.fit_path(bdata, sc.PathSpec(grid, (0.001,), "logistic",
                                              sc.HyperParams(loss="logistic",
                                                             candidate_limit=50)),
                           cut="quad")

    def best_of_two(fn):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            assert all(e.error is None for e in result.entries)
        return min(times)

    t_exp = best_of_two(run_exp)
    t_log = best_of_two(run_log)
    assert t_exp < t_log
    return f"exp {t_exp:.2f}s vs logistic quad {t_log:.2f}s, ratio {t_log / t_exp:.2f}x"


@criterion(9, "probability bridge between the two losses", budget_s=5)
def test_c09_probability_bridge():
    rng = np.random.default_rng(9)
    f = rng.uniform(-50.0, 50.0, size=1_000_000)
    diff = np.abs(sc.probability_from_scores(f, "exponential")
                  - sc.probability_from_scores(2.0 * f, "logistic"))
    assert float(diff.max()) <= 1e-12
    return f"max gap {float(diff.max()):.1e}"


@criterion(10, "metric oracles", budget_s=30)
def test_c10_metric_oracles():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(4, 51))
        pool = np.linspace(-1, 1, int(rng.integers(3, 12)))
        scores = rng.choice(pool, size=n)
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        assert sc.auc(scores, labels) == brute_auc(scores, labels)

    def hand_f1(est, tru):
        hits = len(est & tru)
        if hits == 0:
            return 0.0
        precision = hits / len(est)
        recall = hits / len(tru)
        return 2 * precision * recall / (precision + recall)

    assert sc.recovery_f1(set(), {1, 2}) == 0.0
    assert sc.recovery_f1({5, 6}, {1, 2}) == 0.0
    assert sc.recovery_f1({1, 2, 3, 4}, {3, 4, 5, 6, 7, 8}) == pytest.approx(0.4)
    for _ in range(200):
        est = set(int(v) for v in rng.choice(15, size=rng.integers(0, 9), replace=False))
        tru = set(int(v) for v in rng.choice(15, size=rng.integers(1, 9), replace=False))
        assert sc.recovery_f1(est, tru) == pytest.approx(hand_f1(est, tru), abs=1e-15)
    return "AUC exact on 100 instances; F1 matches hand formula"
