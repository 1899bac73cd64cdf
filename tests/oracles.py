"""Independent reference computations used to check the solvers.

Everything here is deliberately written from first principles (dense grids,
pairwise counting, full Newton solves) and shares no code with the package
paths under test.  The two exceptions are the sequential swap scans.
``reference_swap_visit`` drives the package's scalar ``CoordinateProbe`` and
``iterate_threshold``, which the swap search itself no longer calls, and the
package's cut formulas, which the grid-minimum tests check on their own; it
computes the curvature bound of its quadratic cuts and the rounding
allowance of its prunes itself.
``reference_exp_find_swap`` uses the package's closed-form exponential
coefficient and loss, which the grid-minimum tests check too.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.special import expit


def grid_minimize(fvec, lo=-10.0, hi=10.0, step=1e-3, refine=1e-6):
    """Two-stage dense grid minimum of a unimodal function.

    ``fvec`` maps an array of points to an array of values.  The coarse pass
    locates the best cell; a fine pass over the surrounding two cells pins
    the minimum down to ``refine``.  Returns (argmin, min).
    """
    xs = np.arange(lo, hi + 0.5 * step, step)
    vals = fvec(xs)
    i = int(np.argmin(vals))
    lo2 = xs[max(i - 2, 0)]
    hi2 = xs[min(i + 2, xs.size - 1)]
    xs2 = np.arange(lo2, hi2 + 0.5 * refine, refine)
    best_x, best_v = xs[i], float(vals[i])
    for start in range(0, xs2.size, 200_000):
        chunk = xs2[start:start + 200_000]
        v = fvec(chunk)
        j = int(np.argmin(v))
        if float(v[j]) < best_v:
            best_v = float(v[j])
            best_x = float(chunk[j])
    return float(best_x), best_v


def logistic_curve(base_margins, u, lam2=0.0, base_sq=0.0):
    """Vectorized evaluator for the 1-D logistic restriction."""
    base_margins = np.asarray(base_margins, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    def fvec(xs):
        m = base_margins[None, :] + np.asarray(xs)[:, None] * u[None, :]
        out = np.logaddexp(0.0, -m).sum(axis=1)
        return out + lam2 * (np.asarray(xs) ** 2 + base_sq)

    return fvec


def exp_curve(c_ref, z):
    """Vectorized evaluator for the 1-D exponential restriction
    sum_i c_i * exp(-x z_i)."""
    c_ref = np.asarray(c_ref, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    a_pos = float(c_ref[z > 0].sum())
    a_neg = float(c_ref[z < 0].sum())

    def fvec(xs):
        xs = np.asarray(xs, dtype=np.float64)
        return a_pos * np.exp(-xs) + a_neg * np.exp(xs)

    return fvec


def direct_logistic_objective(x, y, w, intercept, lam0, lam2):
    """Scalar-loop objective evaluation."""
    total = 0.0
    for i in range(len(y)):
        m = y[i] * (float(np.dot(x[i], w)) + intercept)
        if m > 0:
            total += math.log1p(math.exp(-m))
        else:
            total += -m + math.log1p(math.exp(m))
    total += lam2 * sum(v * v for v in w)
    total += lam0 * sum(1 for v in w if v != 0.0)
    return total


def direct_exponential_objective(x, y, w, intercept, lam0):
    total = 0.0
    for i in range(len(y)):
        m = y[i] * (float(np.dot(x[i], w)) + intercept)
        total += math.exp(-m)
    total += lam0 * sum(1 for v in w if v != 0.0)
    return total


def brute_auc(scores, labels) -> float:
    """Pairwise-counting AUC with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l > 0]
    neg = [s for s, l in zip(scores, labels) if l < 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_binarize(data, direction="<=", encoding="0/1", max_thresholds=None):
    """Threshold dummies built one column at a time: each feature's distinct
    values (or, past ``max_thresholds`` of them, the distinct "lower"
    quantiles at equally spaced levels) each give one indicator column,
    stacked and copied into a ``DesignMatrix``."""
    from sparseclass.binarize import ThresholdGroup, ThresholdMap
    from sparseclass.core import DesignMatrix

    columns, names, groups = [], [], []
    for j, name in enumerate(data.feature_names):
        col = data.column(j)
        thresholds = np.unique(col)
        if thresholds.size <= 1:
            thresholds = np.empty(0)
        elif max_thresholds is not None and thresholds.size > max_thresholds:
            levels = np.linspace(0.0, 1.0, max_thresholds)
            thresholds = np.unique(np.quantile(col, levels, method="lower"))
        idxs = []
        for theta in thresholds:
            ind = (col <= theta) if direction == "<=" else (col >= theta)
            dummy = ind.astype(np.float64)
            if encoding == "-1/+1":
                dummy = 2.0 * dummy - 1.0
            idxs.append(len(columns))
            columns.append(dummy)
            names.append(f"{name}{direction}{float(theta)!r}")
        groups.append(ThresholdGroup(name, tuple(float(t) for t in thresholds), tuple(idxs)))
    x = np.column_stack(columns) if columns else np.empty((data.n, 0))
    out = DesignMatrix.from_arrays(x, data.y, names)
    return out, ThresholdMap(direction=direction, encoding=encoding, groups=tuple(groups))


def reference_signed_products(data, v):
    """z_j . v for every column j, with z_ij = y_i * x_ij: each column's
    terms y_i * x_ij * v_i summed by ``math.fsum``, which rounds once.  On
    0/1 and -1/+1 dummies every term is exact, so each entry is the exact
    product correctly rounded."""
    x, y, v = np.asarray(data.x), np.asarray(data.y), np.asarray(v, dtype=np.float64)
    return np.array([math.fsum((y * x[:, j] * v).tolist()) for j in range(x.shape[1])])


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def newton_fit_logistic(x, y, support, lam2, max_iter=200, tol=1e-11):
    """Full Newton (IRLS) fit restricted to ``support`` plus an unpenalized
    intercept.  Returns (w_full, intercept, smooth_loss)."""
    support = sorted(support)
    n = x.shape[0]
    a = np.column_stack([x[:, support], np.ones(n)]) if support else np.ones((n, 1))
    k = len(support)
    ridge = np.concatenate([np.full(k, 2.0 * lam2), [0.0]])
    beta = np.zeros(k + 1)

    def loss(b):
        m = y * (a @ b)
        return float(np.logaddexp(0.0, -m).sum() + lam2 * float(b[:k] @ b[:k]))

    cur = loss(beta)
    for _ in range(max_iter):
        m = y * (a @ beta)
        q = expit(-m)
        g = -(a.T @ (y * q)) + ridge * beta
        if float(np.max(np.abs(g))) < tol:
            break
        wdiag = q * (1.0 - q)
        h = a.T @ (a * wdiag[:, None]) + np.diag(ridge)
        h[np.diag_indices_from(h)] += 1e-12
        step = np.linalg.solve(h, g)
        scale = 1.0
        for _ in range(60):
            nxt = loss(beta - scale * step)
            if nxt <= cur:
                break
            scale *= 0.5
        beta = beta - scale * step
        if abs(cur - nxt) < 1e-15 * max(1.0, abs(cur)):
            cur = nxt
            break
        cur = nxt
    w_full = np.zeros(x.shape[1])
    w_full[support] = beta[:k]
    return w_full, float(beta[k]), cur


def scipy_fit_logistic(x, y, support, lam2, start):
    """The smooth logistic loss (ridge on the coefficients, none on the
    intercept) minimized over ``support`` plus the intercept by SciPy's
    BFGS from ``start`` (the coefficients, then the intercept).  Returns the
    minimum and the minimizer."""
    from scipy.optimize import minimize

    support = sorted(support)
    k = len(support)
    z = y[:, None] * np.column_stack([x[:, support], np.ones(x.shape[0])])

    def loss(b):
        m = z @ b
        q = expit(-m)
        g = -(z.T @ q)
        g[:k] += 2.0 * lam2 * b[:k]
        return float(np.logaddexp(0.0, -m).sum() + lam2 * float(b[:k] @ b[:k])), g

    res = minimize(loss, np.asarray(start, dtype=np.float64), jac=True, method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 10_000})
    return float(res.fun), res.x


def newton_fit_exponential(x, y, support, max_iter=200, tol=1e-11, clamp=30.0):
    """Full Newton fit of the exponential loss on ``support`` plus intercept."""
    support = sorted(support)
    n = x.shape[0]
    a = np.column_stack([x[:, support], np.ones(n)]) if support else np.ones((n, 1))
    z = y[:, None] * a
    k = len(support)
    beta = np.zeros(k + 1)

    def loss(b):
        return float(np.exp(-(z @ b)).sum())

    cur = loss(beta)
    for _ in range(max_iter):
        c = np.exp(-(z @ beta))
        g = -(z.T @ c)
        if float(np.max(np.abs(g))) < tol:
            break
        h = z.T @ (z * c[:, None])
        h[np.diag_indices_from(h)] += 1e-12
        step = np.linalg.solve(h, g)
        scale = 1.0
        for _ in range(60):
            nxt = loss(np.clip(beta - scale * step, -clamp, clamp))
            if nxt <= cur:
                break
            scale *= 0.5
        beta = np.clip(beta - scale * step, -clamp, clamp)
        if abs(cur - nxt) < 1e-15 * max(1.0, abs(cur)):
            cur = nxt
            break
        cur = nxt
    w_full = np.zeros(x.shape[1])
    w_full[support] = beta[:k]
    return w_full, float(beta[k]), cur


def random_logistic_instance(rng, n, p, k=3, scale=1.2, binary=False):
    """Random classification data with a planted linear signal."""
    if binary:
        x = rng.choice([-1.0, 1.0], size=(n, p))
    else:
        x = rng.standard_normal((n, p))
    w = np.zeros(p)
    idx = rng.choice(p, size=k, replace=False)
    w[idx] = scale * rng.standard_normal(k)
    y = np.where(rng.random(n) < expit(x @ w), 1.0, -1.0)
    if np.all(y == y[0]):  # force both classes
        y[0] = -y[0]
    return x, y, set(int(i) for i in idx)


# --- sequential scalar swap visit ---------------------------------------------

def scalar_try_add(probe, s0, threshold, quad):
    """One candidate screened alone: (step, branch, accepted, coefficient).
    ``step`` is "pruned", "rejected" or "searched"; ``branch`` names where
    the screening decided:

    - "zero": the one-point quadratic minorant at zero, or a zero slope;
    - "reach": the slope at Kt (t = -s0/L, K = ``logistic.LINE_SEARCH_STEPS``)
      still has the sign of s0, so the K-step search ends at a loss of at
      least f(Kt);
    - "bracket": the optimum lies in [0, Kt], bounded by the tangents at 0
      and Kt, or by quadratic minorants there whose curvature is the least
      f'' on [0, Kt] that the ends' sigma' allow.

    A bound prunes when it clears ``threshold`` by the rounding allowance
    that ``logistic.screen_block`` documents; otherwise the line search
    runs."""
    from sparseclass import logistic as logeng

    lam2, u, n, L = probe.lam2, probe.u, probe.u.shape[0], probe.lipschitz
    iterations = logeng.LINE_SEARCH_STEPS

    def decide(branch, prune):
        if prune:
            return "pruned", branch, False, 0.0
        w_hat = logeng.iterate_threshold(probe, 0.0, iterations)
        if probe.value_at(w_hat) < threshold:
            return "searched", branch, True, w_hat
        return "searched", branch, False, 0.0

    if quad and logeng._quad_cut_one_val(probe.f0, s0, lam2) >= threshold:
        return decide("zero", True)
    if s0 == 0.0:
        return "rejected", "zero", False, 0.0
    x = iterations * (-s0 / L)
    fk, sk = probe.eval_at(x)
    mu = 0.0
    if quad:
        def sigma_prime(m):
            return expit(m) * expit(-m)

        m0 = probe.base_margins
        mu = 2.0 * lam2 + float((u * u) @ np.minimum(sigma_prime(m0), sigma_prime(m0 + x * u)))
        bound = logeng._quad_cut_two_val(probe.f0, s0, 0.0, fk, sk, x, 0.5 * mu)
    else:
        bound = logeng._lin_cut_val(probe.f0, s0, 0.0, fk, sk, x)
    branch = "reach" if s0 * sk > 0.0 else "bracket"
    if branch == "reach":
        bound = fk
    allowance = screen_allowance(n, iterations, probe.f0, fk, L, x, mu)
    return decide(branch, float(bound) >= threshold + allowance)


def screen_allowance(n, iterations, f0, fk, lipschitz, x, mu):
    """The rounding allowance that ``logistic.screen_block`` documents for
    its reach and bracket prunes, at the reach point ``x``."""
    from sparseclass.core import EPS

    r, scale = abs(x), 2.0 * math.sqrt(n * lipschitz)
    return ((n + 8) * EPS * (3.0 * (abs(f0) + abs(fk)) + 2.0 * scale * r + mu * r * r
                             + 4.0 * iterations * n)
            + 3.0 * iterations * EPS * scale * r)


def reference_swap_visit(state, data, hp, j, cut):
    """A logistic delete-or-swap visit of feature ``j`` as a sequential scan,
    one ``CoordinateProbe`` per candidate (``cut`` is "lin" or "quad").

    Returns kind, removed, added, the added coefficient before the support
    is reoptimized, and the counters of the scan up to and including the
    accepted candidate: candidates (inert zero columns skipped), cut_prunes
    and line_searches.  ``branches`` tallies (branch, step) pairs of the
    screening over those candidates.
    """
    from sparseclass import logistic as logeng
    from sparseclass.core import OBJECTIVE_TOL

    lam2 = hp.lambda2
    loss_best = logeng.CoordinateProbe(state.margins, state.margins, lam2,
                                       float(state.w @ state.w)).value_at(0.0)
    trial = state.copy()
    trial.set_coefficient(data, j, 0.0)
    base_sq = float(trial.w @ trial.w)
    dropped = logeng.CoordinateProbe(trial.margins, trial.margins, lam2, base_sq).value_at(0.0)
    out = {"kind": "no_change", "removed": None, "added": None, "coefficient": None,
           "candidates": 0, "cut_prunes": 0, "line_searches": 0, "branches": Counter()}
    if dropped <= loss_best:
        out.update(kind="deleted", removed=j)
        return out
    grads = -(data.signed.T @ expit(-trial.margins))
    order = [int(c) for c in np.argsort(-np.abs(grads), kind="stable") if c not in state.support]
    lip = 0.25 * data.column_sq_sums + 2.0 * lam2
    threshold = loss_best - OBJECTIVE_TOL
    for j2 in order[:hp.candidate_limit]:
        if lip[j2] <= 0.0:
            continue
        probe = logeng.CoordinateProbe(trial.margins, data.signed[:, j2], lam2=lam2,
                                       base_sq=base_sq, lipschitz=float(lip[j2]),
                                       f0=dropped)
        step, branch, accepted, w_hat = scalar_try_add(probe, float(grads[j2]), threshold,
                                                        cut == "quad")
        out["branches"][branch, step] += 1
        out["candidates"] += 1
        out["cut_prunes"] += step == "pruned"
        out["line_searches"] += step == "searched"
        if accepted:
            out.update(kind="swapped", removed=j, added=j2, coefficient=w_hat)
            return out
    return out


def reference_exp_find_swap(trial, data, forbidden, f0, threshold, limit):
    """An exponential swap search as a sequential scan: the first candidate
    outside ``forbidden``, in descending |z_j . c| (ties by index) and
    among the first ``limit`` of them, whose closed-form coefficient brings
    the loss ``f0`` below ``threshold``, with that coefficient; else None.
    Also returns the number of candidates tested."""
    from sparseclass import exponential as expeng

    dots = data.signed.T @ trial.c
    order = [int(j) for j in np.argsort(-np.abs(dots), kind="stable") if j not in forbidden]
    for tested, j2 in enumerate(order[:limit], start=1):
        d = min(max(0.5 * (f0 - float(dots[j2])) / f0, 0.0), 1.0)
        x = expeng.analytic_coefficient(d)
        if expeng.updated_loss(f0, d, x) < threshold:
            return (j2, x), tested
    return None, len(order[:limit])
