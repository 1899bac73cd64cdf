"""Independent reference computations used to check the solvers.

Everything here is deliberately written from first principles (dense grids,
pairwise counting, full Newton solves) and shares no code with the package
paths under test, with these exceptions:

- The scalar coordinate references ``grad_j``, ``threshold_step``,
  ``exp_coordinate_update`` and ``coordinate_probe``, which the vectorized
  sweeps and swap searches replaced.  ``exp_coordinate_update`` decides
  with the package's ``exponential._reference``, ``zero_interval`` and
  ``analytic_coefficient``; ``coordinate_probe`` builds the package's
  ``CoordinateProbe``.  ``d_minus`` sums the weights of a state's margins
  directly and does not read ``exponential._reference``.
- The sequential swap scans.  ``reference_swap_visit`` drives the package's
  scalar ``CoordinateProbe``, which the swap search itself no longer calls,
  with ``iterate_threshold`` here, and the package's cut formulas, which the
  grid-minimum tests check on their own; it computes the curvature bound of
  its quadratic cuts, the self-concordant bound of its cut at zero (with
  ``math.log1p`` and ``math.expm1`` and its own sigma') and the rounding
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
    stacked and copied into a ``DesignMatrix``.  Returned beside it, the
    (raw feature name, threshold) of each column."""
    from sparseclass.core import DesignMatrix

    columns, names, dummies = [], [], []
    for j, name in enumerate(data.feature_names):
        col = data.column(j)
        thresholds = np.unique(col)
        if thresholds.size <= 1:
            thresholds = np.empty(0)
        elif max_thresholds is not None and thresholds.size > max_thresholds:
            levels = np.linspace(0.0, 1.0, max_thresholds)
            thresholds = np.unique(np.quantile(col, levels, method="lower"))
        for theta in thresholds:
            ind = (col <= theta) if direction == "<=" else (col >= theta)
            dummy = ind.astype(np.float64)
            if encoding == "-1/+1":
                dummy = 2.0 * dummy - 1.0
            columns.append(dummy)
            names.append(f"{name}{direction}{float(theta)!r}")
            dummies.append((name, float(theta)))
    x = np.column_stack(columns) if columns else np.empty((data.n, 0))
    out = DesignMatrix.from_arrays(x, data.y, names)
    return out, dummies


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


# --- scalar coordinate steps ---------------------------------------------------

def grad_j(state, data, j, lam2=0.0):
    """Partial derivative of the smooth logistic loss along coordinate j."""
    g = -float(data.signed[:, j] @ expit(-state.margins))
    if lam2:
        g += 2.0 * lam2 * float(state.w[j])
    return g


def threshold_step(state, data, j, hp):
    """Candidate new coefficient for coordinate j under the quadratic
    surrogate: c = w_j - grad_j/L_j when |c| clears sqrt(2*lambda0/L_j),
    else 0.  ``logistic.cd_sweep`` is a loop of these steps, bit for bit."""
    L = 0.25 * float(data.column_sq_sums[j]) + 2.0 * hp.lambda2
    if L <= 0.0:
        raise ValueError(f"coordinate {j} is inert (zero column, no ridge)")
    c = float(state.w[j]) - grad_j(state, data, j, hp.lambda2) / L
    if hp.lambda0 > 0.0 and c * c < 2.0 * hp.lambda0 / L:
        return 0.0
    return c


def exp_coordinate_update(state, data, j, lam0):
    """One analytical coordinate update with the sparsity penalty active,
    applied to ``state``; returns the new coefficient.

    Zeroes the coefficient when its weighted -1 fraction, under the weights
    with the coordinate zeroed (``exponential._reference``: one dot
    product), falls in the zero interval; otherwise moves it to the
    closed-form optimum.  ``exponential.cd_sweep`` is a loop of these
    updates, bit for bit."""
    from sparseclass import exponential as expeng

    c = state.c
    H_ref, d = expeng._reference(c, float(c.sum()), data.signed[:, j], float(state.w[j]))
    lo, hi = expeng.zero_interval(H_ref, lam0)
    new = 0.0 if lo <= d <= hi else expeng.analytic_coefficient(d)
    state.set_coefficient(data, j, new)
    return new


def coordinate_probe(state, data, j, lam2=0.0):
    """The package's ``CoordinateProbe`` for coordinate j of ``state`` with
    that coordinate zeroed out; valid only while the state is unchanged."""
    from sparseclass import logistic as logeng

    u = data.signed[:, j]
    wj = float(state.w[j])
    base_margins = state.margins if wj == 0.0 else state.margins - wj * u
    base_sq = float(state.w @ state.w) - wj * wj
    return logeng.CoordinateProbe(base_margins, u, lam2=lam2, base_sq=base_sq,
                                  lipschitz=0.25 * float(data.column_sq_sums[j]) + 2.0 * lam2)


def d_minus(state, data, j, exclude_own=False):
    """Weighted fraction of observations whose signed entry z_ij is -1, under
    the exponential weights of ``state``; with ``exclude_own``, under those
    of a copy with coordinate j zeroed and its margins rebuilt, summed
    directly."""
    if exclude_own:
        state = state.copy()
        state.set_coefficient(data, j, 0.0)
        state.refresh(data)
    c = state.c
    return float(c[data.signed[:, j] < 0].sum() / c.sum())


# --- sequential scalar swap visit ---------------------------------------------

def iterate_threshold(probe, start: float, iterations: int) -> float:
    """Repeated penalty-free surrogate steps along the probe: the scalar
    line search of a swap candidate, which ``logistic.screen_block`` runs
    for a block of candidates at once."""
    t = float(start)
    L = probe.lipschitz
    for _ in range(iterations):
        t = t - probe.slope_at(t) / L
    return t


def scalar_try_add(probe, s0, threshold, quad):
    """One candidate screened alone: (step, branch, accepted, coefficient).
    ``step`` is "pruned", "rejected" or "searched"; ``branch`` names where
    the screening decided:

    - "zero": with ``quad``, the vertex of the one-point quadratic minorant
      at zero or the self-concordant bound, or a zero slope.  The bound is
      the minimum over [0, |Kt|] of f0 - |s0| tau + mu0 (e^(-rho tau) - 1 +
      rho tau) / rho^2, with mu0 = sum u_i^2 sigma'(m_i) and mu0 rho =
      sum |u_i|^3 sigma'(m_i) at the base margins; the vertex prunes
      without an allowance;
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
        w_hat = iterate_threshold(probe, 0.0, iterations)
        if probe.value_at(w_hat) < threshold:
            return "searched", branch, True, w_hat
        return "searched", branch, False, 0.0

    x = iterations * (-s0 / L)
    if quad:
        bound, mu0 = self_concordant_bound(probe, s0, x)
        if (logeng._quad_cut_one_val(probe.f0, s0, lam2) >= threshold
                or bound >= threshold + screen_allowance(n, iterations, probe.f0, probe.f0,
                                                         L, x, 2.0 * mu0)):
            return decide("zero", True)
    if s0 == 0.0:
        return "rejected", "zero", False, 0.0
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


def self_concordant_bound(probe, s0, x):
    """The least loss a search from zero that ends within |x| of it, on the
    descent side, can reach by the self-concordant curvature bound f'' >=
    mu0 e^(-rho tau): min over tau in [0, |x|] of f0 - |s0| tau + mu0
    (e^(-rho tau) - 1 + rho tau) / rho^2 (f0 - |s0| |x| where mu0 = 0),
    with mu0 = sum u_i^2 sigma'(m_i) and mu0 rho = sum |u_i|^3 sigma'(m_i)
    at the base margins m.  Returns the bound and mu0."""
    e = np.exp(-np.abs(probe.base_margins))
    w = probe.u * probe.u * (e / ((1.0 + e) * (1.0 + e)))
    mu0, r, slope = math.fsum(w), abs(x), abs(s0)
    if mu0 == 0.0:
        return probe.f0 - slope * r, mu0
    rho = math.fsum(w * np.abs(probe.u)) / mu0
    if slope * rho >= mu0:
        tau = r
    else:
        tau = min(r, -math.log1p(-slope * rho / mu0) / rho)
    return (probe.f0 - slope * tau + mu0 * (math.expm1(-rho * tau) + rho * tau) / (rho * rho),
            mu0)


def screen_allowance(n, iterations, f0, fk, lipschitz, x, mu):
    """The rounding allowance that ``logistic.screen_block`` documents for
    its prunes, at the reach point ``x``: for the reach and bracket prunes
    with the value ``fk`` there and the bracket curvature ``mu``, for the
    self-concordant bound with ``fk = f0`` and ``mu = 2 mu0``."""
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
        if data.column_sq_sums[j2] <= 0.0:  # an all-zero column, at any ridge
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
