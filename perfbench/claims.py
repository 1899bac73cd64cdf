"""Checks of the paper's performance claims, reported by traced runs only.

None of these is gated or counted as a workload; they record the direction
and size of each claimed effect on the current code.
"""

from __future__ import annotations

import time

import sparseclass as sc
from sparseclass import path as sc_path

from tracing import Tracer
from workloads import fill_caches, support_hash

C08_SPEC = sc.SynthSpec(n=1000, p=25, k=5, rho=0.5, seed=3)
C08_GRID = (7.0, 6.0, 5.0, 4.0, 3.0, 2.0)


def _timed_path(data, spec, cut="auto") -> tuple[float, list]:
    t0 = time.perf_counter()
    result = sc_path.fit_path(data, spec, cut=cut)
    return time.perf_counter() - t0, result.entries


def exp_vs_logistic() -> dict:
    """Exponential loss versus logistic loss with quadratic cuts (lambda2=1e-3),
    both on -1/+1 threshold dummies of the c08 data, at two widths.  The
    paper claims the exponential loss is faster."""
    raw, _ = sc.gen_classification(C08_SPEC)
    exp_spec = sc.PathSpec(C08_GRID, (0.0,), "exponential",
                           sc.HyperParams(loss="exponential", candidate_limit=50))
    log_spec = sc.PathSpec(C08_GRID, (1e-3,), "logistic",
                           sc.HyperParams(loss="logistic", candidate_limit=50))
    out = {}
    for max_thresholds in (20, 200):
        bdata, _ = sc.binarize(raw, encoding="-1/+1", max_thresholds=max_thresholds)
        fill_caches(bdata)
        t_exp, e_exp = _timed_path(bdata, exp_spec)
        t_log, e_log = _timed_path(bdata, log_spec, cut="quad")
        out[f"exp_vs_logistic.p{bdata.p}"] = {
            "exp_s": t_exp,
            "logistic_s": t_log,
            "exp_over_logistic": t_exp / t_log,
            "exp_faster": t_exp < t_log,
            "errors": [e.error for e in e_exp + e_log if e.error],
            "support_sizes": {"exp": [e.support_size for e in e_exp],
                              "logistic": [e.support_size for e in e_log]},
        }
    return out


def cuts_and_ordering(instances, hp) -> dict:
    """``lin`` versus ``quad`` cuts and ``dynamic`` versus ``sequential``
    ordering on swap-search instances, compared by work counts."""
    configs = (("quad", "dynamic"), ("lin", "dynamic"), ("quad", "sequential"))
    totals = {f"{c}/{o}": {"candidates": 0, "cut_prunes": 0, "line_searches": 0, "swap_evals": 0}
              for c, o in configs}
    answers: dict[str, list] = {k: [] for k in totals}
    for data, _ in instances:
        for cut, ordering in configs:
            key = f"{cut}/{ordering}"
            tracer = Tracer()
            stats = sc.FitStats()
            with tracer.installed("job"):
                state = sc_path.fit_one(data, hp, ordering=ordering, cut=cut, stats=stats)
            t = totals[key]
            t["candidates"] += tracer.counts["swap.candidates"]
            t["cut_prunes"] += stats.cut_prunes
            t["line_searches"] += sum(1 for s in tracer.spans if s[0] == "logistic.iterate_threshold")
            t["swap_evals"] += stats.swap_evals
            answers[key].append((sc.objective(state, data, hp), support_hash(state.support)))
    return {
        "instances": len(instances),
        "totals": totals,
        "lin_same_answers_as_quad": answers["lin/dynamic"] == answers["quad/dynamic"],
        "sequential_same_answers_as_dynamic": answers["quad/sequential"] == answers["quad/dynamic"],
        "dynamic_fewer_swap_evals": (totals["quad/dynamic"]["swap_evals"]
                                     < totals["quad/sequential"]["swap_evals"]),
    }
