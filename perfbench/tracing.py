"""Span tracing around the public functions of each sparseclass layer.

The tracer patches the names that callers actually look up (module globals
such as ``sparseclass.path.warm_start``, attributes reached through
``logeng.``/``expeng.`` and names ``cli`` imported by value), records one span
per call, and restores every patch on exit.  Spans live in memory as
``[name, start, end, parent, fit, phase, child_s, info]`` and are written
out by the caller when the run ends.

Probe passes (hundreds of thousands per job) are *leaf* spans: their count
and time are aggregated per name and charged to the enclosing span instead
of being stored one by one.  Pure counters (state updates, candidates,
prunes) record no time.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, FIT, PHASE, CHILD_S, INFO = range(8)

SWEEP_SPANS = ("logistic.cd_sweep", "exponential.cd_sweep")
LAYERS = ("path", "logistic", "exponential", "swap", "core", "binarize", "cli", "metrics")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _coords(i):
    return lambda args, kwargs, out: len(_arg(args, kwargs, i, "coords"))


def _outcome(args, kwargs, out):
    return (out.kind, _arg(args, kwargs, 2, "hp").loss)


def _columns_out(args, kwargs, out):
    return out[0].p


def _file_bytes(args, kwargs, out):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _lookup(owner, attr):
    """What ``owner.attr`` holds; for a class, only its own attribute."""
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


class Tracer:
    """Records spans from wrapped program functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._fit = -1
        self._fits = 0
        self._undo: list[tuple] = []
        self._restored: list[tuple] = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn, info=None, new_fit=False):
        spans, stack = self.spans, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer_fit = tracer._fit
            if new_fit:
                tracer._fit = tracer._fits
                tracer._fits += 1
            rec = [name, 0.0, 0.0, parent, tracer._fit, tracer.phase, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = end = perf_counter()
                stack.pop()
                tracer._fit = outer_fit
                if parent >= 0:
                    spans[parent][CHILD_S] += end - rec[START]
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, agg = self.spans, self._stack, self.leaves[name]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][CHILD_S] += dt

        return wrapper

    def _count(self, key, fn, when=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if when is None or when(out):
                counts[key] += 1
            return out

        return wrapper

    def _count_inside(self, key, parent_name, fn):
        """Count calls made while the innermost open span is ``parent_name``."""
        counts, spans, stack = self.counts, self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == parent_name:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patch table --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every call site traced."""
        from sparseclass import cli, core, exponential, logistic, path, swap, synth

        probe = logistic.CoordinateProbe
        fit_path = lambda f: self._span("path.fit_path", f)
        fit_one = lambda f: self._span("path.fit_one", f, new_fit=True)
        objective = lambda f: self._span("core.objective", f)
        gen = lambda f: self._span("synth.gen_classification", f)
        return [
            (path, "fit_path", fit_path),
            (path, "fit_one", fit_one),
            (path, "warm_start", lambda f: self._span("path.warm_start", f)),
            (path, "fit_swap_1opt", lambda f: self._span("swap.fit_swap_1opt", f)),
            (path, "objective", objective),
            (swap, "try_delete_or_swap",
             lambda f: self._span("swap.try_delete_or_swap", f, info=_outcome)),
            (swap, "reoptimize", lambda f: self._span("swap.reoptimize", f)),
            (swap, "_try_add_quad", lambda f: self._count("swap.cut_prunes", f, lambda r: r.cut_pruned)),
            (swap, "_try_add_lin", lambda f: self._count("swap.cut_prunes", f, lambda r: r.cut_pruned)),
            (logistic, "cd_sweep", lambda f: self._span("logistic.cd_sweep", f, info=_coords(5))),
            (logistic, "refit_intercept", lambda f: self._span("logistic.refit_intercept", f)),
            (logistic, "iterate_threshold", lambda f: self._span("logistic.iterate_threshold", f)),
            (probe, "value_at", lambda f: self._leaf("logistic.probe", f)),
            (probe, "slope_at", lambda f: self._leaf("logistic.probe", f)),
            (probe, "eval_at", lambda f: self._leaf("logistic.probe", f)),
            (probe, "__init__",
             lambda f: self._count_inside("swap.candidates", "swap.try_delete_or_swap", f)),
            (exponential, "cd_sweep", lambda f: self._span("exponential.cd_sweep", f, info=_coords(3))),
            (exponential, "refit_intercept", lambda f: self._span("exponential.refit_intercept", f)),
            (core.ModelState, "set_coefficient",
             lambda f: self._count("core.ModelState.set_coefficient", f)),
            (core.ModelState, "refresh", lambda f: self._count("core.ModelState.refresh", f)),
            (exponential.ExpState, "set_coefficient",
             lambda f: self._count("exponential.ExpState.set_coefficient", f)),
            (exponential.ExpState, "refresh", lambda f: self._count("exponential.ExpState.refresh", f)),
            (synth, "gen_classification", gen),
            (cli, "main", lambda f: self._span("cli.main", f)),
            (cli, "cmd_path", lambda f: self._span("cli.cmd_path", f)),
            (cli, "cmd_fit", lambda f: self._span("cli.cmd_fit", f)),
            (cli, "cmd_predict", lambda f: self._span("cli.cmd_predict", f)),
            (cli, "read_csv", lambda f: self._span("cli.read_csv", f, info=_file_bytes)),
            (cli, "_read_predict_data",
             lambda f: self._span("cli._read_predict_data", f, info=_file_bytes)),
            (cli, "load_model", lambda f: self._span("cli.load_model", f)),
            (cli, "binarize", lambda f: self._span("binarize.binarize", f, info=_columns_out)),
            (cli, "export_scorecard", lambda f: self._span("binarize.export_scorecard", f)),
            (cli, "fit_path", fit_path),
            (cli, "fit_one", fit_one),
            (cli, "auc", lambda f: self._span("metrics.auc", f)),
            (cli, "objective", objective),
            (cli, "gen_classification", gen),
        ]

    def install(self) -> None:
        for owner, attr, make in self._targets():
            original = _lookup(owner, attr)
            if original is None:
                # A renamed or removed call site leaves its layer uncounted;
                # say so instead of failing the whole run.
                label = f"{owner.__name__}.{attr}"
                self.missing.append(label)
                print(f"trace: no {label} to wrap; its layer is not counted", file=sys.stderr)
                continue
            setattr(owner, attr, make(original))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        self._restored = list(self._undo)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Patched names that do not hold their original object any more."""
        return [f"{o.__name__}.{a}" for o, a, orig in self._restored if _lookup(o, a) is not orig]

    @contextlib.contextmanager
    def installed(self, phase: str):
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- summaries ----------------------------------------------------------

    def job_spans(self) -> list[list]:
        return [s for s in self.spans if s[PHASE] == "job"]

    def sweeps_per_call(self, name: str) -> list[int]:
        """Sweep spans directly under each span called ``name``."""
        per = {i: 0 for i, s in enumerate(self.spans) if s[NAME] == name and s[PHASE] == "job"}
        for s in self.spans:
            if s[NAME] in SWEEP_SPANS and s[PARENT] in per:
                per[s[PARENT]] += 1
        return list(per.values())

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "fit", "phase", "child_s", "info"],
            "spans": self.spans,
            "leaves": {k: {"calls": v[0], "s": v[1]} for k, v in self.leaves.items()},
            "counts": dict(self.counts),
            "missing_targets": self.missing,
        }


def layer_metrics(tracer: Tracer, job_wall_s: float, n_rows_scored: int, probe_n: int) -> dict:
    """Per-layer numbers from the job spans of one traced job.

    ``probe_n`` is the observation count behind each probe pass; the bytes
    figure is computed (two float64 n-vectors read per pass), not measured.
    """
    from sparseclass import path, swap

    spans = tracer.job_spans()
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    info: defaultdict = defaultdict(list)
    self_s: defaultdict = defaultdict(float)
    for s in spans:
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        secs[s[NAME]] += dur
        self_s[s[NAME].split(".")[0]] += dur - s[CHILD_S]
        if s[INFO] is not None:
            info[s[NAME]].append(s[INFO])
    for name, (n, t) in tracer.leaves.items():
        calls[name] += n
        secs[name] += t
        self_s[name.split(".")[0]] += t
    counts = tracer.counts

    warm = tracer.sweeps_per_call("path.warm_start")
    reopt = tracer.sweeps_per_call("swap.reoptimize")
    outcomes = Counter(kind for kind, _ in info["swap.try_delete_or_swap"])
    logistic_swaps = sum(1 for kind, loss in info["swap.try_delete_or_swap"]
                         if kind == "swapped" and loss == "logistic")
    candidates = counts["swap.candidates"]
    line_searches = calls["logistic.iterate_threshold"]
    read_s = secs["cli.read_csv"] + secs["cli._read_predict_data"]
    read_mb = (sum(info["cli.read_csv"]) + sum(info["cli._read_predict_data"])) / 1e6

    m = {
        "path.warm_start.s": secs["path.warm_start"],
        "path.warm_start.calls": calls["path.warm_start"],
        "path.warm_start.sweeps": sum(warm),
        "path.warm_start.cap_hits": sum(1 for k in warm if k >= path.WARM_START_MAX_SWEEPS),
        "path.fit_one.calls": calls["path.fit_one"],
        "logistic.cd_sweep.s": secs["logistic.cd_sweep"],
        "logistic.cd_sweep.calls": calls["logistic.cd_sweep"],
        "logistic.cd_sweep.coords": sum(info["logistic.cd_sweep"]),
        "exponential.cd_sweep.s": secs["exponential.cd_sweep"],
        "exponential.cd_sweep.calls": calls["exponential.cd_sweep"],
        "exponential.cd_sweep.coords": sum(info["exponential.cd_sweep"]),
        "exponential.refit_intercept.s": secs["exponential.refit_intercept"],
        "exponential.refit_intercept.calls": calls["exponential.refit_intercept"],
        "swap.try_delete_or_swap.s": secs["swap.try_delete_or_swap"],
        "swap.try_delete_or_swap.calls": calls["swap.try_delete_or_swap"],
        "swap.outcome.deleted": outcomes["deleted"],
        "swap.outcome.swapped": outcomes["swapped"],
        "swap.outcome.no_change": outcomes["no_change"],
        "swap.candidates": candidates,
        "swap.cut_prunes": counts["swap.cut_prunes"],
        "swap.prune_rate": counts["swap.cut_prunes"] / candidates if candidates else 0.0,
        "swap.line_searches": line_searches,
        "swap.accept_rate": logistic_swaps / line_searches if line_searches else 0.0,
        "logistic.probe.passes": calls["logistic.probe"],
        "logistic.probe.s": secs["logistic.probe"],
        "logistic.probe.bytes_computed": calls["logistic.probe"] * 2 * 8 * probe_n,
        "swap.fit_swap_1opt.s": secs["swap.fit_swap_1opt"],
        "swap.reoptimize.s": secs["swap.reoptimize"],
        "swap.reoptimize.calls": calls["swap.reoptimize"],
        "swap.reoptimize.sweeps": sum(reopt),
        "swap.reoptimize.cap_hits": sum(1 for k in reopt if k >= swap.REOPT_MAX_SWEEPS),
        "logistic.refit_intercept.s": secs["logistic.refit_intercept"],
        "logistic.refit_intercept.calls": calls["logistic.refit_intercept"],
        "core.ModelState.set_coefficient.calls": counts["core.ModelState.set_coefficient"],
        "core.ModelState.refresh.calls": counts["core.ModelState.refresh"],
        "exponential.ExpState.set_coefficient.calls": counts["exponential.ExpState.set_coefficient"],
        "exponential.ExpState.refresh.calls": counts["exponential.ExpState.refresh"],
        "core.objective.s": secs["core.objective"],
        "binarize.binarize.s": secs["binarize.binarize"],
        "binarize.binarize.columns_out": sum(info["binarize.binarize"]),
        "binarize.export_scorecard.s": secs["binarize.export_scorecard"],
        "cli.read_csv.s": read_s,
        "cli.read_csv.mb_per_s": read_mb / read_s if read_s else 0.0,
        "cli.cmd_path.s": secs["cli.cmd_path"],
        "cli.cmd_fit.s": secs["cli.cmd_fit"],
        "cli.cmd_predict.s": secs["cli.cmd_predict"],
        "cli.load_model.s": secs["cli.load_model"],
        "cli.predict.rows_per_s": (n_rows_scored / secs["cli.cmd_predict"]
                                   if secs["cli.cmd_predict"] else 0.0),
        "metrics.auc.s": secs["metrics.auc"],
        "metrics.auc.calls": calls["metrics.auc"],
        "synth.gen_classification.s": sum(s[END] - s[START] for s in tracer.spans
                                          if s[NAME] == "synth.gen_classification"),
        "trace.coverage_frac": sum(self_s.values()) / job_wall_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
