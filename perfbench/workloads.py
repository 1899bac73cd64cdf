"""The three benchmark workloads: inputs, the timed job and its output checks.

Every workload runs fixed problem instances named by the acceptance suite
and the roadmap, so its cost does not swing with the instance drawn.  The
``--seed`` argument permutes the row order of every generated dataset
(seed 0 keeps the generated order): the program reads different bytes on
every seed while the problem, and so the work, stays the same.

A job is one closed-loop call sequence: each call starts when the previous
one returns.  ``run`` is the only timed part; ``evaluate`` checks the
outputs afterwards and turns them into fit records and failures.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

import sparseclass as sc
from sparseclass import cli
from sparseclass import path as sc_path
from sparseclass import synth as sc_synth


@dataclass
class Fit:
    label: str
    objective: float
    support_hash: str
    support_size: int
    swap_evals: int
    cut_prunes: int


@dataclass
class JobResult:
    """Checked outputs of one job.  ``failed`` holds the labels of failed
    operations; ``messages`` says why."""

    fits: list[Fit] = field(default_factory=list)
    attempted: int = 0
    failed: set[str] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)
    objective_sum: float = 0.0
    recovery_f1: float = 0.0

    def op(self, label: str, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(label, why)
        return ok

    def fail(self, label: str, why: str) -> None:
        self.failed.add(label)
        self.messages.append(f"{label}: {why}")


def support_hash(support) -> str:
    text = ",".join(str(j) for j in sorted(support))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def row_order(n: int, seed: int) -> np.ndarray:
    """Row permutation for a seed; seed 0 keeps the generated order."""
    if seed == 0:
        return np.arange(n)
    return np.random.default_rng(seed).permutation(n)


def permute_rows(data: sc.DesignMatrix, seed: int) -> sc.DesignMatrix:
    order = row_order(data.n, seed)
    return sc.DesignMatrix.from_arrays(data.x[order], data.y[order], data.feature_names)


def fill_caches(data: sc.DesignMatrix) -> sc.DesignMatrix:
    """Build the lazy per-dataset caches so that every job starts alike."""
    data.signed, data.column_sq_sums
    return data


@contextlib.contextmanager
def capture(owner, attr):
    """Record the return values of ``owner.attr`` while the block runs."""
    original = getattr(owner, attr)
    seen = []

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    setattr(owner, attr, recorder)
    try:
        yield seen
    finally:
        setattr(owner, attr, original)


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


# --- ref-path -----------------------------------------------------------------

class RefPath:
    """Library ``fit_path`` over the reference logistic grid (acceptance c07)."""

    name = "ref-path"
    spec = sc.SynthSpec(n=800, p=1000, k=25, rho=0.9, seed=0)
    grid = (7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.8)
    lambda2 = 1e-5
    candidate_limit = 50
    probe_n = spec.n  # observations behind one logistic probe pass
    rows_scored = 0

    def setup(self, seed: int, workdir: Path) -> dict:
        data, truth = sc_synth.gen_classification(self.spec)
        return {"data": fill_caches(permute_rows(data, seed)), "truth": truth,
                "data_seeds": [self.spec.seed]}

    def run(self, inputs: dict):
        spec = sc.PathSpec(lambda0_grid=self.grid, lambda2_grid=(self.lambda2,), loss="logistic",
                           base=sc.HyperParams(loss="logistic", candidate_limit=self.candidate_limit))
        try:
            return sc_path.fit_path(inputs["data"], spec)
        except Exception:
            return traceback.format_exc()

    def evaluate(self, inputs: dict, out) -> JobResult:
        res = JobResult()
        if isinstance(out, str):
            for lam0 in self.grid:
                res.op(f"lambda0={lam0}", False, out)
            return res
        entries = {e.lambda0: e for e in out.entries}
        f1s = []
        for lam0 in self.grid:
            label = f"lambda0={lam0}"
            e = entries.get(lam0)
            if e is None:
                res.op(label, False, "no path entry")
                continue
            if not res.op(label, e.error is None and _finite(e.objective),
                          e.error or f"objective {e.objective}"):
                continue
            res.fits.append(Fit(label, e.objective, support_hash(e.state.support),
                                e.support_size, e.swap_evals, e.cut_prunes))
            res.objective_sum += e.objective
            f1s.append(sc.recovery_f1(e.state.support, inputs["truth"]) if e.state.support else 0.0)
        res.recovery_f1 = max(f1s, default=0.0)
        return res

    def claims(self, inputs: dict) -> dict:
        return {}


# --- swap-search --------------------------------------------------------------

def c06_instance(seed: int, n: int = 300, p: int = 200, k: int = 8):
    """Independent Gaussian features, k planted coefficients of 1.2 (as in
    acceptance c06)."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, p))
    idx = rng.choice(p, size=k, replace=False)
    wv = np.zeros(p)
    wv[idx] = 1.2
    ys = np.where(rng.random(n) < expit(xs @ wv), 1.0, -1.0)
    return sc.DesignMatrix.from_arrays(xs, ys), frozenset(int(j) for j in idx)


class SwapSearch:
    """Library ``fit_one`` (warm start, then 1-opt swap) on c06 instances."""

    name = "swap-search"
    instance_seeds = tuple(range(7000, 7004))
    hp = sc.HyperParams(lambda0=0.15, lambda2=1e-3)
    claim_instances = 3
    probe_n = 300
    rows_scored = 0

    def setup(self, seed: int, workdir: Path) -> dict:
        instances = []
        for s in self.instance_seeds:
            data, truth = c06_instance(s)
            instances.append((fill_caches(permute_rows(data, seed)), truth))
        return {"instances": instances, "data_seeds": list(self.instance_seeds)}

    def run(self, inputs: dict):
        outs = []
        with capture(sc_path, "warm_start") as starts:
            for data, _ in inputs["instances"]:
                stats = sc.FitStats()
                seen = len(starts)
                try:
                    state = sc_path.fit_one(data, self.hp, stats=stats)
                except Exception:
                    state = traceback.format_exc()
                outs.append((state, stats, starts[seen] if len(starts) > seen else None))
        return outs

    def evaluate(self, inputs: dict, out) -> JobResult:
        res = JobResult()
        f1s = []
        for i, ((data, truth), (state, stats, start)) in enumerate(zip(inputs["instances"], out)):
            label = f"instance {self.instance_seeds[i]}"
            if isinstance(state, str):
                res.op(label, False, state)
                continue
            obj = sc.objective(state, data, self.hp)
            start_obj = sc.objective(start, data, self.hp) if start is not None else math.nan
            # the swap search accepts only improvements; allow round-off only
            ok = _finite(obj) and obj <= start_obj + 1e-9 * abs(start_obj)
            if not res.op(label, ok, f"objective {obj} vs warm start {start_obj}"):
                continue
            res.fits.append(Fit(label, obj, support_hash(state.support), len(state.support),
                                stats.swap_evals, stats.cut_prunes))
            res.objective_sum += obj
            f1s.append(sc.recovery_f1(state.support, truth))
        res.recovery_f1 = sum(f1s) / len(f1s) if f1s else 0.0
        return res

    def claims(self, inputs: dict) -> dict:
        from claims import cuts_and_ordering
        return cuts_and_ordering(inputs["instances"][: self.claim_instances], self.hp)


# --- scorecard-cli -------------------------------------------------------------

def _cli(argv) -> tuple[int | str, str]:
    """Run one CLI command in process; returns (exit code or traceback, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        rc = traceback.format_exc()
    return rc, buf.getvalue()


def _permute_csv(path: Path, seed: int) -> None:
    """Rewrite a CSV with its data rows in the seed's order, slicing the
    file's bytes so that set-up holds one copy of the file in memory."""
    raw = memoryview(path.read_bytes())
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n")) + 1
    starts, stops = ends[:-1], ends[1:]
    with open(path, "wb") as fh:
        fh.write(raw[: ends[0]])
        for i in row_order(len(starts), seed):
            fh.write(raw[starts[i]: stops[i]])


class ScorecardCli:
    """The scorecard user's CLI flow: ``path`` and ``fit`` on binarized
    features under the exponential loss, then ``predict`` on a large file."""

    name = "scorecard-cli"
    train = sc.SynthSpec(n=1000, p=25, k=5, rho=0.5, seed=3)
    score = sc.SynthSpec(n=100_000, p=25, k=5, rho=0.5, seed=4)
    grid = "7,6,5,4,3,2"
    fit_lambda0 = "7"
    max_thresholds = 200
    probe_n = train.n
    rows_scored = score.n

    @staticmethod
    def _synth_argv(spec: sc.SynthSpec, out: Path) -> list[str]:
        return ["synth", "--n", str(spec.n), "--p", str(spec.p), "--k", str(spec.k),
                "--rho", str(spec.rho), "--seed", str(spec.seed), "--out", str(out)]

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        files = {k: workdir / f"{k}.{ext}" for k, ext in
                 (("train", "csv"), ("score", "csv"), ("path", "csv"), ("card", "json"), ("pred", "csv"))}
        for key, spec in (("train", self.train), ("score", self.score)):
            rc, _ = _cli(self._synth_argv(spec, files[key]))
            if rc != 0:
                raise RuntimeError(f"synth for {key} failed: {rc}")
            _permute_csv(files[key], seed)
        truth = json.loads(Path(str(files["train"]) + ".truth.json").read_text())
        return {"files": files, "seed": seed, "truth_names": frozenset(truth["names"]),
                "data_seeds": [self.train.seed, self.score.seed]}

    def _fit_flags(self, files) -> list[str]:
        return ["--data", str(files["train"]), "--binarize", "--max-thresholds",
                str(self.max_thresholds), "--loss", "exponential", "--candidate-limit", "50"]

    def run(self, inputs: dict):
        f = inputs["files"]
        with capture(cli, "fit_path") as paths, capture(cli, "fit_one") as states:
            path_rc, _ = _cli(["path", *self._fit_flags(f), "--lambda0-grid", self.grid,
                               "--out", str(f["path"])])
            fit_rc, fit_out = _cli(["fit", *self._fit_flags(f), "--lambda0", self.fit_lambda0,
                                    "--out", str(f["card"])])
            pred_rc, _ = _cli(["predict", "--model", str(f["card"]), "--data", str(f["score"]),
                               "--out", str(f["pred"])])
        return {"path_rc": path_rc, "fit_rc": fit_rc, "fit_out": fit_out, "pred_rc": pred_rc,
                "paths": paths, "states": states}

    def _raw(self, inputs: dict, spec: sc.SynthSpec) -> sc.DesignMatrix:
        """The raw rows a CSV holds, rebuilt in memory (17-digit CSV text
        round-trips exactly); cached across evaluations."""
        key = f"raw{spec.seed}"
        if key not in inputs:
            data, _ = sc_synth.gen_classification(spec)
            inputs[key] = permute_rows(data, inputs["seed"])
        return inputs[key]

    def evaluate(self, inputs: dict, out) -> JobResult:
        res = JobResult()
        f = inputs["files"]
        grid = [float(v) for v in self.grid.split(",")]
        hp_path = [e for r in out["paths"] for e in r.entries]

        # path: the command, then one operation per grid point
        rows = []
        if res.op("cli path", out["path_rc"] == 0, f"exit {out['path_rc']}"):
            with open(f["path"], newline="") as fh:
                rows = list(csv.DictReader(fh))
        by_lam0 = {float(r["lambda0"]): r for r in rows}
        states = {e.lambda0: e.state for e in hp_path}
        for lam0 in grid:
            label = f"path lambda0={lam0}"
            row = by_lam0.get(lam0)
            if row is None or states.get(lam0) is None:
                res.op(label, False, "no path row or fit")
                continue
            obj = float(row["objective"]) if row["objective"] else math.nan
            if not res.op(label, not row["error"] and _finite(obj), row["error"] or f"objective {obj}"):
                continue
            res.fits.append(Fit(label, obj, support_hash(states[lam0].support),
                                int(row["support_size"]), int(row["swap_evals"]),
                                int(row["cut_prunes"])))
            res.objective_sum += obj

        # fit: writes a scorecard whose scores equal the fitted state's
        card = None
        if res.op("cli fit", out["fit_rc"] == 0 and len(out["states"]) == 1, f"exit {out['fit_rc']}"):
            summary = json.loads(out["fit_out"])
            obj = float(summary["objective"])
            state = out["states"][0]
            if _finite(obj):
                res.fits.append(Fit(f"fit lambda0={self.fit_lambda0}", obj, support_hash(state.support),
                                    int(summary["support_size"]), int(summary["swap_evals"]),
                                    int(summary["cut_prunes"])))
                res.objective_sum += obj
            else:
                res.fail("cli fit", f"objective {obj}")
            card = sc.Scorecard.from_json(Path(f["card"]).read_text())
            raw_train = self._raw(inputs, self.train)
            bdata, _ = sc.binarize(raw_train, direction="<=", encoding="-1/+1",
                                   max_thresholds=self.max_thresholds)
            gap = _max_gap(card.score_rows(_columns(raw_train)), state.scores(bdata))
            if not gap <= 1e-9:
                res.fail("cli fit", f"scorecard vs state scores: max gap {gap}")
            picked = {t.feature for t in card.terms}
            res.recovery_f1 = sc.SupportComparison.compare(picked, inputs["truth_names"]).f1

        # predict: one row per scoring row, equal to the scorecard's own scores
        if res.op("cli predict", out["pred_rc"] == 0, f"exit {out['pred_rc']}") and card is not None:
            scores = np.loadtxt(f["pred"], delimiter=",", skiprows=1, usecols=0, ndmin=1)
            raw_score = self._raw(inputs, self.score)
            gap = _max_gap(scores, card.score_rows(_columns(raw_score)))
            if not gap <= 1e-9:
                res.fail("cli predict", f"{scores.shape[0]} rows for {raw_score.n}; max score gap {gap}")
        return res

    def claims(self, inputs: dict) -> dict:
        from claims import exp_vs_logistic
        return exp_vs_logistic()


def _columns(data: sc.DesignMatrix) -> dict[str, np.ndarray]:
    return {name: data.x[:, j] for j, name in enumerate(data.feature_names)}


def _max_gap(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


WORKLOADS = {w.name: w for w in (RefPath, SwapSearch, ScorecardCli)}
