"""One workload in one fresh process; started by ``run.py``.

Modes:
  setup    build the inputs, report the set-up time and exit;
  measure  build the inputs, then run the job back to back (untraced) for
           at least the given seconds and two jobs, check every job's
           outputs, report metrics;
  traced   build the inputs, run the job untraced, traced and untraced again,
           self-check the trace, report per-layer metrics and the paper
           claims that belong to this workload.

The last stdout line is one JSON object for ``run.py``; a record with the
environment, every fit's objective and support hash and (traced) the spans
goes to ``--record``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports at run time."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib_path).name] = fn()
                break
    return found


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": blas_threads(),
        "machine": platform.machine(),
        "seed": args.seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def answers(res) -> list[tuple]:
    return [(f.label, f.objective, f.support_hash) for f in res.fits]


def measure(wl, inputs, seconds: float) -> tuple[dict, list]:
    """Run jobs back to back until ``seconds`` of job time and at least two
    jobs have been measured, so that ``wall_s`` is never one job's time;
    evaluate each job right after it returns (untimed).  Peak RSS is read
    before the first evaluation, which holds its own copies of the data, so
    it covers set-up and the job only."""
    walls, results, peak = [], [], None
    while True:
        t0 = time.perf_counter()
        out = wl.run(inputs)
        walls.append(time.perf_counter() - t0)
        peak = peak or peak_rss_mb()
        res = wl.evaluate(inputs, out)
        del out
        if results and answers(res) != answers(results[0]):
            res.fail("determinism", "answers differ from the run's first job")
        results.append(res)
        if len(walls) >= 2 and sum(walls) >= seconds:
            break
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failed) for r in results)
    first = results[0]
    summary = {
        "wall_s": statistics.median(walls),
        "walls": walls,
        "peak_rss_mb": peak,
        "objective_sum": first.objective_sum,
        "recovery_f1": first.recovery_f1,
        "ok_frac": 1.0 - failed / attempted,
        "attempted": attempted,
        "failed": failed,
    }
    return summary, results


def traced(wl, inputs, tracer) -> tuple[dict, list, list]:
    """A traced job between two untraced ones, the per-layer metrics and the
    self-check of the trace against the untraced answers and FitStats.
    The overhead compares the traced wall time with the mean of its two
    untraced neighbours, which halves the bias of a drifting host speed."""
    import tracing
    from sparseclass import path, swap

    def untraced():
        t0 = time.perf_counter()
        out = wl.run(inputs)
        wall = time.perf_counter() - t0
        return wall, wl.evaluate(inputs, out)

    wall_before, plain = untraced()
    c0 = cpu_s()
    with tracer.installed("job"):
        t0 = time.perf_counter()
        out = wl.run(inputs)
        wall_traced = time.perf_counter() - t0
    cpu = cpu_s() - c0
    res = wl.evaluate(inputs, out)
    del out
    wall_after, plain_after = untraced()
    wall_plain = 0.5 * (wall_before + wall_after)

    m = tracing.layer_metrics(tracer, wall_traced, wl.rows_scored, wl.probe_n)
    m["process.cpu_s"] = cpu
    m["trace.overhead_frac"] = wall_traced / wall_plain - 1.0

    problems = []
    if not answers(res) == answers(plain) == answers(plain_after):
        problems.append("traced objectives or supports differ from the untraced runs")
    if not tracer.missing:
        evals = sum(f.swap_evals for f in res.fits)
        prunes = sum(f.cut_prunes for f in res.fits)
        if m["swap.try_delete_or_swap.calls"] != evals:
            problems.append(f"try_delete_or_swap calls {m['swap.try_delete_or_swap.calls']} != swap_evals {evals}")
        if m["swap.cut_prunes"] != prunes:
            problems.append(f"cut prunes {m['swap.cut_prunes']} != FitStats.cut_prunes {prunes}")
    if any(k > path.WARM_START_MAX_SWEEPS for k in tracer.sweeps_per_call("path.warm_start")):
        problems.append("a warm start ran more sweeps than WARM_START_MAX_SWEEPS")
    if any(k > swap.REOPT_MAX_SWEEPS for k in tracer.sweeps_per_call("swap.reoptimize")):
        problems.append("a reoptimize ran more sweeps than REOPT_MAX_SWEEPS")
    if tracer.leftovers():
        problems.append(f"patches not restored: {tracer.leftovers()}")
    if m["trace.coverage_frac"] < 0.9:
        problems.append(f"spans cover only {m['trace.coverage_frac']:.3f} of the traced wall time")
    m["trace.selfcheck_ok"] = 0.0 if problems else 1.0
    summary = {
        "metrics": m,
        "wall_untraced_s": [wall_before, wall_after],
        "wall_traced_s": wall_traced,
        "attempted": sum(r.attempted for r in (plain, res, plain_after)) + 1,  # + the self-check
        "failed": sum(len(r.failed) for r in (plain, res, plain_after)) + (1 if problems else 0),
    }
    return summary, [plain, res, plain_after], problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--record", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import sparseclass

    if Path(sparseclass.__file__).resolve().parent != SRC / "sparseclass":
        print(f"error: sparseclass imported from {sparseclass.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench" / "work" / args.workload
    tracer = tracing.Tracer() if args.mode == "traced" else None
    with tracer.installed("setup") if tracer else contextlib.nullcontext():
        inputs = wl.setup(args.seed, workdir)
    setup_s = time.monotonic() - args.launched_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "mode": args.mode, "env": environment(args),
              "data_seeds": inputs["data_seeds"], "setup_s": setup_s}
    problems: list[str] = []
    if args.mode == "measure":
        summary, results = measure(wl, inputs, args.seconds)
        summary["setup_s"] = setup_s
    else:
        summary, results, problems = traced(wl, inputs, tracer)
        record["claims"] = summary["claims"] = wl.claims(inputs)
        record["trace"] = tracer.dump()
    record["summary"] = summary
    record["jobs"] = [{"fits": [vars(f) for f in r.fits], "failed": sorted(r.failed), "messages": r.messages}
                      for r in results]
    record["selfcheck_problems"] = problems
    shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, default=str))
    for r in results:
        for msg in r.messages:
            print(f"check failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"trace self-check failed: {msg}", file=sys.stderr)
    summary["env"], summary["data_seeds"] = record["env"], record["data_seeds"]
    print(json.dumps(summary, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
