"""Benchmark of sparseclass: three closed-loop workloads, end-to-end metrics
and a traced per-layer run.

    python3 perfbench/run.py                       # all workloads, seed 0
    python3 perfbench/run.py --workload ref-path --seed 3 --seconds 20 --trace 0

Each workload runs in fresh processes, one after another, with BLAS limited
to ``BLAS_THREADS`` threads.  Untraced (``--trace 0``): the inputs are set
up in ``SETUP_REPEATS`` fresh processes and ``setup_s`` is their median;
the last of them then runs the job back to back until ``--seconds`` of job
time and at least two jobs are measured, and reports the end-to-end
metrics.  Traced (``--trace 1``): one process runs
the job untraced, traced and untraced again and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The last
stdout line is the result as one JSON object; records go to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ref-path", "swap-search", "scorecard-cli")
BLAS_THREADS = 1
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode, record, deadline) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--launched-at", repr(time.monotonic())]
    if record:
        cmd += ["--record", str(record)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} process timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, spec, deadline) -> dict:
    record = ROOT / ".perfbench" / "records" / f"{workload}-seed{seed}-{'traced' if trace else 'untraced'}.json"
    if trace:
        out = _worker(workload, seed, seconds, "traced", record, deadline)
        values, listed = out["metrics"], spec["per_layer"]
    else:
        setups = [_worker(workload, seed, seconds, "setup", None, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        out = _worker(workload, seed, seconds, "measure", record, deadline)
        out["setup_s"] = statistics.median([*setups, out["setup_s"]])
        values, listed = out, spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}
    return {"correct": out["failed"] == 0, "attempted": int(out["attempted"]),
            "failed": int(out["failed"]), "metrics": metrics, "detail": out}


def report(workload, seed, trace, result) -> None:
    d = result["detail"]
    env = d["env"]
    print(f"{workload}  seed={seed}  trace={trace}  nproc={env['nproc']}  "
          f"blas_threads={env['blas_threads_runtime']}  python={env['python']}  "
          f"numpy={env['numpy']}  scipy={env['scipy']}  blas={env['blas']}  data_seeds={d['data_seeds']}")
    if not trace:
        walls = ", ".join(f"{w:.3f}" for w in d["walls"])
        print(f"  jobs={len(d['walls'])} (wall_s is their median; job walls: {walls})")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for key, claim in d.get("claims", {}).items():
        print(f"  claim {key}: {json.dumps(claim)}")
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "sparseclass" / "__init__.py").is_file():
        print(f"error: no sparseclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [args.workload] if args.workload else WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, spec, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(workload, args.seed, args.trace, result)
        del result["detail"]
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
