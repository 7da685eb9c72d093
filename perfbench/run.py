"""qcwb benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qcwb is imported from its ``src``.  Every
measurement runs in a fresh worker process (``worker.py``) with one BLAS
thread.  The host's speed drifts, so a worker times a fixed reference kernel
(``hostspeed.py``) just before and after its set-up and every operation, and
scales those wall times to a host on which the kernel takes
``hostspeed.NOMINAL_KERNEL_S``.  ``--trace 0`` starts three workers one
after another, each running the closed loop for a third of ``--seconds``,
and reports the end-to-end metrics that ``BENCHMARK.json`` lists:

* ``setup_s``: median over the three of the time from starting the process
  to the end of its checked warm-up operation (interpreter start, imports,
  input set-up, one operation), scaled;
* ``op_s.p50``: median scaled time of one operation over all three workers;
* ``peak_rss_mb``: the largest peak resident memory of the three.

``--trace 1`` starts one worker with the tracer installed, for the whole
``--seconds``, and reports the per-layer metrics instead.  The two stdout
lines before the result carry the machine facts and the run details (the
operation count, quartiles of the scaled operation times, ``op_s.p90`` with
40 or more operations, the unscaled wall times and every set-up and kernel
sample); the last line is the result object.  Exits non-zero, without a
result, when the checkout holds no qcwb sources or a worker fails.
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
WORKERS = 3
DEADLINE_S = 170.0
# one BLAS thread: on this 2-core machine OpenBLAS's default of 2 threads
# made boundary timings swing by a factor of 3 (README.md)
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# a percentile is reported only with at least 10 samples beyond it
P90_MIN_OPS = 40


def run_worker(args, seconds: float, first_op: int, deadline: float) -> list[dict]:
    """Start one worker; return its JSON lines."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--first-op", str(first_op),
    ]
    env = dict(os.environ, **BLAS_ENV)
    cmd += ["--started", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker overran the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return [json.loads(ln) for ln in out.splitlines() if ln.strip()]


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def pick(lines: list[dict], key: str) -> dict:
    return next(ln[key] for ln in lines if key in ln)


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in manifest["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qcwb" / "__init__.py").is_file():
        print(f"run.py: no qcwb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through run_worker, which stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else WORKERS
    results: list[dict] = []
    for _ in range(workers):
        first_op = sum(r["attempted"] for r in results)
        lines = run_worker(args, args.seconds / workers, first_op, deadline)
        results.append(pick(lines, "result"))
    op_s = [t for r in results for t in r["op_s"]]
    if not op_s:
        print("run.py: no operation completed", file=sys.stderr)
        return 1
    result = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "error": next((r["error"] for r in results if r["error"]), None),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(op_s),
        "peak_rss_mb": result["peak_rss_mb"],
        "error": result["error"],
    }

    if args.trace:
        info["spans"] = results[0]["spans"]
        info["spans_file"] = results[0]["spans_file"]
        metrics = results[0]["per_layer"]
    else:
        scaled = [t for r in results for t in r["scaled_op_s"]]
        info.update(
            {
                "op_s.quartiles": quartiles(scaled),
                "wall_op_s.quartiles": quartiles(op_s),
                "wall_op_s.min": min(op_s),
                "setup_s.all": [r["scaled_setup_s"] for r in results],
                "wall_setup_s.all": [r["setup_s"] for r in results],
                "setup_kernel_s.all": [r["setup_kernel_s"] for r in results],
            }
        )
        if len(scaled) >= P90_MIN_OPS:
            info["op_s.p90"] = statistics.quantiles(scaled, n=10)[-1]
        value = {
            "setup_s": statistics.median(info["setup_s.all"]),
            "op_s.p50": statistics.median(scaled),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            e["name"]: {"value": value[e["name"]], "unit": e["unit"]}
            for e in manifest["end_to_end"]
        }
    print(json.dumps({"machine": pick(lines, "machine")}))
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
