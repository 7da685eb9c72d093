"""One benchmark process: set up a workload, then run its closed loop.

Started by ``run.py``; not meant to be run by hand.  The process prints JSON
lines on stdout:

* ``{"machine": ...}``: interpreter, numpy, BLAS and core facts;
* ``{"result": ...}``: the set-up time, from ``--started`` (the parent's
  CLOCK_MONOTONIC just before it started this process) to the end of the
  import, the input set-up and one checked warm-up operation, also scaled by
  the reference kernel's time (``hostspeed.py``) just before and after it;
  then the measured loop, operations numbered from ``--first-op``.
  Untraced, every operation's wall time is also scaled by the kernel's time
  just before and after that operation.

The BLAS thread count comes from the environment the parent sets before
this process imports numpy.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# before qcwb is imported, so the reference kernel binds numpy's own eigh
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# operations whose counts are averaged in a traced run; every traced run
# makes at least this many, so counts repeat exactly for a given seed
COUNT_OPS = 3
# each reference-kernel sample around an operation lasts this share of the
# warm-up operation's time; those before and after set-up, SETUP_SAMPLE_S
KERNEL_SHARE = 0.05
SETUP_SAMPLE_S = 0.1


def import_qcwb():
    """Import qcwb from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qcwb" / "__init__.py").is_file():
        raise SystemExit(f"no qcwb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcwb
    import qcwb.cli
    import qcwb.serialize

    if Path(qcwb.__file__).resolve().parent != SRC / "qcwb":
        raise SystemExit(f"imported qcwb from {qcwb.__file__}, not {SRC}")
    return qcwb


def blas_threads() -> tuple[str, int | None]:
    """OpenBLAS configuration string and thread count of the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and conf is not None:
                    get.restype = ctypes.c_int
                    conf.restype = ctypes.c_char_p
                    return conf().decode(), get()
    return "unknown", None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
    }


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def per_layer(per_op: list[dict], listed: list[dict]) -> dict:
    """The ``listed`` metrics: counts are the mean over the first COUNT_OPS
    operations, ``X.min`` the least ``X`` and other times the median over all
    of them.  A name the tracer does not produce raises KeyError."""
    metrics = {}
    for entry in listed:
        key = entry["name"]
        if entry["unit"] == "count":
            window = per_op[:COUNT_OPS]
            value = sum(f[key] for f in window) / len(window)
        elif key.endswith(".min"):
            value = min(f[key.removesuffix(".min")] for f in per_op)
        else:
            value = statistics.median(f[key] for f in per_op)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def measure(workload, seed: int, first_op: int, seconds: float, tracer, kernel_s: float) -> dict:
    """The closed loop.  Untraced, each operation is bracketed by two
    reference-kernel samples of ``kernel_s`` seconds each."""
    from workloads import op_rng

    import checks

    op_s: list[float] = []
    scaled_op_s: list[float] = []
    attempted = failed = 0
    raised = wrong = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (
        tracer is not None and attempted < COUNT_OPS
    ):
        op = first_op + attempted
        inp = workload.inputs(op_rng(seed, op))
        if tracer is not None:
            tracer.begin_op(op)
        else:
            before = hostspeed.sample(kernel_s)
        attempted += 1
        try:
            t0 = time.perf_counter()
            result = workload.run(inp)
            op_s.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            raised = raised or f"op {op} raised {exc!r}"
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        if tracer is None:
            after = hostspeed.sample(kernel_s)
            scaled_op_s.append(hostspeed.scale(op_s[-1], (before + after) / 2))
        try:
            workload.check(inp, workload.output(result))
        except checks.CheckFailed as exc:
            wrong = wrong or f"op {op}: {exc}"
    return {
        "op_s": op_s,
        "scaled_op_s": scaled_op_s,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong is None,
        "error": wrong or raised,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--first-op", type=int, required=True)
    ap.add_argument("--started", type=float, required=True)
    args = ap.parse_args(argv)

    # the host's speed just before and just after set-up; the first sample,
    # and the untimed kernel that warms it up, are not part of the set-up
    t0 = time.perf_counter()
    hostspeed.kernel()
    kernel_before = hostspeed.sample(SETUP_SAMPLE_S)
    sampling_s = time.perf_counter() - t0
    qcwb = import_qcwb()
    from workloads import WORKLOADS, op_rng

    emit({"machine": machine_facts()})
    workload = WORKLOADS[args.workload](qcwb, OUT / args.workload)
    warm = workload.inputs(op_rng(args.seed, None))
    t0 = time.perf_counter()
    result = workload.run(warm)
    warm_s = time.perf_counter() - t0
    workload.check(warm, workload.output(result))
    del result  # peak_rss_mb must not count a kept warm-up result
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started - sampling_s
    setup_kernel_s = (kernel_before + hostspeed.sample(SETUP_SAMPLE_S)) / 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = measure(
        workload, args.seed, args.first_op, args.seconds, tracer, KERNEL_SHARE * warm_s
    )
    result["setup_s"] = setup_s
    result["setup_kernel_s"] = setup_kernel_s
    result["scaled_setup_s"] = hostspeed.scale(setup_s, setup_kernel_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            listed = json.load(fh)["per_layer"]
        result["per_layer"] = per_layer(tracer.per_op, listed)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.npz"
        result["spans"] = tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
