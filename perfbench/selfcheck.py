"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For each workload it

1. runs operation 0 of seed 0 untraced and then twice traced, in one
   process, and requires identical outputs (windings, u paths, sweep tables,
   output triples) bit for bit, identical counts in the two traced runs, a
   traced operation that counted LAPACK calls, and a figure for every
   per-layer metric that ``BENCHMARK.json`` lists;
2. corrupts that output (a perturbed triple, a flipped winding sign, a
   sweep value above delta) and requires the workload's checker to reject
   every corruption;
3. on ``relations-sweep``, runs an operation with ``qcwb.linalg.op_norm``
   reporting half the norm, bound in every qcwb module, and requires the
   checker to reject its output: the sampler then overshoots delta while the
   values it reports stay below it;

and requires ``BENCHMARK.json`` to list exactly the workloads of
``workloads.py``.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_ENV  # run.py imports no numpy

os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, rebind_in_qcwb, restore  # noqa: E402
from workloads import WORKLOADS, op_rng  # noqa: E402

COUNTS = (".calls", ".n3", "boundary.fibers")


def corruptions(name: str, out: dict) -> list[dict]:
    """Outputs the workload's checker must reject."""
    if name == "smooth-dense":
        return [dict(out, h=out["h"] + 1e-6 * np.eye(out["h"].shape[0]))]
    if name.startswith("boundary"):
        return [
            dict(out, winding=-out["winding"]),
            dict(out, u=np.conj(out["u"]), winding=-out["winding"]),
        ]
    (delta, _), *rest = out["sweep"]
    return [dict(out, sweep=[[delta, 2 * delta], *rest])]


def check_under_halved_op_norm(qcwb, workload, inp) -> None:
    """Run and check one operation with op_norm reporting half the norm."""
    op_norm = qcwb.linalg.op_norm

    def halved(*args, **kwargs):
        return 0.5 * op_norm(*args, **kwargs)

    rebound = rebind_in_qcwb({id(op_norm): halved})
    try:
        workload.check(inp, workload.output(workload.run(inp)))
    finally:
        restore(rebound)


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    return a == b


def check_workload(qcwb, name: str, per_layer: list[dict]) -> list[str]:
    problems = []
    workload = WORKLOADS[name](qcwb, worker.OUT / name)
    inp = workload.inputs(op_rng(0, 0))
    plain = workload.output(workload.run(inp))
    workload.check(inp, plain)

    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):
            inp = workload.inputs(op_rng(0, 0))
            tracer.begin_op(0)
            try:
                traced = workload.output(workload.run(inp))
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    differ = sorted(k for k in plain if not same(plain[k], traced[k]))
    if differ:
        problems.append(f"{name}: traced output differs in {differ}")
    first, second = ({k: v for k, v in f.items() if k.endswith(COUNTS)} for f in tracer.per_op)
    if first != second:
        problems.append(f"{name}: counts of two traced runs of one input differ")
    if not first["linalg.lapack.calls"] > 0:
        problems.append(f"{name}: the traced operation counted no LAPACK call")
    try:
        worker.per_layer(tracer.per_op, per_layer)
    except KeyError as exc:
        problems.append(f"{name}: the tracer gives no figure for {exc}")

    for bad in corruptions(name, plain):
        try:
            workload.check(inp, bad)
        except checks.CheckFailed:
            continue
        problems.append(f"{name}: checker accepted a corrupted output")
    if name == "relations-sweep":
        try:
            check_under_halved_op_norm(qcwb, workload, inp)
            problems.append(f"{name}: checker accepted the output of a halved op_norm")
        except checks.CheckFailed:
            pass
    return problems


def main() -> int:
    qcwb = worker.import_qcwb()
    with open(worker.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    listed = [w["name"] for w in manifest["workloads"]]
    if listed != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {listed} != {list(WORKLOADS)}")
    for name in WORKLOADS:
        found = check_workload(qcwb, name, manifest["per_layer"])
        print(f"{name}: {'FAIL' if found else 'ok'}")
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
