"""Each benchmark workload runs one checked operation against the current package.

The benchmark in ``perfbench/`` drives the package through its public
results (``run_scenario``'s triple, ``BoundaryResult.u``, the CLI report), so
a change to any of them should fail here, not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

import qcwb
import qcwb.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_operation_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](qcwb, tmp_path / name)
    inp = workload.inputs(workloads.op_rng(0, 0))
    workload.check(inp, workload.output(workload.run(inp)))
