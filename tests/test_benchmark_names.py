"""Every per-layer figure that BENCHMARK.json names must exist in the program.

The benchmark's tracer names the figures of each function it wraps
``<module>.<function>.calls`` and ``<module>.<function>.s``.  A figure whose
function is gone makes a traced benchmark run stop with a ``KeyError``.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# figures the tracer computes itself, not from one wrapped function
TRACER_FIGURES = re.compile(
    r"linalg\.lapack\..*|\w+\.self_s|serialize\.s|relations\.sampler\.s"
    r"|boundary\.fibers|traced\.op_s\.min"
)


def test_per_layer_figures_name_existing_functions():
    figures = [f["name"] for f in json.loads(BENCHMARK.read_text())["per_layer"]]
    checked = [name for name in figures if not TRACER_FIGURES.fullmatch(name)]
    assert checked
    for name in checked:
        module, function, kind = name.split(".")
        assert kind in ("calls", "s"), name
        mod = importlib.import_module(f"qcwb.{module}")
        fn = getattr(mod, function, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, (
            f"{name}: qcwb.{module} defines no function {function}"
        )
