"""Span tracer installed from outside the qcwb package.

qcwb modules import kernel functions by name (``from .linalg import
op_norm``), so wrapping ``qcwb.linalg.op_norm`` alone would miss every call
made from another module.  :meth:`Tracer.install` therefore wraps each
public module-level function of every layer module (plus the private ones
another qcwb module imports, such as ``_eigh_raw``) and rebinds the wrapper
under every name, in every loaded ``qcwb`` module, that refers to the
original.  It also wraps the ``numpy.linalg`` entry points that reach LAPACK
(``eigh``, ``eigvalsh``, ``svd``, ``det``); qcwb looks those up as
attributes at call time.

Outside an operation (``op is None``) a wrapper only forwards the call, so
input generation and the correctness checks are neither timed nor counted.
Inside one, every wrapped call becomes a span (name, start, end, parent span,
operation id) kept in flat in-memory columns, and the per-operation counters
at the same boundaries are updated:

* ``calls[name]``: number of calls;
* ``incl[name]``: time of the outermost call of that name (recursion such as
  ``relations.evaluate`` is not counted twice);
* ``self_s[layer]``: span time minus the time covered by child spans;
* ``layer_s[layer]``: time of spans whose parent belongs to another layer;
* ``lapack_n3``: sum of batch * n^3 over the LAPACK entry points;
* ``fibers``: sum of grid points (m + 1) over ``boundary.lift_T`` calls.

:meth:`Tracer.end_op` turns them into figures named as in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "linalg",
    "qc_model",
    "structures",
    "relations",
    "smoothing",
    "boundary",
    "serialize",
    "cli",
)
LAPACK = ("eigh", "eigvalsh", "svd", "det")
LAPACK_LAYER = "lapack"
OP_LAYER = "op"
# layers whose whole time, entered from another layer, is a figure
LAYER_S_FIGURE = {LAPACK_LAYER: "linalg.lapack.s", "serialize": "serialize.s"}
# perturbation_sampler returns the closure that draws each sample; the
# closure is timed under this name.
RETURNS_TRACED_CALLABLE = {"relations.perturbation_sampler": "relations.sampler"}


def qcwb_modules() -> list:
    """Every loaded module of the qcwb package."""
    return [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "qcwb" or key.startswith("qcwb."))
    ]


def rebind_in_qcwb(replacement_of: dict[int, object]) -> list[tuple[object, str, object]]:
    """Bind ``replacement_of[id(f)]`` in place of ``f`` under every name, in
    every loaded qcwb module, that refers to ``f``.  Returns the bindings
    replaced, for :func:`restore`."""
    rebound = []
    for m in qcwb_modules():
        for attr, val in list(vars(m).items()):
            new = replacement_of.get(id(val))
            if new is not None:
                rebound.append((m, attr, val))
                setattr(m, attr, new)
    return rebound


def restore(rebound: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(rebound):
        setattr(owner, attr, original)


class Tracer:
    """Records spans and per-operation counters around qcwb's layer calls."""

    def __init__(self):
        self.op: int | None = None
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        # span columns
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        # frames of open spans: [span index, layer id, child time]
        self._stack: list[list] = []
        self._t_origin = time.perf_counter()
        self._rebound: list[tuple[object, str, object]] = []
        self.per_op: list[dict[str, float]] = []
        self._reset_counters()

    # -- registration -----------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.name_layer.append(self._layer_id(layer))
        return nid

    def _reset_counters(self) -> None:
        self.calls = [0] * len(self.names)
        self.incl = [0.0] * len(self.names)
        self._depth = [0] * len(self.names)
        self.self_s = [0.0] * len(self.layers)
        self.layer_s = [0.0] * len(self.layers)
        self.lapack_n3 = 0
        self.fibers = 0

    def wrap(self, fn, name: str, layer: str, hook=None, returns: str | None = None):
        """A traced stand-in for ``fn``; ``hook(args, kwargs)`` feeds a counter."""
        nid = self._name_id(name, layer)
        lid = self.name_layer[nid]
        tracer = self
        clock = time.perf_counter
        origin = self._t_origin
        # the span columns are only ever appended to, so their methods can be bound once
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_op = self.span_op.append
        add_start = self.span_start.append
        add_end = self.span_end.append
        span_end = self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs)
            stack = tracer._stack
            parent = stack[-1]
            idx = len(span_end)
            add_name(nid)
            add_parent(parent[0])
            add_op(op)
            add_end(0.0)
            frame = [idx, lid, 0.0]
            stack.append(frame)
            depth = tracer._depth
            depth[nid] += 1
            t0 = clock()
            add_start(t0 - origin)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                span_end[idx] = t1 - origin
                tracer.calls[nid] += 1
                depth[nid] -= 1
                if depth[nid] == 0:
                    tracer.incl[nid] += dur
                tracer.self_s[lid] += dur - frame[2]
                if parent[1] != lid:
                    tracer.layer_s[lid] += dur
                parent[2] += dur
            if returns is not None and callable(result):
                return tracer.wrap(result, returns, layer)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and numpy's LAPACK entry points."""
        self._name_id("op", OP_LAYER)
        for name in RETURNS_TRACED_CALLABLE.values():
            self._name_id(name, name.split(".")[0])
        mods = {name: importlib.import_module(f"qcwb.{name}") for name in LAYERS}
        qcwb_mods = qcwb_modules()
        imported_elsewhere = {
            id(v) for m in qcwb_mods for v in vars(m).values() if inspect.isfunction(v)
            and v.__module__ != m.__name__
        }
        originals: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and id(fn) not in imported_elsewhere:
                    continue
                name = f"{layer}.{attr}"
                hook = _count_fibers if name == "boundary.lift_T" else None
                originals[id(fn)] = self.wrap(
                    fn, name, layer, hook, RETURNS_TRACED_CALLABLE.get(name)
                )
        self._rebound += rebind_in_qcwb(originals)
        for attr in LAPACK:
            fn = getattr(np.linalg, attr)
            self._rebound.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self.wrap(fn, f"lapack.{attr}", LAPACK_LAYER, _count_n3))

    def uninstall(self) -> None:
        restore(self._rebound)
        self._rebound.clear()

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._reset_counters()
        idx = len(self.span_name)
        self.span_name.append(self._ids["op"])
        self.span_parent.append(-1)
        self.span_op.append(op)
        self.span_end.append(0.0)
        self._stack = [[idx, self.name_layer[self._ids["op"]], 0.0]]
        self.span_start.append(time.perf_counter() - self._t_origin)
        self.op = op

    def end_op(self) -> None:
        t1 = time.perf_counter() - self._t_origin
        self.op = None
        idx = self._stack[0][0]
        self.span_end[idx] = t1
        self._stack = []
        self.per_op.append(self._op_figures(t1 - self.span_start[idx]))

    def _op_figures(self, op_s: float) -> dict[str, float]:
        fig: dict[str, float] = {"traced.op_s": op_s}
        for nid, name in enumerate(self.names):
            fig[f"{name}.calls"] = self.calls[nid]
            fig[f"{name}.s"] = self.incl[nid]
        for lid, layer in enumerate(self.layers):
            fig[f"{layer}.self_s"] = self.self_s[lid]
            if layer in LAYER_S_FIGURE:
                fig[LAYER_S_FIGURE[layer]] = self.layer_s[lid]
        fig["linalg.lapack.calls"] = sum(
            self.calls[self._ids[f"lapack.{a}"]] for a in LAPACK if f"lapack.{a}" in self._ids
        )
        fig["linalg.lapack.n3"] = self.lapack_n3
        fig["boundary.fibers"] = self.fibers
        return fig

    def write_spans(self, path) -> int:
        """Save the spans as columns of an ``.npz`` file; returns the count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
        return len(self.span_name)


def _count_n3(tracer: Tracer, args, kwargs) -> None:
    a = args[0] if args else kwargs["a"]
    shape = a.shape if isinstance(a, np.ndarray) else np.shape(a)
    if len(shape) >= 2:
        m, n = shape[-2:]
        tracer.lapack_n3 += math.prod(shape[:-2]) * m * n * min(m, n)


def _count_fibers(tracer: Tracer, args, kwargs) -> None:
    model = args[1] if len(args) > 1 else kwargs["model"]
    tracer.fibers += model.grid_size + 1
