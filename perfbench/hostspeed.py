"""Reference kernel that measures how fast the host runs right now.

The benchmark shares a host whose speed drifts: co-tenant load slows a
single-threaded numpy and Python loop by up to 70%, in phases from under a
second to minutes, with no steal time (README.md).  A worker therefore times
this fixed kernel just before and just after every operation, in the same
process, and scales the operation's wall time by ``NOMINAL_KERNEL_S`` over
the kernel's mean time in those two samples.  The scaled time is what the
operation would take on a host where the kernel takes ``NOMINAL_KERNEL_S``.

The kernel mixes, in about equal shares of its time, the kinds of work the
workloads do: a pure Python loop, ``eigh`` on 4x4 and on 24x24 matrices
(Python overhead per call), one LAPACK-sized ``eigh`` and one BLAS product.
No single kind tracked every workload's slowdown; the mix did best.  It uses
only numpy, bound when this module is imported, so neither qcwb nor the
tracer can change it.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's median time on the machine the reference figures come
# from (README.md); a fixed scale, never re-measured
NOMINAL_KERNEL_S = 0.005
MIN_KERNELS = 2

_eigh = np.linalg.eigh
_rng = np.random.default_rng(0)


def _symmetric(n: int) -> np.ndarray:
    a = _rng.standard_normal((n, n))
    return a + a.T


_TINY = _symmetric(4)
_SMALL = _symmetric(24)
_LARGE = _symmetric(96)
_PRODUCT = _rng.standard_normal((256, 256))


def kernel() -> None:
    total = 0
    for i in range(20000):
        total += i
    for _ in range(75):
        _eigh(_TINY)
    for _ in range(10):
        _eigh(_SMALL)
    _eigh(_LARGE)
    _PRODUCT @ _PRODUCT


def sample(seconds: float) -> float:
    """Mean time of one kernel over at least ``seconds`` (and MIN_KERNELS)."""
    count = 0
    start = time.perf_counter()
    while True:
        kernel()
        count += 1
        elapsed = time.perf_counter() - start
        if count >= MIN_KERNELS and elapsed >= seconds:
            return elapsed / count


def scale(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` on a host where the kernel takes NOMINAL_KERNEL_S."""
    return wall_s * NOMINAL_KERNEL_S / kernel_s
