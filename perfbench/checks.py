"""Correctness checks for each workload's output, written with numpy alone.

Nothing here imports qcwb: a fault in the program's kernel (``op_norm``,
``winding_number``) must not be able to certify its own output.  Each check
takes the operation's input and output as plain arrays and raises
:class:`CheckFailed` with the first violated condition.
"""

from __future__ import annotations

import numpy as np

RELATION_TOL = 1e-10     # relation defects and projection defects of T
TRACE_TOL = 1e-8         # trace T = 2m
UNITARY_TOL = 1e-8       # ||u u* - 1|| and ||u(0) - 1||, ||u(1) - 1||
MAX_PHASE_STEP = np.pi / 4
# relative: numpy's SVD and the program's norm of the same matrix differ by
# rounding, so a sample the program put just under delta may read above it
SWEEP_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An operation's output violates a property the paper guarantees."""


def _require(ok: bool, message: str) -> None:
    # written as "not ok" so a NaN comparison fails the check
    if not ok:
        raise CheckFailed(message)


def _require_norm2(a: np.ndarray, bound: float, what: str) -> None:
    """||a||_2 <= bound for a matrix or a stack of them.

    The Frobenius norm bounds the 2-norm from above, so it settles every
    matrix it puts within the bound; the SVD runs only on the others.
    """
    unsettled = a[~(np.linalg.norm(a, axis=(-2, -1)) <= bound)]
    if unsettled.size:
        _require(bool(np.isfinite(unsettled).all()), f"{what} is not finite")
        value = float(np.max(np.linalg.norm(unsettled, 2, axis=(-2, -1))))
        _require(value <= bound, f"{what} {value:.3e} > {bound:.0e}")


def _adj(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _defects(h: np.ndarray, x: np.ndarray, k: np.ndarray) -> dict[str, np.ndarray]:
    """The four relations of a quantum-cylinder triple, as matrices that vanish."""
    return {
        "h_quadratic": _adj(h) @ h + _adj(x) @ x - h,
        "k_quadratic": _adj(k) @ k + x @ _adj(x) - k,
        "intertwiner": k @ x - x @ h,
        "orthogonality": h @ k,
    }


def check_smoothing(inp: dict, out: dict, epsilon: float, m: int) -> None:
    """The smoothed triple is an exact representation within epsilon of the input."""
    h, x, k = out["h"], out["x"], out["k"]
    n = h.shape[0]
    for label, d in _defects(h, x, k).items():
        _require_norm2(d, RELATION_TOL, f"{label} defect")
    for name in ("h", "x", "k"):
        _require_norm2(out[name] - inp[name], epsilon, f"distance moved by {name}")
    t = np.block([[np.eye(n) - h, _adj(x)], [x, k]])
    _require_norm2(t - _adj(t), RELATION_TOL, "Hermitian defect of T")
    _require_norm2(t @ t - t, RELATION_TOL, "idempotent defect of T")
    tr = complex(np.trace(t))
    _require(
        abs(tr - 2 * m) <= TRACE_TOL,
        f"trace T = {tr:.10g}, expected 2m = {2 * m}",
    )


def recount_winding(u: np.ndarray) -> tuple[int, float]:
    """Winding of det u along the grid and the largest phase step, from numpy."""
    phase = np.unwrap(np.angle(np.linalg.det(u)))
    turns = (phase[-1] - phase[0]) / (2 * np.pi)
    winding = int(np.rint(turns))
    _require(abs(turns - winding) <= 0.01, f"det phase ends at {turns:.4f} turns")
    step = float(np.max(np.abs(np.diff(phase)))) if phase.size > 1 else 0.0
    return winding, step


def check_boundary(out: dict, expected_winding: int) -> None:
    """u is a unitary loop based at 1 whose det winds ``expected_winding`` times."""
    u = out["u"]
    n = u.shape[-1]
    eye = np.eye(n)
    _require_norm2(u @ np.conj(np.swapaxes(u, -1, -2)) - eye, UNITARY_TOL, "unitarity defect of u")
    for end, i in (("0", 0), ("1", -1)):
        _require_norm2(u[i] - eye, UNITARY_TOL, f"distance of u({end}) from 1")
    winding, step = recount_winding(u)
    _require(step < MAX_PHASE_STEP, f"largest phase step {step:.3f} >= pi/4")
    _require(
        winding == expected_winding,
        f"recounted winding {winding}, expected {expected_winding}",
    )
    _require(
        out["winding"] == winding,
        f"program reports winding {out['winding']}, recount gives {winding}",
    )


def check_sweep(out: dict, deltas: list[float], replay: dict) -> None:
    """One row per delta in order, each value in (0, delta], and each value
    recomputed from the environments the sampler drew.

    ``replay`` is a second run with the same seed that recorded every sampled
    environment as ``(delta, {"h", "x", "k"})``.  Its table must equal
    ``out``'s; every environment's four relation defects must be <= delta;
    and each row must be the largest norm, over that delta's environments,
    of the consequence sym(x'x - (h - h'h)).  The consequence is
    pos(A) - neg(A) of that Hermitian A, which is A itself.
    """
    _require(out["exit_code"] == 0, f"cli exit code {out['exit_code']}")
    rows = out["sweep"]
    got = [float(d) for d, _ in rows]
    _require(got == [float(d) for d in deltas], f"sweep rows {got} != deltas {deltas}")
    for delta, value in rows:
        _require(
            0.0 < value <= delta,
            f"consequence {value!r} outside (0, {delta}]",
        )
    _require(
        replay["exit_code"] == 0 and replay["sweep"] == rows,
        f"a replay with the same seed gives {replay['sweep']}, not {rows}",
    )
    for delta, value in rows:
        envs = [env for d, env in replay["samples"] if d == delta]
        _require(bool(envs), f"no environment sampled at delta {delta}")
        norms = []
        for env in envs:
            h, x, k = env["h"], env["x"], env["k"]
            for label, d in _defects(h, x, k).items():
                bound = delta * (1 + SWEEP_RTOL)
                _require_norm2(d, bound, f"{label} defect of a sample at delta {delta}")
            a = _adj(x) @ x - (h - _adj(h) @ h)
            norms.append(float(np.linalg.norm(0.5 * (a + _adj(a)), 2)))
        _require(
            abs(value - max(norms)) <= SWEEP_RTOL * max(norms),
            f"consequence at delta {delta} reported {value!r}, recomputed {max(norms)!r}",
        )
