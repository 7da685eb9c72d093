"""The quadratic matrix relation system on triples (h, x, k).

A triple of n x n matrices is an exact representation when

    h*h + x*x = h,    k*k + x x* = k,    k x = x h,    h k = 0.

Equivalently (when h and k are Hermitian): h k = 0 and the 2n x 2n block
matrix T(h, x, k) = [[1 - h, x*], [x, k]] is a self-adjoint idempotent.  A
weaker system only asks h k = 0 and 0 <= T <= 1.  This module builds T,
measures residuals of all three relation sets, constructs the canonical
block-diagonal representations over a grid, and factors x through eighth
roots of h and k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import (
    DEFAULT_PROFILE,
    DimMismatch,
    EigenSystem,
    NotHermitian,
    ToleranceProfile,
    _as_square,
    _eigh_raw,
    _gate,
    _hermitian_gate,
    _max_norm_above,
    _norm_gate,
    _positive,
    _support,
    adjoint,
    op_norm,
)

__all__ = [
    "QcTriple",
    "FactorizationResidualTooLarge",
    "t_matrix",
    "low_level_residuals",
    "high_level_residuals",
    "positivity_residuals",
    "canonical_generators",
    "canonical_fiber",
    "factor_x",
    "LOW_LEVEL_LABELS",
    "E11",
    "E22",
    "E21",
]


class FactorizationResidualTooLarge(RuntimeError):
    """x could not be recovered from the k-h corner sandwich."""


LOW_LEVEL_LABELS = ("h_quadratic", "k_quadratic", "intertwiner", "orthogonality")

# factor_x's bounds: weak relation residual, and reconstruction defect / max(1, ||x||)
_PRE_TOL = 1e-8
_RECONSTRUCTION_TOL = 1e-7

# the 2x2 matrix units of the model fiber
E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E22 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
for _unit in (E11, E22, E21):
    _unit.flags.writeable = False


@dataclass(frozen=True)
class QcTriple:
    """An ordered triple of same-shape complex matrices, or of stacks of them.

    Components are ``(n, n)`` or ``(..., n, n)``; a stacked triple holds one
    triple per fiber, and the functions of this module work fiber by fiber.
    """

    h: np.ndarray
    x: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        h, x, k = (_as_square(getattr(self, name), name) for name in "hxk")
        if not (h.shape == x.shape == k.shape):
            raise DimMismatch(f"components differ in size: {h.shape}, {x.shape}, {k.shape}")
        for name, m in zip("hxk", (h, x, k)):
            object.__setattr__(self, name, m)

    @property
    def dim(self) -> int:
        return self.h.shape[-1]

    def direct_sum(self, other: "QcTriple") -> "QcTriple":
        def dsum(a, b):
            n, m = a.shape[0], b.shape[0]
            out = np.zeros((n + m, n + m), dtype=complex)
            out[:n, :n] = a
            out[n:, n:] = b
            return out

        return QcTriple(
            dsum(self.h, other.h), dsum(self.x, other.x), dsum(self.k, other.k)
        )


def t_matrix(triple: QcTriple) -> np.ndarray:
    """The 2n x 2n block matrix [[1 - h, x*], [x, k]] of each fiber, self-adjoint when
    h and k are Hermitian."""
    h, x, k = triple.h, triple.x, triple.k
    eye = np.eye(triple.dim, dtype=complex)
    top = np.concatenate([eye - h, adjoint(x)], axis=-1)
    return np.concatenate([top, np.concatenate([x, k], axis=-1)], axis=-2)


def _low_level_defects(triple: QcTriple) -> Iterator[np.ndarray]:
    """The four defining relation defects, in ``LOW_LEVEL_LABELS`` order.

    One at a time: :func:`low_level_residuals` holds a single ``n x n``
    defect while it takes that defect's norm.
    """
    h, x, k = triple.h, triple.x, triple.k
    yield adjoint(h) @ h + adjoint(x) @ x - h
    yield adjoint(k) @ k + x @ adjoint(x) - k
    yield k @ x - x @ h
    yield h @ k


def low_level_residuals(
    triple: QcTriple, profile: ToleranceProfile = DEFAULT_PROFILE
) -> dict[str, float]:
    """Operator norms of the four defining relation defects, per fiber."""
    # map lets go of each defect once its norm is taken; a loop variable
    # would hold it while the next one is formed
    norms = map(lambda defect: op_norm(defect, profile), _low_level_defects(triple))
    return dict(zip(LOW_LEVEL_LABELS, norms))


def high_level_residuals(
    triple: QcTriple, profile: ToleranceProfile = DEFAULT_PROFILE
) -> dict[str, float]:
    """Residuals of the block form: orthogonality, idempotency, self-adjointness."""
    t = t_matrix(triple)
    return {
        "orthogonality": op_norm(triple.h @ triple.k, profile),
        "idempotent": op_norm(t @ t - t, profile),
        "self_adjoint": op_norm(adjoint(t) - t, profile),
    }


def positivity_residuals(
    triple: QcTriple, profile: ToleranceProfile = DEFAULT_PROFILE
) -> dict[str, float]:
    """Residuals of the weak system: orthogonality plus 0 <= T <= 1, per fiber.

    h and k must be Hermitian (:class:`NotHermitian`), so that T is self-adjoint.
    """
    hk, below_zero, above_one = _weak_defects(triple, profile)
    return {
        "orthogonality": op_norm(hk, profile),
        "below_zero": below_zero,
        "above_one": above_one,
    }


def _weak_defects(
    triple: QcTriple, profile: ToleranceProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h k, and how far T's spectrum reaches below 0 and above 1, per fiber:
    :func:`positivity_residuals` before the norm of h k is taken."""
    for name, m in (("h", triple.h), ("k", triple.k)):
        _hermitian_gate(m, f"hermitian defect of {name}", NotHermitian, profile)
    w = _eigh_raw(t_matrix(triple), profile).eigenvalues
    # 0.0 - min(w, 0) rather than max(0, -w), which leaves -0.0 for w = 0
    below_zero, above_one = 0.0 - np.minimum(w[..., 0], 0.0), np.maximum(0.0, w[..., -1] - 1.0)
    return triple.h @ triple.k, below_zero, above_one


def canonical_fiber(t: float) -> QcTriple:
    """The 2x2 model representation at parameter t in (0, 1]."""
    return QcTriple(t * E11, np.sqrt(t - t * t) * E21, t * E22)


def canonical_generators(m: int) -> QcTriple:
    """Block-diagonal exact representation over the grid t_i = i/m, i = 1..m.

    Each 2x2 fiber is (t e11, sqrt(t - t^2) e21, t e22); the total dimension
    is 2m.  The grid uses right endpoints so t = 1 (the diagonal fiber) is
    always present and t = 0 (where everything vanishes) never is.
    """
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    ts = np.arange(1, m + 1, dtype=float) / m
    h = np.kron(np.diag(ts), E11)
    k = np.kron(np.diag(ts), E22)
    x = np.kron(np.diag(np.sqrt(ts - ts * ts)), E21)
    return QcTriple(h, x, k)


def factor_x(triple: QcTriple, profile: ToleranceProfile = DEFAULT_PROFILE) -> np.ndarray:
    """Factor x = k^(1/8) y h^(1/8), returning y = k^(-1/8) x h^(-1/8), per fiber.

    Requires the weak relation residuals below ``_PRE_TOL``, so that x lives in the
    k-h corner up to tolerance; h and k are then decomposed once each for
    :func:`_corner_sandwich`.  The spectral residuals are read off T's
    eigenvalues, and ||hk|| is decided from bounds, as in :func:`linalg._norm_gate`.
    The gate keeps its own test: it words a failure with the worst of the norm and
    the two spectral residuals, which are exact per-fiber values, not norms.
    """
    hk, below_zero, above_one = _weak_defects(triple, profile)
    spectral_ok = np.all(np.maximum(below_zero, above_one) <= _PRE_TOL)  # a NaN fails
    if not spectral_ok or _max_norm_above(hk, [_PRE_TOL], profile)[0]:
        worst = np.max([op_norm(hk, profile), below_zero, above_one], axis=0)
        _gate("corner relation residual", worst, _PRE_TOL, ValueError)
    # _weak_defects gated h and k Hermitian: each is decomposed unchecked
    hs = _positive(_eigh_raw(triple.h, profile), profile, "h")
    ks = _positive(_eigh_raw(triple.k, profile), profile, "k")
    return _corner_sandwich(hs, ks, triple.x, profile)


def _corner_sandwich(
    hs: EigenSystem, ks: EigenSystem, x: np.ndarray, profile: ToleranceProfile
) -> np.ndarray:
    """y = k^(-1/8) x h^(-1/8) off the decompositions of h and k, the inverse root on the
    support only; :class:`FactorizationResidualTooLarge` unless k^(1/8) y h^(1/8) gives
    back x to ``_RECONSTRUCTION_TOL * max(1, ||x||)``, a gate decided from bounds
    (:func:`linalg._norm_gate`)."""

    def eighth_roots(es: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
        w = np.maximum(es.eigenvalues, 0.0)
        inverse = np.power(w, -0.125, out=np.zeros_like(w), where=_support(w, profile))
        return es.apply(w**0.125), es.apply(inverse)

    h8, h8_inv = eighth_roots(hs)
    k8, k8_inv = eighth_roots(ks)
    y = k8_inv @ x @ h8_inv
    defect = k8 @ y @ h8 - x
    name, scale = "corner sandwich reconstruction defect", lambda: op_norm(x, profile)
    _norm_gate(name, defect, _RECONSTRUCTION_TOL, FactorizationResidualTooLarge, profile, scale)
    return y
