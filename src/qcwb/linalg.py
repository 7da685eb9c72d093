"""Dense complex linear algebra kernel.

Everything in the workbench runs on square ``complex128`` numpy arrays.  This
module supplies the Hermitian eigendecomposition (LAPACK by default, with a
self-contained cyclic Jacobi as an independent alternative), functional
calculus, operator norms, fractional powers of positive matrices, unitary
exponentials, the nearest-projection map, and a minimum-norm sandwich solver.

All operations are pure functions: inputs are never mutated, results are
freshly allocated.  Numerical thresholds are collected in a
:class:`ToleranceProfile` so callers can tighten or relax them in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DimMismatch",
    "NotHermitian",
    "NoConvergence",
    "NotPositive",
    "GapTooSmall",
    "ToleranceProfile",
    "DEFAULT_PROFILE",
    "PROFILES",
    "EigenSystem",
    "RealFunction",
    "adjoint",
    "hermitian_part",
    "jacobi_eigh",
    "herm_eig",
    "func_calc",
    "unitary_exp",
    "op_norm",
    "frac_power",
    "nearest_projection",
    "pseudo_solve",
    "smooth_step",
    "POS",
    "NEG",
    "CLAMP01",
    "STEP_HALF",
    "SQRT0",
]


class DimMismatch(ValueError):
    """Operands do not share the required square shape."""


class NotHermitian(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NoConvergence(RuntimeError):
    """The iterative eigensolver exhausted its sweep budget."""


class NotPositive(ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class GapTooSmall(ValueError):
    """The spectrum reaches 1/2, so thresholding is not a stable projection map."""


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical thresholds threaded through every operation.

    ``method`` selects the eigensolver backend: ``"lapack"`` (numpy's eigh) or
    ``"jacobi"`` (the cyclic Jacobi implemented here, slower but
    self-contained).
    """

    name: str = "default"
    method: str = "lapack"
    hermitian_tol: float = 1e-10     # relative defect allowed by herm preconditions
    sweep_budget: int = 64           # Jacobi sweeps before NoConvergence
    off_diag_tol: float = 1e-14      # Jacobi stop: off-diagonal mass / ||H||_F
    clamp_tol: float = 1e-10         # most negative eigenvalue clamped to 0
    rank_tol: float = 1e-12          # singular values below rank_tol*smax are zero
    support_tol: float = 1e-10       # corner/support discipline checks


DEFAULT_PROFILE = ToleranceProfile()

PROFILES = {
    "default": DEFAULT_PROFILE,
    "strict": ToleranceProfile(name="strict", hermitian_tol=1e-12, clamp_tol=1e-12),
    "jacobi": ToleranceProfile(name="jacobi", method="jacobi"),
}


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def _as_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"{what} must be square, got shape {a.shape}")
    return a


def _same_dim(*mats: np.ndarray) -> int:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimMismatch(f"operands have mixed dimensions {sorted(dims)}")
    return dims.pop()


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (real, ascending) and a unitary basis of eigencolumns."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble basis @ diag(values) @ basis*."""
        u = self.basis
        return (u * np.asarray(values)) @ u.conj().T


def _offdiag_norm(a: np.ndarray) -> float:
    # direct sum of off-diagonal squares; the ||A||^2 - ||diag||^2 shortcut
    # cancels catastrophically near convergence
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.linalg.norm(b))


def _jacobi_rotation(app: float, aqq: float, b: complex) -> np.ndarray:
    """Unitary 2x2 zeroing the off-diagonal of [[app, b], [conj(b), aqq]].

    Rutishauser tangent formula; |angle| <= pi/4 keeps cyclic sweeps convergent.
    """
    absb = abs(b)
    phase = b.conjugate() / absb
    tau = (aqq - app) / (2.0 * absb)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    return np.array([[c, s], [-phase * s, phase * c]], dtype=complex)


def jacobi_eigh(
    h: np.ndarray,
    sweep_budget: int = 64,
    off_tol: float = 1e-14,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues ascending, unitary basis)``.  Stops when the
    off-diagonal Frobenius mass drops below ``off_tol * ||h||_F``; raises
    :class:`NoConvergence` if the sweep budget is exhausted first.
    """
    a = hermitian_part(_as_square(h, "eigensolver input"))
    n = a.shape[0]
    u = np.eye(n, dtype=complex)
    scale = float(np.linalg.norm(a))
    if scale == 0.0 or n == 1:
        return np.diag(a).real.copy(), u
    skip = 1e-18 * scale
    converged = False
    for _ in range(sweep_budget):
        if _offdiag_norm(a) <= off_tol * scale:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                v2 = _jacobi_rotation(a[p, p].real, a[q, q].real, apq)
                idx = [p, q]
                a[:, idx] = a[:, idx] @ v2
                a[idx, :] = v2.conj().T @ a[idx, :]
                u[:, idx] = u[:, idx] @ v2
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    if not converged and _offdiag_norm(a) > off_tol * scale:
        raise NoConvergence(
            f"cyclic Jacobi did not converge within {sweep_budget} sweeps"
        )
    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], u[:, order]


def _eigh_raw(h: np.ndarray, profile: ToleranceProfile) -> EigenSystem:
    """Decompose the Hermitian part of ``h`` without precondition checks."""
    a = hermitian_part(h)
    if profile.method == "jacobi":
        w, u = jacobi_eigh(a, profile.sweep_budget, profile.off_diag_tol)
    else:
        try:
            w, u = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NoConvergence(str(exc)) from exc
    return EigenSystem(eigenvalues=w, basis=u)


def _hermitian_defect(a: np.ndarray, tol: float, profile: ToleranceProfile) -> float | None:
    """``None`` when ``||a - a*|| <= tol * max(1, ||a||)`` in operator norm, else the defect.

    Frobenius first: ``||d||_2 <= ||d||_F`` and ``||a||_2 >= ||a||_F / sqrt(n)``,
    so ``||a - a*||_F <= tol * max(1, ||a||_F / sqrt(n))`` accepts without a
    decomposition.  Only otherwise are the two operator norms computed.  The
    gate accepts exactly what the operator-norm check accepts; a non-finite
    matrix is rejected.
    """
    with np.errstate(invalid="ignore"):  # inf - inf: rejected below as NaN
        d = a - a.conj().T
    d_frob = float(np.linalg.norm(d))
    if not math.isfinite(d_frob):
        return d_frob
    if d_frob <= tol * max(1.0, float(np.linalg.norm(a)) / math.sqrt(max(a.shape[0], 1))):
        return None
    defect = op_norm(d, profile)
    if not (defect <= tol * max(1.0, op_norm(a, profile))):
        return defect
    return None


def herm_eig(h: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    Raises :class:`NotHermitian` when ``||h - h*||`` exceeds
    ``hermitian_tol * max(1, ||h||)`` in operator norm, or when ``h`` is not
    finite.  The precondition is decided by Frobenius norms whenever they
    settle it, so a Hermitian input costs one decomposition, not three.
    """
    a = _as_square(h, "herm_eig input")
    defect = _hermitian_defect(a, profile.hermitian_tol, profile)
    if defect is not None:
        raise NotHermitian(f"hermitian defect {defect:.3e} exceeds tolerance")
    return _eigh_raw(a, profile)


# ---------------------------------------------------------------------------
# scalar functions of a real variable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """A named real -> real map usable in functional calculus.

    ``smoothness`` is one of ``"continuous"``, ``"smooth"`` or ``"step"``.
    ``vanishes_at_zero`` records f(0) = 0, the discipline required for
    relation expressions over non-unital inputs; ``unital_only`` flags maps
    (the clamp, the half-step) that do not decay at infinity and therefore
    only make sense where a unit is present.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    smoothness: str = "continuous"
    vanishes_at_zero: bool = True
    unital_only: bool = False

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(values, dtype=float))


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly rising between.

    The standard bump quotient sigma(u) / (sigma(u) + sigma(1-u)) with
    sigma(u) = exp(-1/u) on u > 0.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        su = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
        sv = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
    return su / (su + sv)


POS = RealFunction("pos", lambda t: np.maximum(t, 0.0))
NEG = RealFunction("neg", lambda t: np.maximum(-t, 0.0))
CLAMP01 = RealFunction(
    "clamp01", lambda t: np.clip(t, 0.0, 1.0), unital_only=True
)
STEP_HALF = RealFunction(
    "step_half",
    lambda t: np.where(t >= 0.5, 1.0, 0.0),
    smoothness="step",
    unital_only=True,
)
SQRT0 = RealFunction("sqrt0", lambda t: np.sqrt(np.maximum(t, 0.0)))


# ---------------------------------------------------------------------------
# functional calculus and friends
# ---------------------------------------------------------------------------


def func_calc(
    h: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Apply the scalar function ``f`` to a Hermitian matrix spectrally.

    Result is basis @ diag(f(eigenvalues)) @ basis*, re-hermitized to kill
    rounding asymmetry.  ``f`` may be a plain callable or a
    :class:`RealFunction`.
    """
    es = herm_eig(h, profile)
    values = np.asarray(f(es.eigenvalues), dtype=float)
    return hermitian_part(es.apply(values))


def unitary_exp(t: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE) -> np.ndarray:
    """exp(2*pi*i*t) of a Hermitian matrix; unitary, identity on projections."""
    es = herm_eig(t, profile)
    return es.apply(np.exp(2j * np.pi * es.eigenvalues))


def op_norm(m: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE) -> float:
    """Operator (spectral) norm: the largest singular value, values only.

    The LAPACK method takes the top value of ``svd(m, compute_uv=False)``; it
    never forms ``m* m``, so the result neither overflows nor underflows while
    ``m`` itself is representable.  The Jacobi method stays self-contained:
    Jacobi on the Gram matrix of ``m / max|m_ij|``, rescaled afterwards.
    """
    a = _as_square(m, "op_norm input")
    if a.size == 0:
        return 0.0
    if profile.method == "jacobi":
        scale = float(np.max(np.abs(a)))
        if scale == 0.0:
            return 0.0
        if not math.isfinite(scale):
            raise NoConvergence("op_norm input is not finite")
        b = a / scale
        w, _ = jacobi_eigh(b.conj().T @ b, profile.sweep_budget, profile.off_diag_tol)
        return scale * math.sqrt(max(float(w[-1]), 0.0))
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def frac_power(
    h: np.ndarray,
    p: float,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """h**p for positive semidefinite Hermitian h and p > 0.

    Eigenvalues in [-clamp_tol, 0) are clamped to zero; anything more negative
    raises :class:`NotPositive`.
    """
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    es = herm_eig(h, profile)
    w = es.eigenvalues
    if w.size and float(w[0]) < -profile.clamp_tol:
        raise NotPositive(f"lowest eigenvalue {w[0]:.3e} below -{profile.clamp_tol:.0e}")
    return hermitian_part(es.apply(np.power(np.maximum(w, 0.0), p)))


def _idempotency_defect(es: EigenSystem) -> float:
    """max |w^2 - w| over the eigenvalues: ``||a^2 - a||`` for the Hermitian ``a``."""
    w = es.eigenvalues
    return float(np.max(np.abs(w * w - w), initial=0.0))


def _threshold_half(es: EigenSystem) -> np.ndarray:
    """Spectral projection onto the eigenvalues at or above 1/2."""
    return hermitian_part(es.apply(np.where(es.eigenvalues >= 0.5, 1.0, 0.0)))


def nearest_projection(
    p: np.ndarray,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Exact projection nearest to an almost-idempotent Hermitian ``p``.

    Requires ``eta = ||p^2 - p|| < 1/4`` (so the spectrum stays clear of 1/2);
    otherwise :class:`GapTooSmall` is raised.  ``p`` is decomposed once:
    ``eta = max|w^2 - w|`` is read off its eigenvalues ``w``, and the result
    thresholds the same spectrum at 1/2 (eigenvalues below go to 0, the rest
    to 1).
    """
    es = herm_eig(_as_square(p, "nearest_projection input"), profile)
    eta = _idempotency_defect(es)
    if not (eta < 0.25):
        raise GapTooSmall(f"||p^2 - p|| = {eta:.4f} >= 1/4; spectrum touches 1/2")
    return _threshold_half(es)


def _pinv_psd_action(m: np.ndarray, profile: ToleranceProfile) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the eigendecomposition of m* m."""
    gram = hermitian_part(m.conj().T @ m)
    es = _eigh_raw(gram, profile)
    w = np.maximum(es.eigenvalues, 0.0)
    sigma = np.sqrt(w)
    smax = float(sigma[-1]) if sigma.size else 0.0
    if smax == 0.0:
        return np.zeros_like(m.conj().T)
    keep = sigma > profile.rank_tol * smax
    inv = np.where(keep, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)
    return es.apply(inv) @ m.conj().T


def pseudo_solve(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Minimum-norm y minimizing ||a @ y @ b - x||.

    Rank deficiency is handled by discarding singular values below
    ``rank_tol`` times the largest one, so a = 0 or b = 0 yields y = 0.
    """
    a = _as_square(a, "left factor")
    b = _as_square(b, "right factor")
    x = _as_square(x, "target")
    _same_dim(a, b, x)
    return _pinv_psd_action(a, profile) @ x @ _pinv_psd_action(b, profile)
