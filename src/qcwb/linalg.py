"""Dense complex linear algebra kernel.

Everything in the workbench runs on square ``complex128`` numpy arrays.  Each
operation takes one matrix ``(n, n)`` or a stack ``(..., n, n)`` of them and
works fiber by fiber over the leading axes; thresholds and gates stay
relative to each fiber, and a gate fails when any one fiber fails.  This
module supplies the Hermitian eigendecomposition (LAPACK by default, with a
self-contained cyclic Jacobi as an independent alternative, whose round-robin
rounds rotate disjoint index pairs of every fiber of a stack at once),
functional calculus, operator norms, fractional powers of positive matrices,
unitary exponentials, the nearest-projection map, and the support cutoff of a
positive spectrum.  One decomposition serves every function of the same matrix:
:meth:`EigenSystem.apply` assembles each one from the shared basis.

Norms are values only.  Where a caller needs only the largest norm over a
stack (:func:`_max_op_norm`) or whether it exceeds given levels
(:func:`_max_norm_above`), cheap rigorous bounds decide first.  A comparison
first tries the Frobenius norm of the whole stack: a level at or above it is
not exceeded.  Both functions then read the Gram-power bounds of every fiber
(:func:`_gram_power_bounds`), the column and Frobenius norms of
``(m* m)^4``, whose eighth roots lie within ``n^(1/16)``.  An SVD runs only
on the fibers those bounds cannot settle: those that may hold the maximum,
or whose bounds straddle a level.  The answers are those of :func:`op_norm`
on the whole stack, bit for bit.  :func:`_norm_gate`, the one gate on a
defect's norm, decides from these comparisons and measures a norm only to
word a failure; it also decides the Hermitian precondition
(:func:`_hermitian_gate`).

All operations are pure functions: inputs are never mutated, results are
freshly allocated.  Numerical thresholds are collected in a
:class:`ToleranceProfile` so callers can tighten or relax them in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    "strict": ToleranceProfile(hermitian_tol=1e-12, clamp_tol=1e-12),
    "jacobi": ToleranceProfile(method="jacobi"),
}


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each fiber."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 of each fiber.

    Where the sum overflows, on parts above about 9e307, each term is halved
    first: m/2 + m*/2.  Only there, since halving first rounds subnormal parts.
    """
    m = np.asarray(m, dtype=complex)
    try:
        with np.errstate(over="raise"):
            out = m + adjoint(m)
    except FloatingPointError:
        half = m * 0.5
        return half + adjoint(half)
    out *= 0.5
    return out


def _as_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"{what} must be square, got shape {a.shape}")
    return a


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
        return self.basis.shape[-1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Assemble basis @ diag(values) @ basis* for each fiber (basis may be a block of rows)."""
        # scaling a conjugated copy in place keeps one full-size temporary;
        # the ufunc always copies (ndarray.conj returns a real array itself)
        scaled = np.conjugate(self.basis, dtype=complex)
        scaled *= np.asarray(values)[..., None, :]
        return self.basis @ scaled.swapaxes(-1, -2)


def _gate(name: str, value, bound, error: type[Exception]) -> None:
    """Pass when ``value <= bound`` holds in every fiber; raise ``error`` otherwise.

    ``value`` and ``bound`` are scalars or per-fiber arrays that broadcast
    together, and a NaN fails.  The message names the quantity, the first
    failing fiber of a stack, and that fiber's value and bound.  A strict
    gate ``value < b`` passes ``np.nextafter(b, 0)`` as its bound.
    """
    fails = ~(np.asarray(value) <= bound)
    if not fails.any():
        return
    value, bound = np.broadcast_arrays(value, bound)
    idx = np.unravel_index(np.argmax(fails), fails.shape)
    v, b = float(value[idx]), float(bound[idx])
    # a strict bound sits one ulp below the value that reaches it
    digits = 3 if f"{v:.3e}" != f"{b:.3e}" else 16
    at = f" at fiber {', '.join(map(str, idx))}" if idx else ""
    raise error(f"{name} = {v:.{digits}e}{at} exceeds the bound {b:.{digits}e}")


def _round_robin(n: int) -> np.ndarray:
    """The ``(rounds, 2, n // 2)`` index pairs ``(p, q)`` of one Jacobi sweep
    over ``n`` indices: no index twice in a round, and every pair once in the
    sweep.  With ``m = n`` rounded up to even, index ``m - 1`` stays put and
    round ``r`` pairs it with ``r``, and ``r + i`` with ``r - i`` modulo
    ``m - 1``; for odd ``n`` the index ``m - 1 = n`` is a dummy, and its pair
    sits out."""
    m = n + n % 2
    r, i = np.ogrid[: m - 1, : m // 2]
    p, q = (r + i) % (m - 1), (r - i) % (m - 1)
    q[:, 0] = m - 1
    return np.stack([p, q], axis=1)[..., n % 2 :]


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Per fiber of the ``(fibers, n, n)`` stack ``a``, the Frobenius norm of its
    off-diagonal part.  The squares are summed directly: the shortcut
    ``||a||_F^2 - sum |a_ii|^2`` cancels catastrophically near convergence."""
    n = a.shape[-1]
    squares = (a.real**2 + a.imag**2).reshape(len(a), n * n)
    squares[:, :: n + 1] = 0.0
    return np.sqrt(squares.sum(axis=-1))


def _rotate(m: np.ndarray, p: np.ndarray, q: np.ndarray, c, s, ps, pc) -> None:
    """Columns ``p`` and ``q`` of each fiber of ``m`` times ``[[c, s], [-ps, pc]]``,
    in place; the pairs are disjoint, so all of them at once."""
    mp, mq = m[..., p], m[..., q]
    # each element gets the operations of c * mp - ps * mq and
    # s * mp + pc * mq, from three new arrays, not six; numpy's complex
    # product need not commute bit for bit, so pc stays the first factor
    new = c * mp
    new -= ps * mq
    np.multiply(pc, mq, out=mq)
    mq += s * mp
    m[..., p], m[..., q] = new, mq


def jacobi_eigh(
    h: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a Hermitian matrix or stack.

    Returns ``(eigenvalues ascending, unitary basis)``.  A sweep is the
    rounds of :func:`_round_robin` (Brent and Luk, SIAM J. Sci. Stat. Comput.
    6, 1985): each round zeroes ``n // 2`` disjoint off-diagonal pairs of
    every fiber at once, by rotations from the Rutishauser tangent formula,
    whose angles of at most pi/4 keep cyclic sweeps convergent.  A pair whose
    entry is at most ``1e-18 ||h||_F`` of its fiber is not rotated.  A fiber
    is done once its off-diagonal Frobenius mass is at most
    ``profile.off_diag_tol * ||h||_F``; it is then left alone, so its result is the same,
    bit for bit, whatever stack it sits in.  A fiber whose largest part lies
    outside ``_UNSCALED``, where the squares of its norms overflow or
    underflow, is decomposed scaled by a power of two, exactly, and its
    eigenvalues are scaled back.  :class:`NoConvergence` names the first
    fiber that is not finite, before any rotation, or the first one not done
    after ``profile.sweep_budget`` sweeps.
    """
    a = _as_square(h, "eigensolver input")
    if not np.isfinite(a).all():
        top = np.max(np.abs(a), axis=(-2, -1))
        raise NoConvergence(_not_finite(top, "eigensolver input is not finite"))
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(math.prod(shape[:-2]), n, n)
    top = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1), initial=0.0)
    e = np.frexp(top)[1]
    far = (top > 0.0) & ~((_UNSCALED[0] <= top) & (top <= _UNSCALED[1]))
    if far.any():
        a = a.copy()  # the caller's array stays as it is
        for factor in _powers_of_two(e[far]):
            a[far] *= factor[:, None, None]
    a = hermitian_part(a)
    scale = np.sqrt((a.real**2 + a.imag**2).reshape(len(a), n * n).sum(axis=-1))
    off, bound, skip = _off_diagonal(a), profile.off_diag_tol * scale, 1e-18 * scale
    # the basis rides below the matrix, so one column rotation turns both
    au = np.concatenate([a, np.broadcast_to(np.eye(n), a.shape)], axis=1)
    live = np.flatnonzero(off > bound)
    for _ in range(profile.sweep_budget):
        if not live.size:
            break
        b = au[live]  # the live fibers, each a above its basis
        a, small = b[:, :n], skip[live, None]
        for p, q in _round_robin(n):
            apq = a[:, p, q]
            size = np.abs(apq)
            keep = size <= small
            size[keep] = 1.0
            tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * size)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[keep] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            phase = np.where(keep, 1.0, apq.conj() / size)
            c, s, ps, pc = c[:, None], s[:, None], (phase * s)[:, None], (phase * c)[:, None]
            _rotate(b, p, q, c, s, ps, pc)
            _rotate(a.swapaxes(-1, -2), p, q, c, s, ps.conj(), pc.conj())
            a[:, p, q] *= keep
            a[:, q, p] *= keep
        au[live] = b
        off[live] = _off_diagonal(a)
        live = live[off[live] > bound[live]]
    name = f"off-diagonal mass after {profile.sweep_budget} Jacobi sweeps"
    _gate(name, off.reshape(shape[:-2]), bound.reshape(shape[:-2]), NoConvergence)
    w = np.diagonal(au[:, :n], axis1=-2, axis2=-1).real
    order = np.argsort(w, axis=-1, kind="stable")
    u = np.take_along_axis(au[:, n:], order[:, None, :], axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    w[far] = np.ldexp(w[far], e[far, None])
    return w.reshape(shape[:-1]), u.reshape(shape)


def _eigh_raw(h: np.ndarray, profile: ToleranceProfile) -> EigenSystem:
    """Decompose the Hermitian part of each fiber of ``h``, unchecked;
    :func:`jacobi_eigh` takes that part itself."""
    if profile.method == "jacobi":
        w, u = jacobi_eigh(h, profile)
    else:
        try:
            w, u = np.linalg.eigh(hermitian_part(h))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NoConvergence(str(exc)) from exc
    return EigenSystem(eigenvalues=w, basis=u)


def _hermitian_gate(
    a: np.ndarray, name: str, error: type[Exception], profile: ToleranceProfile
) -> None:
    """Gate ``||a - a*|| <= tol * max(1, ||a||)`` per fiber through
    :func:`_norm_gate`, with ``tol = profile.hermitian_tol``.  A fiber whose
    ``a - a*`` is not finite (a NaN or inf in ``a``, or an overflow) fails
    first, as a NaN defect."""
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, or overflow: failed here
        d = a - adjoint(a)
    finite = np.isfinite(d).all(axis=(-2, -1))
    _gate(name, np.where(finite, 0.0, np.nan), profile.hermitian_tol, error)
    _norm_gate(name, d, profile.hermitian_tol, error, profile, lambda: op_norm(a, profile))


def herm_eig(h: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE) -> EigenSystem:
    """Eigendecomposition of each Hermitian fiber, ascending eigenvalues.

    Raises :class:`NotHermitian`, naming the first failing fiber, when
    ``||h - h*||`` exceeds ``hermitian_tol * max(1, ||h||)`` in operator norm
    or when ``h`` is not finite.
    """
    a = _as_square(h, "herm_eig input")
    _hermitian_gate(a, "hermitian defect", NotHermitian, profile)
    return _eigh_raw(a, profile)


def _support(w: np.ndarray, profile: ToleranceProfile) -> np.ndarray:
    """Mask of the eigenvalues ``w`` of a positive matrix that span its range:
    those above ``support_tol * max(1, largest eigenvalue)`` of their fiber."""
    top = np.max(w, axis=-1, keepdims=True, initial=0.0)
    return w > profile.support_tol * np.maximum(1.0, top)


def _support_projection(es: EigenSystem, profile: ToleranceProfile) -> np.ndarray:
    """Projection onto the range of the positive matrix that ``es`` decomposes."""
    return hermitian_part(es.apply(_support(es.eigenvalues, profile)))


def _span(a: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal columns spanning the columns of ``a`` up to residuals of norm
    ``cut``, or the whole space.

    Gram-Schmidt with column pivoting on a C-ordered copy of ``a``: each step
    takes the largest residual left as a new column, projects it once more
    off the columns taken so far, and projects it off the other residuals.  A
    residual is a difference of vectors, accurate to rounding, so a unit
    column at an angle theta to the span is kept for sin(theta) above
    ``cut``; a decomposition of the sum of the projections onto the columns
    would see theta^2.  The copy's layout fixes the rounding, so ``a`` and
    its C-ordered copy give the same columns, bit for bit.
    """
    e = np.array(a, dtype=complex, order="C")
    out = np.empty((len(e), min(e.shape)), dtype=complex)
    k = 0
    while k < out.shape[1]:
        squares = np.einsum("ij,ij->j", e.conj(), e).real
        j = np.argmax(squares)
        if not squares[j] > cut * cut:
            break
        col = e[:, j] / np.sqrt(squares[j])
        done = out[:, :k]
        col -= done @ (adjoint(done) @ col)
        col /= np.sqrt(np.vdot(col, col).real)
        out[:, k] = col
        k += 1
        e -= np.outer(col, col.conj() @ e)
    return out[:, :k]


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n complex Gaussian matrix, its real part drawn first."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _positive_eig(h: np.ndarray, profile: ToleranceProfile, what: str = "h") -> EigenSystem:
    """:func:`herm_eig` of ``h``, each fiber's lowest eigenvalue gated at
    ``-profile.clamp_tol`` (:class:`NotPositive`)."""
    es = herm_eig(h, profile)
    lowest = -es.eigenvalues.min(axis=-1, initial=0.0)
    _gate(f"-min eigenvalue of {what}", lowest, profile.clamp_tol, NotPositive)
    return es


# ---------------------------------------------------------------------------
# scalar functions of a real variable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """A named real -> real map usable in functional calculus.

    ``smoothness`` is one of ``"continuous"``, ``"smooth"`` or ``"step"``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    smoothness: str = "continuous"

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(values, dtype=float))


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly rising between.

    The standard bump quotient sigma(u) / (sigma(u) + sigma(1-u)) with
    sigma(u) = exp(-1/u) on u > 0.  A NaN maps to NaN, with no warning.
    """
    u = np.asarray(u, dtype=float)
    # su + sv > 0 for every u but a NaN, whose 0/0 is the NaN returned
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        su = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
        sv = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
        return su / (su + sv)


POS = RealFunction("pos", lambda t: np.maximum(t, 0.0))
NEG = RealFunction("neg", lambda t: np.maximum(-t, 0.0))
CLAMP01 = RealFunction("clamp01", lambda t: np.clip(t, 0.0, 1.0))
STEP_HALF = RealFunction("step_half", lambda t: np.where(t >= 0.5, 1.0, 0.0), smoothness="step")
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
    return _calc(herm_eig(h, profile), f)


def _calc(es: EigenSystem, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """:func:`func_calc` off the decomposition ``es``."""
    return hermitian_part(es.apply(np.asarray(f(es.eigenvalues), dtype=float)))


def unitary_exp(t: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE) -> np.ndarray:
    """exp(2*pi*i*t) of a Hermitian matrix; unitary, identity on projections."""
    es = herm_eig(t, profile)
    return es.apply(np.exp(2j * np.pi * es.eigenvalues))


def op_norm(
    m: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE
) -> float | np.ndarray:
    """Operator (spectral) norm: the largest singular value, values only.

    A float for one matrix, an array of per-fiber norms for a stack.  The
    LAPACK method takes the top value of ``svd(m, compute_uv=False)``; it
    never forms ``m* m``, so the result neither overflows nor underflows while
    ``m`` itself is representable.  The Jacobi method stays self-contained:
    Jacobi on the Gram matrix of ``m / max|m_ij|``, rescaled afterwards.
    Under either method a NaN or inf entry raises :class:`NoConvergence`,
    which names the first such fiber of a stack, and so does a norm past the
    float range, with its own message.
    """
    a = _as_square(m, "op_norm input")
    # scanned first: LAPACK prints to stdout on a NaN or inf entry
    if not np.isfinite(a).all():
        raise NoConvergence(_not_finite(np.max(np.abs(a), axis=(-2, -1))))
    norms = _norms(a, profile)
    return float(norms) if a.ndim == 2 else norms


def _norms(
    a: np.ndarray, profile: ToleranceProfile, where: np.ndarray | None = None
) -> np.ndarray:
    """:func:`op_norm` of ``a``, whose entries the caller found finite.  A norm
    past the float range raises :class:`NoConvergence` naming its fiber, in the
    caller's stack when ``a`` holds the fibers the mask ``where`` selects there."""
    if a.shape[-1] == 0:
        norms = np.zeros(a.shape[:-2])
    elif profile.method == "jacobi":
        scale = np.max(np.abs(a), axis=(-2, -1))
        # real divisions: a complex one overflows on a subnormal scale
        safe = np.where(scale > 0.0, scale, 1.0)[..., None, None]
        b = a.real / safe + 1j * (a.imag / safe)
        w, _ = jacobi_eigh(adjoint(b) @ b, profile)
        with np.errstate(over="ignore"):  # an overflow is raised below
            norms = scale * np.sqrt(np.maximum(w[..., -1], 0.0))
    else:
        try:
            norms = np.linalg.svd(a, compute_uv=False)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
    # testing the norms is O(1) per fiber, and math.isfinite keeps the test
    # on one matrix below 0.1 us
    if not (math.isfinite(norms) if a.ndim == 2 else np.isfinite(norms).all()):
        if where is not None:  # name the fiber in the caller's stack
            norms, measured = np.zeros(where.shape), norms
            norms[where] = measured
        raise NoConvergence(_not_finite(norms, "operator norm overflows the float range"))
    return norms


# the relative slack on the pruning bounds, far above their rounding error
_PRUNE_MARGIN = 1e-8
# parts whose squares, summed over a fiber, neither overflow nor drop bits
# that matter against the largest one; outside, the Frobenius pass of
# _max_norm_above and jacobi_eigh rescale
_UNSCALED = (2.0**-400, 2.0**400)
# bytes of the fibers that one block of the Gram-power pass multiplies: the
# pass holds a few such blocks at a time, whatever the size of the stack
_BLOCK_BYTES = 2**18


def _parts_top(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The float view of ``a``, in which column j of a fiber is columns 2j and
    2j + 1, and its largest absolute part.  A NaN or inf entry raises
    :class:`NoConvergence` naming its fiber, before any BLAS call."""
    v = np.ascontiguousarray(a).view(float)
    hi, lo = float(v.max(initial=0.0)), float(v.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NoConvergence(_not_finite(np.abs(a).max(axis=(-2, -1))))
    return v, max(hi, -lo)


def _powers_of_two(e: int | np.ndarray) -> tuple:
    """Two factors whose product is ``2**-e``, to scale by in turn: ``2**-e``
    alone overflows when ``e`` belongs to a subnormal number.  ``e`` may be
    an integer array, one exponent per fiber, and the factors are then arrays."""
    half = e // 2
    return np.ldexp(1.0, -half), np.ldexp(1.0, half - e)


def _gram_power_bounds(a: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds below and above on the computed norm of ``a_i * 2**-e``, for
    each fiber ``a_i`` of ``a``, in the order of the flattened stack.

    With ``b = a_i * 2**-e`` and ``P = (b* b)^4``, ``||P|| = ||b||^8``, and the
    largest column norm of ``P`` <= ``||P||`` <= ``||P||_F``: the eighth roots
    of the outer two lie within ``n^(1/16)`` of each other.  The three
    products are taken ``_BLOCK_BYTES`` of fibers at a time.  Each product
    errs by at most about ``2 n^2 eps ||A|| ||B||`` (``n eps |A||B|``
    entrywise, and ``|| |A||B| ||_F <= n ||A|| ||B||``), so ``P`` errs by at
    most about ``14 n^2 eps ||P||`` in Frobenius norm, and each eighth root
    by under ``2 n^2 eps``.  The bounds are widened by ``max(_PRUNE_MARGIN,
    4 n^2 eps)``, which also covers the norm's own rounding (about
    ``n eps``), so they hold for the value :func:`op_norm` returns.

    ``2**-e`` is exact and puts the largest part of ``a`` in [1/2, 1) when
    ``e`` is that part's exponent.  Then the fiber holding it has norm at
    least 1/2 and a lower bound of at least ``n^(-1/16) / 2``, and no
    column's squared norm exceeds ``256 n^17``.  Underflow in ``b``, in the products or in the
    squares costs at most ``n^2 2**-1074`` on a column's squared norm,
    which moves its 16th root by at most ``2**-60``: only fibers far below
    every threshold that a bound is compared with can be affected, and they
    stay below it.
    """
    n = a.shape[-1]
    fibers = a.reshape(-1, n, n)
    lower, upper = np.empty(len(fibers)), np.empty(len(fibers))
    step = max(1, _BLOCK_BYTES // (16 * n * n))
    low, high = _powers_of_two(e)
    for start in range(0, len(fibers), step):
        block = slice(start, start + step)
        # the first scaling copies, the second is in place; each product
        # replaces the last, which keeps three blocks live at most
        p = fibers[block] * low
        p *= high
        p = adjoint(p) @ p
        p = p @ p
        p = p @ p
        # column j of a fiber of P is columns 2j and 2j + 1 of its float view
        v = p.view(float)
        squares = np.einsum("...ij,...ij->...j", v, v)
        cols = squares[..., 0::2] + squares[..., 1::2]
        lower[block], upper[block] = cols.max(axis=-1), cols.sum(axis=-1)
    margin = max(_PRUNE_MARGIN, 4.0 * n * n * np.finfo(float).eps)
    return lower ** (1.0 / 16.0) * (1.0 - margin), upper ** (1.0 / 16.0) * (1.0 + margin)


def _max_op_norm(m: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE) -> float:
    """``float(np.max(op_norm(m, profile)))``, bit for bit, with the norm taken
    only on the fibers that can hold the maximum.

    On a stack of two or more fibers, not all zero, it reads the Gram-power
    bounds of every fiber (:func:`_gram_power_bounds`, the pass that
    :func:`_max_norm_above` runs after its Frobenius norm), which lie within
    ``n^(1/16)`` of each other, and the SVD runs only on the fibers whose
    upper bound reaches the largest lower bound: those the bounds cannot
    rule out.  A fiber's norm does not depend on the stack it sits in.  A
    NaN or inf entry raises :class:`NoConvergence` naming its fiber, before
    any BLAS call.
    """
    a = _as_square(m, "op_norm input")
    _, top = _parts_top(a)
    if top > 0.0 and math.prod(a.shape[:-2]) > 1:
        lower, upper = _gram_power_bounds(a, math.frexp(top)[1])
        keep = (upper >= lower.max()).reshape(a.shape[:-2])
        return float(np.max(_norms(a[keep], profile, keep)))
    return float(np.max(_norms(a, profile)))


def _max_norm_above(
    m: np.ndarray, levels: Sequence[float], profile: ToleranceProfile = DEFAULT_PROFILE
) -> list[bool]:
    """``[_max_op_norm(m, profile) > level for level in levels]``, exactly,
    from one Frobenius norm, one set of :func:`_gram_power_bounds` and at
    most one SVD.

    Every fiber's norm is at most the Frobenius norm of the whole stack,
    one dot product over the N parts of its float view.  The squares are
    nonnegative, so their sum errs by at most N eps relative (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, sections 3.5
    and 6.2); widened by
    ``max(_PRUNE_MARGIN, N eps)``, which also covers the SVD's rounding, it
    bounds the value :func:`op_norm` returns.  A level at or above it is not
    exceeded, with no product and no SVD.  For the other levels, one below
    the largest Gram-power lower bound is exceeded, and the rest are
    answered by the largest norm of the fibers whose upper bounds reach the
    lowest of them: every fiber that could exceed any of them.  The norm
    and the levels are scaled by the same power of two as the bounds (the
    parts too, when they lie outside ``_UNSCALED``); where that leaves the
    float range, a level saturates at 0 (far below the largest lower bound)
    or inf (far above every upper bound), and each comparison keeps its
    answer; so with the parts in ``_UNSCALED``, the Frobenius test is taken
    first, unscaled, in plain floats.  A NaN or inf entry raises
    :class:`NoConvergence` naming its fiber, before any BLAS call.
    """
    a = _as_square(m, "op_norm input")
    v, top = _parts_top(a)
    if top == 0.0:
        return [0.0 > level for level in levels]
    v = v.reshape(-1)
    margin = 1.0 + max(_PRUNE_MARGIN, v.size * np.finfo(float).eps)
    # in range, frob lies in [2**-400, 2**400 sqrt(N)], where scaling by 2**-e is exact
    frob = math.sqrt(v @ v) if _UNSCALED[0] <= top <= _UNSCALED[1] else None
    if frob is not None and all(level >= frob * margin for level in levels):
        return [False] * len(levels)
    e = math.frexp(top)[1]
    low, high = _powers_of_two(e)
    levels = np.array(levels, dtype=float)
    scaled = levels * low * high
    if frob is None:
        v = v * low
        v *= high
        frob = math.sqrt(v @ v)
    else:
        frob = frob * low * high
    quiet = scaled >= frob * margin
    if quiet.all():
        return [False] * quiet.size
    lower, upper = _gram_power_bounds(a, e)
    above = lower.max() > scaled
    # a NaN level is neither exceeded nor open
    open_ = ~quiet & ~above & (upper.max() >= scaled)
    if open_.any():
        straddle = (upper >= scaled[open_].min()).reshape(a.shape[:-2])
        norm = float(np.max(_norms(a[straddle], profile, straddle)))
        above[open_] = norm > levels[open_]
    return above.tolist()


def _norm_gate(
    name: str,
    defects: np.ndarray | Callable[[], Iterable[np.ndarray]],
    bound: float,
    error: type[Exception],
    profile: ToleranceProfile,
    scale: Callable[[], float | np.ndarray] | None = None,
) -> None:
    """``_gate(name, op_norm(m, profile), bound * max(1, scale()), error)``, with
    the norms taken only to word a failure.

    ``defects`` is one stack ``m``, or a callable that yields defect stacks
    over the same fibers, whose largest norm per fiber is gated; they are
    drawn one at a time, and each is let go once it is decided.
    :func:`_max_norm_above` decides, exactly, whether some fiber exceeds
    ``bound``, which is at most the bound gated, and settles a defect far
    inside it with no SVD.  Only when one does, or ``bound`` is NaN, are the
    defects drawn again and their norms measured, and ``scale()``, a
    per-fiber scale of the bound, with them; a NaN ``bound`` fails.  A NaN
    or inf entry raises :class:`NoConvergence` naming its fiber, as
    :func:`op_norm` does."""
    draw = defects if callable(defects) else lambda: (defects,)
    # map lets go of each defect once it is decided; a loop variable would
    # hold it while the next one is formed
    exceeded = map(lambda d: _max_norm_above(d, [bound], profile)[0], draw())
    if math.isnan(bound) or any(exceeded):
        worst = np.max(list(map(lambda d: op_norm(d, profile), draw())), axis=0)
        _gate(name, worst, bound if scale is None else bound * np.maximum(1.0, scale()), error)


def _not_finite(per_fiber: np.ndarray, what: str = "op_norm input is not finite") -> str:
    """The error message ``what``, naming the first fiber whose ``per_fiber``
    value is not finite."""
    bad = ~np.isfinite(per_fiber)
    idx = np.unravel_index(np.argmax(bad), bad.shape)
    at = f" at fiber {', '.join(map(str, idx))}" if idx else ""
    return f"{what}{at}"


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
    es = _positive_eig(h, profile)
    return _calc(es, lambda t: np.power(np.maximum(t, 0.0), p))


def _threshold(es: EigenSystem, name: str, error: type[Exception]) -> tuple[np.ndarray, np.ndarray]:
    """The per-fiber defect ``||a^2 - a||`` of the Hermitian ``a`` that ``es``
    decomposes, read off its eigenvalues w as max|w^2 - w|, and the projection
    that thresholds the same spectrum at 1/2 (eigenvalues below go to 0, the
    rest to 1).  The defect is gated below 1/4, which keeps the spectrum clear
    of 1/2 (``error``, naming ``name``, otherwise)."""
    w = es.eigenvalues
    defect = np.max(np.abs(w * w - w), axis=-1, initial=0.0)
    _gate(name, defect, np.nextafter(0.25, 0.0), error)
    return defect, _calc(es, STEP_HALF)


def nearest_projection(
    p: np.ndarray,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Exact projection nearest to an almost-idempotent Hermitian ``p``.

    Requires ``eta = ||p^2 - p|| < 1/4`` (so the spectrum stays clear of 1/2);
    otherwise :class:`GapTooSmall` is raised.  ``p`` is decomposed once, and
    :func:`_threshold` reads eta off its eigenvalues and thresholds the same
    spectrum at 1/2.
    """
    es = herm_eig(_as_square(p, "nearest_projection input"), profile)
    return _threshold(es, "||p^2 - p||", GapTooSmall)[1]
