"""Corner-subspace machinery inside a matrix algebra.

A pair of orthogonal positive matrices h, k splits the ambient algebra into
four corners X_ij (i, j ranging over the supports of h and k).  This module
provides:

* :class:`CornerQuad` - a quadruple of corner-supported matrices with the
  multiplication and adjoint inherited from the corner calculus;
* ``homotopy_theta`` - the explicit path theta_s carrying the corner sum
  x11 + x12 + x21 + x22 (placed in the top-left block at s = 0) to the full
  2x2 block layout at s = 1, through injective *-homomorphisms;
* :class:`LinkingElement` and ``rho`` - elements of the unitized 2x2 corner
  algebra with scalar parts (alpha, beta), and the character onto those
  scalars;
* ``corner_ideal_equality`` - a projector-gap test that intersecting an
  ideal with the sandwich subspace k A h equals the sandwiched ideal k I h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PROFILE,
    DimMismatch,
    ToleranceProfile,
    _eigh_raw,
    _gaussian,
    _norm_gate,
    _positive_eig,
    _span,
    _support_projection,
    adjoint,
    hermitian_part,
    op_norm,
)

__all__ = [
    "SupportViolation",
    "CornerSystem",
    "CornerQuad",
    "LinkingElement",
    "make_corner_system",
    "support_projection",
    "homotopy_theta",
    "theta_is_homomorphism",
    "rho",
    "linking_mul",
    "linking_to_dense",
    "corner_ideal_equality",
]


class SupportViolation(ValueError):
    """A corner entry is not supported where the corner system demands."""


def support_projection(
    h: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE
) -> np.ndarray:
    """Spectral projection onto the range of a positive matrix, per fiber.

    Eigenvalues above ``support_tol * max(1, largest eigenvalue)`` of their
    own fiber count as range directions.  A fiber that is not Hermitian, or
    not finite, raises :class:`NotHermitian`, and one with an eigenvalue
    below ``-clamp_tol`` raises :class:`NotPositive`; each names the fiber.
    """
    return _support_projection(_positive_eig(h, profile), profile)


@dataclass(frozen=True)
class CornerSystem:
    """Orthogonal positive pair (h, k) with derived support projections."""

    h: np.ndarray
    k: np.ndarray
    p_h: np.ndarray
    p_k: np.ndarray

    @property
    def dim(self) -> int:
        return self.h.shape[-1]


def make_corner_system(
    h: np.ndarray, k: np.ndarray, profile: ToleranceProfile = DEFAULT_PROFILE
) -> CornerSystem:
    """Validate positivity and orthogonality, derive the support projections.

    A non-Hermitian h or k raises :class:`NotHermitian`, one with an
    eigenvalue below ``-clamp_tol`` :class:`NotPositive`, as in
    :func:`support_projection`.  The support projections come off the
    spectra the positivity check computed.  :class:`SupportViolation` unless
    ``||h k|| <= support_tol * max(1, ||h|| ||k||)`` and
    ``||p_h p_k|| <= support_tol``, gates decided from bounds
    (:func:`linalg._norm_gate`).
    """
    h = np.asarray(h, dtype=complex)
    k = np.asarray(k, dtype=complex)
    if h.shape != k.shape:
        raise DimMismatch(f"h and k differ in shape: {h.shape} vs {k.shape}")
    hs = _positive_eig(h, profile, "h")
    ks = _positive_eig(k, profile, "k")
    tol, scale = profile.support_tol, lambda: op_norm(h, profile) * op_norm(k, profile)
    _norm_gate("||h k||", h @ k, tol, SupportViolation, profile, scale)
    p_h = _support_projection(hs, profile)
    p_k = _support_projection(ks, profile)
    _norm_gate("support overlap ||p_h p_k||", p_h @ p_k, tol, SupportViolation, profile)
    return CornerSystem(h=h, k=k, p_h=p_h, p_k=p_k)


@dataclass(frozen=True)
class CornerQuad:
    """Corner components (x11, x12, x21, x22); x_ij maps the j-support into i."""

    x11: np.ndarray
    x12: np.ndarray
    x21: np.ndarray
    x22: np.ndarray

    @property
    def dim(self) -> int:
        return self.x11.shape[-1]

    def sum(self) -> np.ndarray:
        """The ambient element x11 + x12 + x21 + x22."""
        return self.x11 + self.x12 + self.x21 + self.x22

    def adjoint(self) -> "CornerQuad":
        return CornerQuad(*map(adjoint, (self.x11, self.x21, self.x12, self.x22)))

    def mul(self, other: "CornerQuad") -> "CornerQuad":
        # corner calculus: (a b)_ik = sum_j a_ij b_jk, cross terms vanish
        return CornerQuad(
            self.x11 @ other.x11 + self.x12 @ other.x21,
            self.x11 @ other.x12 + self.x12 @ other.x22,
            self.x21 @ other.x11 + self.x22 @ other.x21,
            self.x21 @ other.x12 + self.x22 @ other.x22,
        )

    def check_supports(
        self, sys: CornerSystem, profile: ToleranceProfile = DEFAULT_PROFILE
    ) -> None:
        """Raise :class:`SupportViolation` when a component leaks out of its corner.

        Each leak ``||p x q - x||`` is gated at ``support_tol * max(1, ||x||)``,
        from bounds (:func:`linalg._norm_gate`).  On stacks each fiber is held to
        its own bound; the first failure is named.
        """
        pairs = {
            "x11": (sys.p_h, self.x11, sys.p_h),
            "x12": (sys.p_h, self.x12, sys.p_k),
            "x21": (sys.p_k, self.x21, sys.p_h),
            "x22": (sys.p_k, self.x22, sys.p_k),
        }
        for corner, (pl, x, pr) in pairs.items():
            name, scale = f"{corner} leak outside its corner", lambda: op_norm(x, profile)
            _norm_gate(name, pl @ x @ pr - x, profile.support_tol, SupportViolation, profile, scale)


def _theta_frames(s: float) -> tuple[np.ndarray, ...]:
    """The 2x2 scalar frames f_ij(s) built from w_s = cos e11 + sin e21."""
    c = np.cos(0.5 * np.pi * s)
    g = np.sin(0.5 * np.pi * s)
    f11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    f12 = np.array([[c, g], [0.0, 0.0]], dtype=complex)   # w*
    f21 = np.array([[c, 0.0], [g, 0.0]], dtype=complex)   # w
    f22 = np.array([[c * c, c * g], [c * g, g * g]], dtype=complex)  # w w*
    return f11, f12, f21, f22


def homotopy_theta(
    quad: CornerQuad,
    s: float,
    sys: CornerSystem | None = None,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """theta_s applied to a corner quadruple; a 2n x 2n matrix.

    At s = 0 the image is [[x11+x12+x21+x22, 0], [0, 0]]; at s = 1 it is the
    block matrix [[x11, x12], [x21, x22]].  When a corner system is supplied
    the quadruple's support discipline is verified first.
    """
    if sys is not None:
        quad.check_supports(sys, profile)
    f11, f12, f21, f22 = _theta_frames(s)
    return (
        np.kron(f11, quad.x11)
        + np.kron(f12, quad.x12)
        + np.kron(f21, quad.x21)
        + np.kron(f22, quad.x22)
    )


def random_corner_quad(sys: CornerSystem, rng: np.random.Generator) -> CornerQuad:
    """A random quadruple obeying the support discipline of ``sys``."""
    n = sys.dim
    return CornerQuad(
        sys.p_h @ _gaussian(rng, n) @ sys.p_h,
        sys.p_h @ _gaussian(rng, n) @ sys.p_k,
        sys.p_k @ _gaussian(rng, n) @ sys.p_h,
        sys.p_k @ _gaussian(rng, n) @ sys.p_k,
    )


def theta_is_homomorphism(
    sys: CornerSystem,
    s: float,
    trials: int,
    rng: np.random.Generator,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> tuple[float, float]:
    """Empirical certificate that theta_s respects products and adjoints.

    Over random corner-supported quadruples a, b, returns the maxima of
    ||theta_s(a b) - theta_s(a) theta_s(b)|| and ||theta_s(a*) - theta_s(a)*||.
    They are raw, not normalized; scaling them is left to the caller.
    """
    worst_mul = 0.0
    worst_adj = 0.0
    for _ in range(trials):
        a = random_corner_quad(sys, rng)
        b = random_corner_quad(sys, rng)
        ta = homotopy_theta(a, s)
        tb = homotopy_theta(b, s)
        tab = homotopy_theta(a.mul(b), s)
        worst_mul = max(worst_mul, op_norm(tab - ta @ tb, profile))
        tadj = homotopy_theta(a.adjoint(), s)
        worst_adj = max(worst_adj, op_norm(tadj - ta.conj().T, profile))
    return worst_mul, worst_adj


# ---------------------------------------------------------------------------
# the unitized 2x2 corner algebra and its scalar character
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkingElement:
    """alpha, beta scalars plus corner components of a unitized 2x2 element.

    Represents the block matrix [[alpha 1 + x11, x12], [x21, beta 1 + x22]].
    """

    alpha: complex
    beta: complex
    x11: np.ndarray
    x12: np.ndarray
    x21: np.ndarray
    x22: np.ndarray

    @property
    def dim(self) -> int:
        return self.x11.shape[-1]

    def quad(self) -> CornerQuad:
        return CornerQuad(self.x11, self.x12, self.x21, self.x22)


def linking_to_dense(e: LinkingElement) -> np.ndarray:
    eye = np.eye(e.dim, dtype=complex)
    return np.block(
        [[e.alpha * eye + e.x11, e.x12], [e.x21, e.beta * eye + e.x22]]
    )


def linking_mul(e: LinkingElement, f: LinkingElement) -> LinkingElement:
    """Block multiplication, keeping scalar and corner parts separate."""
    return LinkingElement(
        alpha=e.alpha * f.alpha,
        beta=e.beta * f.beta,
        x11=e.alpha * f.x11 + f.alpha * e.x11 + e.x11 @ f.x11 + e.x12 @ f.x21,
        x12=e.alpha * f.x12 + f.beta * e.x12 + e.x11 @ f.x12 + e.x12 @ f.x22,
        x21=e.beta * f.x21 + f.alpha * e.x21 + e.x21 @ f.x11 + e.x22 @ f.x21,
        x22=e.beta * f.x22 + f.beta * e.x22 + e.x21 @ f.x12 + e.x22 @ f.x22,
    )


def rho(
    e: LinkingElement,
    sys: CornerSystem | None = None,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> tuple[complex, complex]:
    """The character onto the two scalar slots, (alpha, beta).

    With a corner system supplied, the corner components are first checked
    for support discipline (raising :class:`SupportViolation` otherwise).
    """
    if sys is not None:
        e.quad().check_supports(sys, profile)
    return complex(e.alpha), complex(e.beta)


# ---------------------------------------------------------------------------
# ideal-corner equality
# ---------------------------------------------------------------------------


def corner_ideal_equality(
    h: np.ndarray,
    k: np.ndarray,
    block_dims: tuple[int, int],
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> tuple[bool, float]:
    """Test I  intersect  (k A h)  ==  k I h  inside A = M_{n1} (+) M_{n2}.

    ``h`` and ``k`` are positive elements of the block-diagonal ambient
    algebra; the ideal I is the second block, M_{n2}.  Both sides are computed as
    column spans of vectorized sandwich images and compared through their
    orthogonal projectors; returns (equal within support_tol, projector gap).
    """
    n1, n2 = block_dims
    n = n1 + n2
    h = np.asarray(h, dtype=complex)
    k = np.asarray(k, dtype=complex)
    if h.shape != (n, n) or k.shape != (n, n):
        raise DimMismatch(f"h, k must be {n}x{n} for block dims {block_dims}")

    # with row-major vec, vec(k E_ij h) is column i n + j of kron(k, h^T), and
    # the units E_ij of a block are the columns where kron(b, b) holds for the
    # block's indicator b
    sandwich = np.kron(k, h.T)
    first = np.arange(n) < n1
    ideal_units = np.kron(~first, ~first)

    def sandwich_span(units):
        cols = sandwich[:, units]
        scale = np.linalg.norm(cols, axis=0)
        scale[scale == 0.0] = 1.0
        return _span(cols / scale[None, :], profile.rank_tol)

    u_kah = sandwich_span(np.kron(first, first) | np.kron(~first, ~first))
    u_kih = sandwich_span(ideal_units)
    proj_kah = u_kah @ u_kah.conj().T
    proj_kih = u_kih @ u_kih.conj().T

    # intersection with the ideal coordinate subspace: the eigenvalue-1
    # eigenspace of the average of the two projectors.  Eigenvalues sit at
    # (1 +- cos angle)/2 over the principal angles, so directions common to
    # both spaces separate cleanly from everything else.
    proj_ideal = np.diag(ideal_units.astype(complex))
    avg = hermitian_part(0.5 * (proj_ideal + proj_kah))
    es = _eigh_raw(avg, profile)
    common = es.basis[:, es.eigenvalues >= 1.0 - 1e-6]
    proj_inter = common @ common.conj().T

    gap = op_norm(proj_inter - proj_kih, profile)
    return gap <= profile.support_tol, gap
