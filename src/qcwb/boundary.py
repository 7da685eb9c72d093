"""Index pipeline over a discretized interval algebra.

The ambient algebra A holds matrix-valued functions on a uniform grid over
[0, 1]; the quotient map evaluates at the two endpoints, and its kernel I
holds the functions vanishing there.  Given an exact representation of the
quadratic relation system in the quotient (one matrix triple per endpoint),
the pipeline

0. takes an orthonormal basis W (n x r) of R, the sum of the ranges of
   h(0), h(1), k(0) and k(1), once, from the endpoint data; R-perp is the
   range of 1 - WW*.  The corner factor y of step 2 lies in R too, since it
   is sandwiched between inverse eighth roots of k and h taken on their
   supports.  So c, y and x below vanish on R-perp along the whole path:
   T is the constant projection diag(1, 0) there, U and u are 1, and
   nothing on R-perp is decomposed,
1. lifts h and k to orthogonal positive contractions over the grid
   (positive/negative parts of a linear interpolant c of h - k, decomposed
   as the r x r path W* c W; where one of its two endpoint values is zero,
   the other's eigenbasis serves the whole path, and it is not decomposed),
2. lifts x through the corner factorization x = k^(1/8) y h^(1/8), with y
   interpolated between its endpoint values; h, k and both eighth roots are
   read off the one decomposition of c,
3. decomposes the blocked matrix T = [[1 - h, x*], [x, k]] on R + R once,
   through its r x r corner block B = Z diag(mu) Z* on R in the eigenbasis
   V of W* c W (the rest of T's spectrum is exactly 0 or 1); the clamped
   path T' is assembled only at the two endpoints, to check it,
4. exponentiates: U = exp(2 pi i T'), a unitary path equal to the identity
   at both endpoints, read off the same decompositions (U itself is formed
   only at the endpoints),
5. collapses the four blocks of U to the single unitary
   u = -1 + u11 + u12 + u21 + u22 = 1 + W (u_R - 1) W*, 1 plus an element
   of the ideal, with u_R = (VZ) diag(e^(2 pi i clip(mu))) (VZ)* r x r,
   accumulates the phase of det u_R across the grid, and checks the count
   against the index tr T(1) - tr T(0).  The defects are taken on u_R and
   widened by ||W* W - 1|| to bounds on u when they are first read; u itself
   is formed on each reading.

The resulting integer winding is the index obstruction carried by the input: it
is 0 where a spectral gap around 1/2 lets the threshold lift exactly
(:func:`exact_projection_lift`), but not only there: (1, 0, 0) + (0, 0, 0) to
(0, 0, 0) + (1, 0, 0) winds 0, yet its T crosses 1/2 and has no such lift.

Every path is one stacked array on R, or on R + R, and each step is one call
of the stacked kernel in :mod:`qcwb.linalg` on the whole path; the n x n paths
(T', h, k, u, and the images of :func:`homotopy_collapse` and
:func:`exact_projection_lift`) are embedded once each, by :func:`_embed`.  The
endpoint data are checked once per run, as one stacked ``(2, n, n)`` triple,
and each precondition once: the exact relations to 1e-10, which imply the
weaker ones (hk = 0, 0 <= T <= 1) of the projective algebra, and then
Hermitian, positive h and k, the corner sandwich, and the Hermitian defect of
W* c W at the two endpoints, which decides that of every fiber of the path of
c, a convex combination of them; the paths of c and of T's corner block are
decomposed unchecked (see :func:`_lift_ends` and :func:`_lift_fibers`).
:func:`run_scenario` chooses the grid from tau = tr T', which the two
decompositions give directly (det u = e^(2 pi i tau)): it starts from the
first doubling of the grid that the index tr T(1) - tr T(0), read off the
endpoint traces, does not rule out, doubles the grid, evaluating the
decompositions at the new odd points only, until every step of tau is below
1/8, and then certifies u_R once, on the final grid.  Every
certificate takes the lift alone.  Every gate on a defect's norm goes through
the bound-first gate :func:`linalg._norm_gate`, so the messages are those of
measured gates.  The figures a run reports
(:attr:`BoundaryResult.unitarity_defect`, :attr:`BoundaryResult.endpoint_defect`,
:attr:`TLift.endpoint_defect` and those of :class:`GridRepresentation`) are
measured when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .linalg import (
    CLAMP01,
    DEFAULT_PROFILE,
    NEG,
    POS,
    STEP_HALF,
    DimMismatch,
    EigenSystem,
    NotHermitian,
    ToleranceProfile,
    _calc,
    _eigh_raw,
    _gate,
    _max_op_norm,
    _norm_gate,
    _positive_eig,
    _span,
    _support,
    _support_projection,
    adjoint,
    hermitian_part,
    op_norm,
)
from .qc_model import (
    E11,
    QcTriple,
    _corner_sandwich,
    _low_level_defects,
    canonical_fiber,
    t_matrix,
)
from .structures import CornerQuad, CornerSystem, homotopy_theta

__all__ = [
    "LiftResidual",
    "EndpointDefect",
    "WindingIllConditioned",
    "PhaseStepTooLarge",
    "WindingIndexMismatch",
    "NoSpectralGap",
    "IntervalModel",
    "GridFunction",
    "BoundaryResult",
    "TLift",
    "GridRepresentation",
    "builtin_scenario",
    "SCENARIO_NAMES",
    "lift_T",
    "boundary_unitary",
    "exact_projection_lift",
    "homotopy_collapse",
    "winding_number",
    "run_scenario",
]


class LiftResidual(RuntimeError):
    """The lifted path does not match the endpoint data."""


class EndpointDefect(RuntimeError):
    """The exponentiated path is not the identity at the endpoints."""


class WindingIllConditioned(RuntimeError):
    """Phase steps too large for a trustworthy winding on this grid."""


class PhaseStepTooLarge(WindingIllConditioned):
    """A det phase step reached the limit; a finer grid may resolve it."""


class WindingIndexMismatch(WindingIllConditioned):
    """The winding disagrees with the index; a finer grid may resolve it."""


class NoSpectralGap(RuntimeError):
    """The lifted path's spectrum crosses 1/2: no exact projection lift here."""


# endpoint bounds on ||T' - T|| (lift_T) and on ||exp(2 pi i T') - 1|| (boundary_unitary)
_LIFT_ENDS_TOL = 1e-9
_UNIT_ENDS_TOL = 1e-8
# the det phase step winding_number rejects
_MAX_STEP = np.pi / 2
# run_scenario refines until every step of tr T' is below this, so that every
# det phase step of u (2 pi times it) is below pi/4, or the grid reaches _MAX_GRID
_TAU_STEP = 1 / 8
_MAX_GRID = 4096
# exact_projection_lift rejects an eigenvalue of T within this of 1/2
_GAP = 0.05


# ---------------------------------------------------------------------------
# model and grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalModel:
    """Uniform grid t_i = i/m on [0, 1]; the fibers are those of the representation lifted."""

    grid_size: int

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError(f"grid size must be >= 1, got {self.grid_size}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.grid_size + 1, dtype=float) / self.grid_size


@dataclass(frozen=True)
class GridFunction:
    """A matrix for every grid point, stacked as an (m+1, n, n) array."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimMismatch(f"grid function needs (m+1, n, n), got {a.shape}")
        object.__setattr__(self, "values", a)

    @property
    def grid_size(self) -> int:
        return self.values.shape[0] - 1

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[1]


def _interpolate(ends: np.ndarray, ts: np.ndarray, scheme: str = "linear") -> np.ndarray:
    """A path joining the endpoint values ``ends[0]``, ``ends[1]`` (arrays of any shape)
    at the points ``ts``, stacked.

    ``linear`` uses straight-line weights; ``cosine`` uses the smoothed
    weights (1 + cos(pi t))/2, which agree at the endpoints but differ in
    between (used to confirm winding does not depend on the lift).
    """
    if scheme == "linear":
        w0 = 1.0 - ts
    elif scheme == "cosine":
        w0 = 0.5 * (1.0 + np.cos(np.pi * ts))
    else:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    w0 = w0.reshape(w0.shape + (1,) * (ends.ndim - 1))
    return w0 * ends[0] + (1.0 - w0) * ends[1]


@dataclass(frozen=True)
class BScenarioRep:
    """An exact representation in the quotient: a triple per endpoint."""

    at0: QcTriple
    at1: QcTriple

    def __post_init__(self):
        if self.at0.dim != self.at1.dim:
            raise DimMismatch("endpoint triples differ in dimension")

    @property
    def fiber_dim(self) -> int:
        return self.at0.dim


SCENARIO_NAMES = ("eval-at-one", "zero", "matched-endpoints", "doubled")


def builtin_scenario(name: str) -> BScenarioRep:
    """The stock endpoint representations used by the acceptance runs.

    ``eval-at-one``: the rank-one corner compression of the diagonal endpoint
    representation at one end, zero at the other.  Its index class is the
    generator, so the winding comes out at +-1.  ``zero``: both endpoints
    zero.  ``matched-endpoints``: the same midpoint fiber at both ends (index
    zero, and an exact projection lift exists).  ``doubled``: the direct sum
    of ``eval-at-one`` with itself.
    """
    z2 = np.zeros((2, 2), dtype=complex)
    zero2 = QcTriple(z2, z2, z2)
    if name == "zero":
        return BScenarioRep(zero2, zero2)
    if name == "eval-at-one":
        return BScenarioRep(QcTriple(E11, z2, z2), zero2)
    if name == "matched-endpoints":
        fiber = canonical_fiber(0.5)
        return BScenarioRep(fiber, fiber)
    if name == "doubled":
        base = builtin_scenario("eval-at-one")
        return BScenarioRep(base.at0.direct_sum(base.at0), base.at1.direct_sum(base.at1))
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LiftEnds:
    """The checked endpoint data, stacked over (0, 1): T; ``w``, an orthonormal basis
    W (n x r) of R, the sum of the ranges of h(0), h(1), k(0) and k(1), and the lift's
    only basis: R-perp is read as 1 - WW*; and ``c_r`` and ``y_r``, W* c W and W* y W
    for c = h - k and the corner factor y, r x r, the endpoint values the paths
    interpolate; ``joint``, one eigenbasis V of both values of c where one of them is
    zero (:func:`_joint_eig`), else None.  With e = ||W* W - 1|| and d = max ||u_R u_R* - 1||,
    ||u u* - 1|| <= (1 + e)(d + (2 + d)^2 e) and ||u(j) - 1|| <= (1 + e) ||u_R(j) - 1||
    (:class:`BoundaryResult`)."""

    t: np.ndarray
    w: np.ndarray
    c_r: np.ndarray
    y_r: np.ndarray
    joint: EigenSystem | None


@dataclass(frozen=True)
class TLift:
    """The lifted path, kept as two r x r decompositions on R (r = dim R).

    ``c`` decomposes the compressed path W* c W of c = h - k and ``b`` the
    corner block B of the unclamped block path T on R (see
    :func:`_lift_fibers`), one fiber per grid point; ``ends`` holds the
    endpoint data the paths interpolate, checked once, and the basis W of R.
    On R-perp, the range of 1 - WW*, h, k and x vanish, so T is diag(1, 0)
    there and u = 1 + W (u_R - 1) W*, whose defects are at most
    (1 + e)(d + (2 + d)^2 e) and (1 + e) ||u_R(j) - 1|| (:class:`_LiftEnds`).
    T on R + R (:attr:`t`), the supports of h and k on R, the scalar parts of
    the linking decomposition and :attr:`endpoint_defect` are read under the
    lift's ``profile``, once per lift, on first reading; T', h and k are
    embedded (:func:`_embed`) on each reading.
    """

    c: EigenSystem
    b: EigenSystem
    ends: _LiftEnds
    profile: ToleranceProfile

    @property
    def _end_defects(self) -> np.ndarray:
        """T' - T at the two endpoints, 2n x 2n: T' is clamped on R + R off the end
        fibers of c and B, and embedded."""
        return _embed(_calc(self._t_ends, CLAMP01), self.ends.w, (1, 0)) - self.ends.t

    @cached_property
    def _t_ends(self) -> EigenSystem:
        """T's decomposition on R + R at the two endpoints, read by both endpoint gates."""
        return _t_system(_first_last(self.c), _first_last(self.b))

    @cached_property
    def endpoint_defect(self) -> float:
        """The larger ||T' - T|| of the two endpoints, which :func:`lift_T` gated."""
        return float(np.max(op_norm(self._end_defects, self.profile)))

    @cached_property
    def t(self) -> EigenSystem:
        """The decomposition of T on R + R, 2r x 2r, eigenvalues ascending (:func:`_t_system`)."""
        return _t_system(self.c, self.b)

    @property
    def t_prime(self) -> GridFunction:
        """T', which clamps T's spectrum to [0, 1], 2n x 2n."""
        return GridFunction(_embed(_calc(self.t, CLAMP01), self.ends.w, (1, 0)))

    @property
    def h(self) -> GridFunction:
        return GridFunction(_embed(_calc(self.c, POS), self.ends.w, (0,)))

    @property
    def k(self) -> GridFunction:
        return GridFunction(_embed(_calc(self.c, NEG), self.ends.w, (0,)))

    @property
    def tau(self) -> np.ndarray:
        """tr T' at every grid point: T's spectrum is B's plus a 1 for each
        lam <= 0 of c and a 0 for each lam > 0 (see :func:`_t_system`), and
        a 1 and a 0 for each dimension of R-perp."""
        mu, lam = self.b.eigenvalues, self.c.eigenvalues
        n, r = self.ends.w.shape
        # one reduction, as a matmul: numpy sums a short last axis slowly on long paths
        return (CLAMP01(mu) + (lam <= 0.0)) @ np.ones(mu.shape[-1]) + (n - r)

    @cached_property
    def _supports(self) -> tuple[np.ndarray, np.ndarray]:
        """The support projections of h and k on R, r x r."""
        return tuple(_support_projection(part, self.profile) for part in _parts(self.c))

    @cached_property
    def _scalars(self) -> tuple[tuple[complex, complex], float]:
        return _scalar_parts(self)

    @property
    def rho(self) -> tuple[complex, complex]:
        """Medians of the two scalar slots over the fibers that have them."""
        return self._scalars[0]

    @property
    def corner_defect(self) -> float:
        """The largest corner leak ||t12 - p_h t12 p_k|| over the fibers."""
        return self._scalars[1]


def _parts(c: EigenSystem) -> tuple[EigenSystem, EigenSystem]:
    """h = pos(c) and k = neg(c), which share the eigenbasis of c."""
    w = c.eigenvalues
    return EigenSystem(np.maximum(w, 0.0), c.basis), EigenSystem(np.maximum(-w, 0.0), c.basis)


def _t_system(c: EigenSystem, b: EigenSystem) -> EigenSystem:
    """T's decomposition, eigenvalues ascending, off those of c = V diag(lam) V* and of
    B = Z diag(mu) Z*: an eigenvector z of B lifts to (V_top z, V_bottom z), and the slot
    B leaves out of each j is an eigenvector for 0 (bottom, lam_j > 0) or 1 (top)."""
    top = c.eigenvalues > 0.0
    v_top, v_bottom = c.basis * top[..., None, :], c.basis * ~top[..., None, :]
    top_half = np.concatenate([v_top @ b.basis, v_bottom], axis=-1)
    basis = np.concatenate([top_half, np.concatenate([v_bottom @ b.basis, v_top], -1)], -2)
    w = np.concatenate([b.eigenvalues, 1.0 - top], axis=-1)
    order = np.argsort(w, axis=-1, kind="stable")
    return EigenSystem(
        np.take_along_axis(w, order, -1), np.take_along_axis(basis, order[..., None, :], -1)
    )


def _embed(a: np.ndarray, w: np.ndarray, units: tuple[int, ...]) -> np.ndarray:
    """The path ``a`` on copies of R, one per entry of ``units``, on as many copies of
    the whole space: W a_ij W* in block (i, j), plus 1 - WW*, formed once, in block (i, i)
    where ``units[i]`` is 1.  Every n x n path of a lift is formed here."""
    (n, r), k, stack = w.shape, len(units), a.shape[:-2]
    out = w @ a.reshape(stack + (k, r, k, r)).swapaxes(-3, -2) @ adjoint(w)
    perp = np.eye(n) - w @ adjoint(w)
    for i in np.flatnonzero(units):
        out[..., i, i, :, :] += perp
    return out.swapaxes(-3, -2).reshape(stack + (k * n, k * n))


def _first_last(es: EigenSystem) -> EigenSystem:
    """The first and last fibers of a decomposed path."""
    return EigenSystem(es.eigenvalues[[0, -1]], es.basis[[0, -1]])


def _median(vals: np.ndarray, default: float) -> complex:
    vals = vals[~np.isnan(vals)]
    return complex(np.median(vals) if vals.size else default)


def _scalar_parts(lift: TLift) -> tuple[tuple[complex, complex], float]:
    """The lift's ``rho`` and ``corner_defect``, off T' on R + R and the supports
    p_h, p_k of h and k on R, which the lift derives from its two decompositions.

    At every fiber whose h (resp. k) support has a complement, the scalar is
    the compression of the diagonal block to that complement; ``rho`` holds
    their medians.  R-perp lies in both complements, where T' is diag(1, 0):
    it adds n - r to each rank and to the top block's trace.  The corner leak
    is read on R and maximized over the fibers without a per-fiber norm
    (:func:`linalg._max_op_norm`).
    """
    t_prime = _calc(lift.t, CLAMP01)
    ph, pk = lift._supports
    n, r = lift.ends.w.shape

    def compressed(p: np.ndarray, block: np.ndarray, unit: float) -> np.ndarray:
        compl = np.eye(r, dtype=complex) - p
        rank = np.rint(np.trace(compl, axis1=-2, axis2=-1).real) + (n - r)
        has = rank > 0
        vals = np.full(rank.shape, np.nan)
        # tr(compl @ block) without the product: O(r^2) per fiber
        trace = np.einsum("...ij,...ji->...", compl[has], block[has]).real + unit * (n - r)
        vals[has] = trace / rank[has]
        return vals

    t12 = t_prime[:, :r, r:]
    alpha = _median(compressed(ph, t_prime[:, :r, :r], 1.0), 1.0)
    beta = _median(compressed(pk, t_prime[:, r:, r:], 0.0), 0.0)
    return (alpha, beta), _max_op_norm(t12 - ph @ t12 @ pk, lift.profile)


def _stacked(rep: BScenarioRep) -> QcTriple:
    """The endpoint triples of ``rep`` as one stacked ``(2, n, n)`` triple."""
    a, b = rep.at0, rep.at1
    return QcTriple(np.stack([a.h, b.h]), np.stack([a.x, b.x]), np.stack([a.k, b.k]))


def _lift_ends(rep: BScenarioRep, profile: ToleranceProfile) -> _LiftEnds:
    """The endpoint half of :func:`lift_T`: each endpoint precondition checked once, on
    both endpoints stacked.  The relation residual is gated at 1e-10
    (:class:`LiftResidual`), one defect at a time, from bounds; h and k are Hermitian
    (:func:`herm_eig`) with -min eigenvalue at most ``clamp_tol`` (:class:`NotPositive`),
    and the corner sandwich must give back x.

    The projective algebra is defined by weaker relations, hk = 0 and 0 <= T <= 1, so an
    endpoint that passes the residual gate passes those too, and nothing gates them again.
    For a unit v with Hv = lam v, H the Hermitian part of h,
    Re v*(h*h + x*x - h)v >= lam^2 - lam, so lam lies in [-1e-10, 1 + 1e-10]; the same
    holds for k.  The blocks of T_H^2 - T_H, with T_H the block matrix of the Hermitian
    parts, are the relation defects up to the Hermitian defects, so the spectrum of T_H
    lies within about 6e-10 of [0, 1].

    One decomposition of [h(0), h(1), k(0), k(1)] serves the gates on h and k, the corner
    sandwich of :func:`qc_model.factor_x`, and the basis W of R: the eigenvectors on the
    supports the sandwich inverts on, at most 4n columns, made orthonormal by one call of
    :func:`linalg._span`.  So y(0) and y(1) lie in R.  No basis of R-perp is formed.

    The Hermitian precondition of the paths is decided here too, once per run: C_j = W* c(j) W,
    which the path of c interpolates, has ||C_j - C_j*|| at most ``hermitian_tol``, unscaled
    (:class:`NotHermitian`, naming the endpoint j).  The anti-Hermitian part of
    (1 - t) C_0 + t C_1 is the same combination of the endpoints' parts, up to the rounding
    of the interpolation, so every fiber of the path meets this bound, and with it the
    per-fiber bound of :func:`herm_eig`, ``hermitian_tol * max(1, ||C(t)||)``, which is never
    lower.  :func:`_lift_fibers` therefore decomposes the path unchecked, or not at all
    where C_0 or C_1 is zero (:func:`_joint_eig`)."""
    trip = _stacked(rep)
    name = "relation residual at the endpoints (0, 1)"
    _norm_gate(name, lambda: _low_level_defects(trip), 1e-10, LiftResidual, profile)
    es = _positive_eig(np.concatenate([trip.h, trip.k]), profile, "h, k")
    w, v = es.eigenvalues, es.basis
    y = _corner_sandwich(EigenSystem(w[:2], v[:2]), EigenSystem(w[2:], v[2:]), trip.x, profile)
    # column j of fiber i, for each eigenvalue on its support
    support = v.swapaxes(0, 1)[:, _support(np.maximum(w, 0.0), profile)]
    c, w = trip.h - trip.k, _span(support, profile.rank_tol)
    c_r, y_r = (adjoint(w) @ end @ w for end in (c, y))
    name = "hermitian defect of W* c W at the endpoints (0, 1)"
    _norm_gate(name, c_r - adjoint(c_r), profile.hermitian_tol, NotHermitian, profile)
    return _LiftEnds(t_matrix(trip), w, c_r, y_r, _joint_eig(c_r, profile))


def _joint_eig(c_r: np.ndarray, profile: ToleranceProfile) -> EigenSystem | None:
    """C_j = V diag(lam_j) V* (``c_r``, r x r) with one basis V for j = 0, 1, where one C_j
    is zero, bit for bit, or None.

    Any basis serves a zero C_j, so V is the other's, from one r x r decomposition, and
    its lam_j is 0.  Along the path, lam = (1 - t) lam_0 + t lam_1 is then a nonnegative
    multiple of the ascending eigenvalues of the nonzero end, and ascends too."""
    for j in (0, 1):
        if not c_r[1 - j].any():
            es = _eigh_raw(c_r[j], profile)
            lam = np.zeros((2, c_r.shape[-1]))
            lam[j] = es.eigenvalues
            return EigenSystem(lam, es.basis)
    return None


def _lift_fibers(
    ends: _LiftEnds, ts: np.ndarray, scheme: str, profile: ToleranceProfile
) -> tuple[EigenSystem, EigenSystem]:
    """The path half of :func:`lift_T`: the decompositions of c and of T's corner
    block B on R, r x r, at the points ``ts``, unchecked (:func:`linalg._eigh_raw`).
    c's path is Hermitian to ``hermitian_tol`` since its endpoints are, which
    :func:`_lift_ends` gated; B is Hermitian bit for bit, as below, and finite
    since c's decomposition and y are.

    c and y interpolate their endpoint values, which vanish on R-perp; so
    only W* c W and W* y W, which :func:`_lift_ends` formed, are interpolated,
    and V below is r x r.  Where one of those values of c is zero, V is the
    other's eigenbasis (``ends.joint``) along the whole path, with the ascending
    eigenvalues lam = (1 - t) lam_0 + t lam_1, and V* y V interpolates its
    endpoint values; otherwise c is decomposed per fiber.
    With c = V diag(lam) V*, h and k are V diag(lam+) V* and V diag(lam-) V*,
    so in the basis V, T = [[1 - diag(lam+), X*], [X, diag(lam-)]] with
    X = V* x V = diag((lam-)^(1/8)) V* y V diag((lam+)^(1/8)), which vanishes
    outside rows {lam < 0} x columns {lam > 0}.  Taking slot j of T's top
    half where lam_j > 0 and of its bottom half otherwise (d_j = 1 - lam_j
    or lam-_j), T on R is B = diag(d) + X + X* plus r eigenvalues exactly 0
    or 1.  On R-perp, c is 0, its slot is the bottom one with d = 0, and T
    is diag(1, 0).
    """
    if ends.joint is None:
        c = _eigh_raw(_interpolate(ends.c_r, ts), profile)
        vyv = adjoint(c.basis) @ _interpolate(ends.y_r, ts, scheme) @ c.basis
    else:
        v = ends.joint.basis
        vyv = _interpolate(adjoint(v) @ ends.y_r @ v, ts, scheme)
        c = EigenSystem(_interpolate(ends.joint.eigenvalues, ts), np.broadcast_to(v, vyv.shape))
    hw, kw = (part.eigenvalues for part in _parts(c))
    x = kw[..., :, None] ** 0.125 * vyv * hw[..., None, :] ** 0.125
    # each (m+1, r, r) temporary goes before B is decomposed, which holds a few more
    del vyv
    b = x + adjoint(x)
    del x
    # d onto the diagonal, through einsum's writable view of it; real, so B stays Hermitian
    np.einsum("...jj->...j", b)[...] += np.where(c.eigenvalues > 0.0, 1.0 - hw, kw)
    return c, _eigh_raw(b, profile)


def lift_T(
    rep: BScenarioRep,
    model: IntervalModel,
    scheme: str = "linear",
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> TLift:
    """Lift an exact quotient representation to a path of block matrices T.

    The corner factor y = k^(-1/8) x h^(-1/8) of :func:`qc_model.factor_x` is
    computed at both endpoints at once, interpolated across the grid, and
    re-sandwiched between the eighth roots of the lifted k and h.  h, k and
    their eighth roots all come off the one decomposition of the path
    c = h - k; T is decomposed once, through its corner block B (see
    :func:`_lift_fibers`).  Both decompositions are r x r, on the sum R of
    the ranges of the endpoint h's and k's, off which T is diag(1, 0).
    T' clamps T's spectrum to [0, 1], and is formed here only at the two
    endpoints, on R + R, and embedded (:func:`_embed`): it must match the
    uncompressed endpoint block matrices to ``_LIFT_ENDS_TOL``, a gate decided
    from bounds (:func:`linalg._norm_gate`); :attr:`TLift.endpoint_defect`
    measures the clamped end defect when it is first read.
    """
    ends = _lift_ends(rep, profile)
    c, b = _lift_fibers(ends, model.points, scheme, profile)
    lift = TLift(c, b, ends, profile)
    name = "clamped path defect at the endpoints (0, 1)"
    _norm_gate(name, lift._end_defects, _LIFT_ENDS_TOL, LiftResidual, profile)
    return lift


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------


def winding_number(mats: list[np.ndarray] | np.ndarray) -> tuple[int, float, float]:
    """Accumulated phase of det along a discrete path, as an integer count.

    Returns (winding, rounding residual, largest phase step).  Raises
    :class:`PhaseStepTooLarge` when a step reaches ``_MAX_STEP``, and
    :class:`WindingIllConditioned` when a determinant vanishes (or is not
    finite) or the total strays more than 0.1 turns from an integer.
    """
    dets = np.linalg.det(np.asarray(mats))
    vanishing = ~(np.abs(dets) >= 1e-12)  # NaN included
    if vanishing.any():
        raise WindingIllConditioned(f"determinant vanishes at grid point {np.argmax(vanishing)}")
    steps = np.angle(dets[1:] / dets[:-1])
    sizes = np.abs(steps)
    _gate("phase step (rad)", sizes, np.nextafter(_MAX_STEP, 0.0), PhaseStepTooLarge)
    total = float(np.sum(steps)) / (2.0 * np.pi)
    winding = int(round(total))
    residual = abs(total - winding)
    _gate(f"distance of {total:.4f} turns from an integer", residual, 0.1, WindingIllConditioned)
    return winding, residual, float(np.max(sizes, initial=0.0))


@dataclass(frozen=True)
class BoundaryResult:
    """The collapsed unitary path and its index certificates.

    ``u_r`` is the r x r path u_R and ``w`` the basis W (n x r) of R; the
    defects bound the n x n u = 1 + W (u_R - 1) W*, which :attr:`u` forms on
    each reading and does not keep.  They are measured under the lift's
    ``profile`` when first read, from e = ||W* W - 1|| and d, the largest
    ||u_R u_R* - 1|| over the fibers (:func:`linalg._max_op_norm`).  As
    u u* - 1 = W [(u_R u_R* - 1) + (u_R - 1)(W* W - 1)(u_R - 1)*] W*, ||W||^2 <= 1 + e
    and ||u_R - 1|| <= 2 + d, :attr:`unitarity_defect` is the bound
    (1 + e)(d + (2 + d)^2 e) on ||u u* - 1||; as u(j) - 1 = W (u_R(j) - 1) W*,
    :attr:`endpoint_defect` is the bound (1 + e) ||u_R(j) - 1|| on
    ||u(j) - 1|| at the worse end j.  A basis that is not finite makes both
    NaN, so :meth:`invariants_hold` fails.
    """

    u_r: np.ndarray
    w: np.ndarray
    winding: int
    phase_step_max: float
    profile: ToleranceProfile = field(repr=False, compare=False)

    @property
    def u(self) -> GridFunction:
        """u = W u_R W* + (1 - WW*), the (m+1, n, n) path, formed on each reading."""
        return GridFunction(_embed(self.u_r, self.w, (1,)))

    @cached_property
    def _basis_defect(self) -> float:
        """e = ||W* W - 1|| (r x r), NaN for a basis that is not finite."""
        gram = adjoint(self.w) @ self.w - np.eye(self.w.shape[1])
        return op_norm(gram, self.profile) if np.isfinite(gram).all() else np.nan

    @cached_property
    def unitarity_defect(self) -> float:
        u_r, e = self.u_r, self._basis_defect
        d = _max_op_norm(u_r @ adjoint(u_r) - np.eye(u_r.shape[-1]), self.profile)
        return (1.0 + e) * (d + (2.0 + d) ** 2 * e)

    @cached_property
    def endpoint_defect(self) -> float:
        u_r, e = self.u_r, self._basis_defect
        ends = op_norm(u_r[[0, -1]] - np.eye(u_r.shape[-1]), self.profile)
        return (1.0 + e) * float(np.max(ends))

    def to_obj(self) -> dict:
        return {
            "winding": int(self.winding),
            "unitarity_defect": float(self.unitarity_defect),
            "endpoint_defect": float(self.endpoint_defect),
        }

    def invariants_hold(self) -> bool:
        """Both defects are at most 1e-8; a NaN fails."""
        return self.unitarity_defect <= 1e-8 and self.endpoint_defect <= 1e-8


def boundary_unitary(lift: TLift) -> BoundaryResult:
    """Exponentiate the lifted path and extract the collapsed winding unitary.

    U = exp(2 pi i T') fiberwise must be the identity at both endpoints
    (:class:`EndpointDefect` otherwise, decided from bounds by
    :func:`linalg._norm_gate`); the four n x n blocks collapse to
    u = -1 + u11 + u12 + u21 + u22, whose det phase is accumulated across
    the grid and must equal the index tr T(1) - tr T(0)
    (:class:`WindingIndexMismatch` otherwise).  Nothing is decomposed, and
    all is r x r: U is formed only at the endpoints, on two copies of R
    (T' is diag(1, 0) on R-perp, where U is 1), and u comes off the lift's
    c = V diag(lam) V* and B = Z diag(mu) Z*.  Summing the halves of T's
    eigenvectors (:func:`_t_system`), the eigenvalues 0 and 1 give V at
    phase 1, which cancels the -1 of u, and B gives VZ: u = 1 + W (u_R - 1) W*
    with u_R = (VZ) diag(e^(2 pi i clip(mu))) (VZ)*.  So det u = det u_R for
    an orthonormal W, and u_R is wound.  No norm is taken on a pass: the
    result measures its defects when they are first read, the bounds
    (1 + e)(d + (2 + d)^2 e) and (1 + e) ||u_R(j) - 1|| on u with
    e = ||W* W - 1|| (:class:`BoundaryResult`).
    """
    profile = lift.profile
    u_ends = _unitary(lift._t_ends)
    name = "||exp(2 pi i T') - 1|| at the endpoints (0, 1)"
    _norm_gate(name, u_ends - np.eye(2 * lift.c.dim), _UNIT_ENDS_TOL, EndpointDefect, profile)
    u_r = _unitary(EigenSystem(lift.b.eigenvalues, lift.c.basis @ lift.b.basis))
    winding, _, step_max = winding_number(u_r)
    _check_index(winding, lift)
    return BoundaryResult(u_r, lift.ends.w, winding, step_max, profile)


def _unitary(t: EigenSystem) -> np.ndarray:
    """W diag(e^(2 pi i clip(w))) W* for each fiber (w, W) of ``t``: exp(2 pi i T') for T's W."""
    return t.apply(np.exp(2j * np.pi * CLAMP01(t.eigenvalues)))


def _index(t_ends: np.ndarray) -> float:
    """The index tr T(1) - tr T(0) of the endpoint block matrices ``t_ends``, ``(2, 2n, 2n)``."""
    tr = np.trace(t_ends, axis1=-2, axis2=-1).real
    return tr[1] - tr[0]


def _check_index(winding: int, lift: TLift) -> None:
    """Gate a winding against the index tr T(1) - tr T(0) of the lift's endpoint blocks."""
    index = int(np.rint(_index(lift.ends.t)))
    name = f"distance of the winding {winding} from the index {index}"
    _gate(name, abs(winding - index), 0, WindingIndexMismatch)


# ---------------------------------------------------------------------------
# exact projection lift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridRepresentation:
    """An exact representation over the whole grid, one triple per point.

    ``data`` holds the input's h, x and k at the two endpoints, ``(2, 3, n, n)``.
    :attr:`max_residual` and :attr:`endpoint_defect`, which
    :func:`exact_projection_lift` gated, are measured under ``profile`` when
    first read.
    """

    h: GridFunction
    x: GridFunction
    k: GridFunction
    data: np.ndarray = field(repr=False, compare=False)
    profile: ToleranceProfile = field(repr=False, compare=False)

    @property
    def _end_defects(self) -> np.ndarray:
        """The lift less the data, ``(endpoint, block)``: h, x and k at 0 and 1."""
        got = np.stack([self.h.values, self.x.values, self.k.values], axis=1)[[0, -1]]
        return got - self.data

    @cached_property
    def max_residual(self) -> float:
        """The largest relation residual over the grid."""
        defects = _low_level_defects(QcTriple(self.h.values, self.x.values, self.k.values))
        return max(_max_op_norm(d, self.profile) for d in defects)

    @cached_property
    def endpoint_defect(self) -> float:
        """The largest defect of h, x and k at the two endpoints."""
        return _max_op_norm(self._end_defects, self.profile)


def exact_projection_lift(
    rep: BScenarioRep,
    model: IntervalModel,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> GridRepresentation:
    """Lift through the spectral threshold when a gap around 1/2 exists.

    Reads the spectrum of the unclamped path T on R + R off the lift
    (:attr:`TLift.t`); on R-perp it is exactly 0 and 1.  :class:`NoSpectralGap`
    is raised if an eigenvalue falls within ``_GAP`` of 1/2, or if
    the rank of the threshold, the count of eigenvalues at or above 1/2,
    changes along the grid (an exact integer test): an eigenvalue then
    crosses the gap between two points, and the index is nonzero (the
    winding of the boundary pipeline is the obstruction).  Otherwise
    thresholding at 1/2 is continuous in the fibers and the blocks of the
    projection path, embedded once, form an exact representation lifting
    the input.  Its relation residuals are gated at 1e-10 and its defects
    at the endpoints at 1e-9 (:class:`LiftResidual`), both from bounds
    (:func:`linalg._norm_gate`).
    """
    lift = lift_T(rep, model, profile=profile)
    n, es = rep.fiber_dim, lift.t
    w = es.eigenvalues
    inside = (w > 0.5 - _GAP) & (w < 0.5 + _GAP)
    if inside.any():
        i = np.argmax(inside.any(axis=-1))
        raise NoSpectralGap(
            f"fiber {i} has spectrum {w[i][inside[i]].round(4).tolist()} within "
            f"{_GAP} of 1/2; no exact lift on this path"
        )
    # R-perp adds the same n - r at every point, which the change cancels
    rank = np.count_nonzero(w >= 0.5, axis=-1)
    name = "change of the thresholded rank from grid point 0"
    _gate(name, np.abs(rank - rank[0]), 0, NoSpectralGap)
    p = _embed(_calc(es, STEP_HALF), lift.ends.w, (1, 0))
    h = GridFunction(hermitian_part(np.eye(n, dtype=complex) - p[:, :n, :n]))
    x = GridFunction(p[:, n:, :n])
    k = GridFunction(hermitian_part(p[:, n:, n:]))
    data = np.array([[at.h, at.x, at.k] for at in (rep.at0, rep.at1)])
    out = GridRepresentation(h, x, k, data, profile)
    trip, name = QcTriple(h.values, x.values, k.values), "thresholded lift residual"
    _norm_gate(name, lambda: _low_level_defects(trip), 1e-10, LiftResidual, profile)
    name = "thresholded lift defect of (h, x, k) at the endpoints (0, 1)"
    _norm_gate(name, out._end_defects, 1e-9, LiftResidual, profile)
    return out


# ---------------------------------------------------------------------------
# homotopy collapse
# ---------------------------------------------------------------------------


def homotopy_collapse(lift: TLift, s: float = 0.0) -> tuple[GridFunction, int, int]:
    """Carry the block unitary path U = exp(2 pi i T') along the corner homotopy to ``s``.

    Writes each fiber of U as 1 + (corner quadruple) - the identity's scalar
    parts are stripped off the diagonal blocks - and maps the quadruple
    through theta_s, restoring the unit afterwards.  At s = 0 the result is
    diag(u, 1) with u the collapsed winding unitary; at s = 1 it is U.
    Returns (collapsed path at s, winding of its det, winding of U's det),
    each gated against the index (:class:`WindingIndexMismatch`).  Nothing is
    decomposed: U, h, k and their supports are read on R + R off the lift.
    U is 1 on R-perp, and so is the image, which is embedded once; its
    unitarity gate and det winding read the returned 2n x 2n image.
    """
    profile, r = lift.profile, lift.c.dim
    eye = np.eye(r, dtype=complex)
    v = _unitary(lift.t)
    quad = CornerQuad(v[:, :r, :r] - eye, v[:, :r, r:], v[:, r:, :r], v[:, r:, r:] - eye)
    corners = CornerSystem(_calc(lift.c, POS), _calc(lift.c, NEG), *lift._supports)
    image = np.eye(2 * r) + homotopy_theta(quad, s, corners, profile)
    out = GridFunction(_embed(image, lift.ends.w, (1, 1)))
    defect = out.values @ adjoint(out.values) - np.eye(out.fiber_dim)
    _norm_gate("homotopy image unitarity defect", defect, 1e-8, WindingIllConditioned, profile)
    w_out, _, _ = winding_number(out.values)
    w_in, _, _ = winding_number(v)
    _check_index(w_out, lift)
    _check_index(w_in, lift)
    return out, w_out, w_in


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def run_scenario(
    name_or_rep: str | BScenarioRep,
    grid_size: int = 64,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> tuple[BoundaryResult, TLift, IntervalModel]:
    """Full pipeline with automatic grid refinement.

    Lifts the representation along the linear path, doubles the grid while
    some step of tau = tr T' (:attr:`TLift.tau`) is ``_TAU_STEP`` or more and
    the grid is below ``_MAX_GRID``, and then certifies the lift once with
    :func:`boundary_unitary`.  Returns the boundary result, the lift, and
    the model actually used.  Since det u = e^(2 pi i tau), steps of tau below
    1/8 keep every det phase step below pi/4, and the winding then counts
    tau(1) - tau(0), the index.  A certificate that fails on the final grid
    (a grid capped at ``_MAX_GRID`` included) raises.

    The grid first doubles, with nothing decomposed, while it is below
    (|index| - 1/2) / ``_TAU_STEP`` (:func:`_start_grid`): the steps of tau sum
    to tau(1) - tau(0), which the endpoint gates of :func:`lift_T` (T' within
    1e-9 of T, a projection to 1e-10) hold far within 1/2 of the index, so
    some step of such a grid is above ``_TAU_STEP``, and the refinement would
    reject it.  :func:`lift_T` then runs once, on the grid reached.
    The points i/m of grid m are the even points 2i/2m of grid 2m, bit for
    bit, so a refinement evaluates the decompositions of c and of T's
    corner block at the m new odd points only, and weaves them into the
    coarse paths.  The endpoint gates, the factorization and the endpoint T
    system (:attr:`TLift._t_ends`) are taken once, since every grid shares
    its end fibers, bit for bit.  The result is that of
    :func:`boundary_unitary` on the lift :func:`lift_T` gives directly on
    the final grid.
    """
    rep = builtin_scenario(name_or_rep) if isinstance(name_or_rep, str) else name_or_rep
    model = IntervalModel(grid_size=_start_grid(rep, grid_size))
    lift = lift_T(rep, model, profile=profile)
    t_ends = lift._t_ends
    # written "not <" so that a NaN step refines
    while model.grid_size < _MAX_GRID and not np.max(np.abs(np.diff(lift.tau))) < _TAU_STEP:
        model = IntervalModel(grid_size=2 * model.grid_size)
        c, b = _lift_fibers(lift.ends, model.points[1::2], "linear", profile)
        lift = replace(lift, c=_weave(lift.c, c), b=_weave(lift.b, b))
        # the woven paths keep the end fibers bit for bit, so the cached T system holds
        vars(lift)["_t_ends"] = t_ends
    return boundary_unitary(lift), lift, model


def _start_grid(rep: BScenarioRep, grid_size: int) -> int:
    """``grid_size`` doubled, up to ``_MAX_GRID``, while below (|index| - 1/2) / ``_TAU_STEP``,
    with the index (:func:`_index`) read off the endpoint block matrices, before any gate;
    an index that is not finite skips nothing, and so does a grid below 1, which
    :class:`IntervalModel` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        index = abs(_index(t_matrix(_stacked(rep))))
    limit = (index - 0.5) / _TAU_STEP if np.isfinite(index) else 0.0
    while 0 < grid_size < _MAX_GRID and grid_size < limit:
        grid_size *= 2
    return grid_size


def _weave(coarse, odd):
    """Interleave two paths fiber by fiber: ``[0::2]`` from ``coarse``,
    ``[1::2]`` from ``odd``.  Decompositions are woven field by field."""
    if isinstance(coarse, EigenSystem):
        return EigenSystem(
            _weave(coarse.eigenvalues, odd.eigenvalues), _weave(coarse.basis, odd.basis)
        )
    out = np.empty((len(coarse) + len(odd),) + coarse.shape[1:], dtype=coarse.dtype)
    out[0::2], out[1::2] = coarse, odd
    return out
