"""Index pipeline over a discretized interval algebra.

The ambient algebra A holds matrix-valued functions on a uniform grid over
[0, 1]; the quotient map evaluates at the two endpoints, and its kernel I
holds the functions vanishing there.  Given an exact representation of the
quadratic relation system in the quotient (one matrix triple per endpoint),
the pipeline

1. lifts h and k to orthogonal positive contractions over the grid
   (positive/negative parts of a linear interpolant c of h - k),
2. lifts x through the corner factorization x = k^(1/8) y h^(1/8), with y
   interpolated between its endpoint values; h, k, both eighth roots and
   both support projections are read off the one decomposition of c,
3. forms the blocked matrix T and clamps its spectrum to [0, 1],
4. exponentiates: U = exp(2 pi i T'), a unitary path equal to the identity
   at both endpoints,
5. collapses the four blocks of U to the single unitary
   u = -1 + u11 + u12 + u21 + u22 and accumulates the phase of det u across
   the grid (U itself is formed only at the endpoints).

The resulting integer winding is the index obstruction carried by the input:
it vanishes exactly when a spectral gap around 1/2 lets the fiberwise
threshold produce an exact lift of the representation.

Every path is one stacked ``(m+1, n, n)`` array, and each step is one call
of the stacked kernel in :mod:`qcwb.linalg` on the whole path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    CLAMP01,
    DEFAULT_PROFILE,
    DimMismatch,
    EigenSystem,
    ToleranceProfile,
    _eigh_raw,
    _gate,
    _positive_eig,
    _support_projection,
    _threshold_half,
    adjoint,
    func_calc,
    herm_eig,
    hermitian_part,
    op_norm,
)
from .qc_model import (
    E11,
    QcTriple,
    canonical_fiber,
    factor_x,
    low_level_residuals,
    t_matrix,
)
from .structures import CornerQuad, CornerSystem, homotopy_theta, support_projection

__all__ = [
    "NotOrthogonal",
    "LiftResidual",
    "EndpointDefect",
    "WindingIllConditioned",
    "PhaseStepTooLarge",
    "NoSpectralGap",
    "IntervalModel",
    "GridFunction",
    "BoundaryResult",
    "TLift",
    "GridRepresentation",
    "EndpointPair",
    "builtin_scenario",
    "SCENARIO_NAMES",
    "lift_orthogonal_positive",
    "lift_T",
    "boundary_unitary",
    "exact_projection_lift",
    "homotopy_collapse",
    "winding_number",
    "run_scenario",
]


class NotOrthogonal(ValueError):
    """The endpoint h, k pairs are not orthogonal positive contractions."""


class LiftResidual(RuntimeError):
    """The lifted path does not match the endpoint data."""


class EndpointDefect(RuntimeError):
    """The exponentiated path is not the identity at the endpoints."""


class WindingIllConditioned(RuntimeError):
    """Phase steps too large for a trustworthy winding on this grid."""


class PhaseStepTooLarge(WindingIllConditioned):
    """A det phase step reached the limit; a finer grid may resolve it."""


class NoSpectralGap(RuntimeError):
    """The lifted path's spectrum crosses 1/2: no exact projection lift here."""


# ---------------------------------------------------------------------------
# model and grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalModel:
    """Uniform grid t_i = i/m on [0, 1] with n x n matrix fibers."""

    grid_size: int
    fiber_dim: int

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError(f"grid size must be >= 1, got {self.grid_size}")
        if self.fiber_dim < 1:
            raise ValueError(f"fiber dim must be >= 1, got {self.fiber_dim}")

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

    def at(self, i: int) -> np.ndarray:
        return self.values[i]

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values[0], self.values[-1]


@dataclass(frozen=True)
class EndpointPair:
    """An element of the quotient: one matrix per endpoint of [0, 1]."""

    at0: np.ndarray
    at1: np.ndarray


def interpolate_pair(
    pair: EndpointPair, model: IntervalModel, scheme: str = "linear"
) -> GridFunction:
    """A grid path joining the endpoint values.

    ``linear`` uses straight-line weights; ``cosine`` uses the smoothed
    weights (1 + cos(pi t))/2, which agree at the endpoints but differ in
    between (used to confirm winding does not depend on the lift).
    """
    ts = model.points
    if scheme == "linear":
        w0 = 1.0 - ts
    elif scheme == "cosine":
        w0 = 0.5 * (1.0 + np.cos(np.pi * ts))
    else:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    w0 = w0[:, None, None]
    return GridFunction(w0 * pair.at0 + (1.0 - w0) * pair.at1)


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
        return BScenarioRep(
            base.at0.direct_sum(base.at0), base.at1.direct_sum(base.at1)
        )
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def lift_orthogonal_positive(
    hb: EndpointPair,
    kb: EndpointPair,
    model: IntervalModel,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> EigenSystem:
    """Lift orthogonal positive contraction pairs to the whole grid.

    The difference c = h - k is interpolated linearly, and the decomposition
    of c is returned: its positive and negative parts h = pos(c), k = neg(c)
    recover the endpoints exactly (orthogonality makes pos(h - k) = h) and
    stay orthogonal at every grid point.
    """
    what = "(h(0), h(1), k(0), k(1))"
    ends = np.stack([hb.at0, hb.at1, kb.at0, kb.at1])
    w = _positive_eig(ends, 1e-8, profile, NotOrthogonal, what).eigenvalues
    _gate(f"max eigenvalue of {what}", w.max(axis=-1, initial=1.0), 1.0 + 1e-8, NotOrthogonal)
    hs, ks = ends[:2], ends[2:]
    defect = op_norm(hs @ ks, profile)
    bound = 1e-10 * np.maximum(1.0, op_norm(hs, profile) * op_norm(ks, profile))
    _gate("||h k|| at the endpoints (0, 1)", defect, bound, NotOrthogonal)
    c = interpolate_pair(
        EndpointPair(hb.at0 - kb.at0, hb.at1 - kb.at1), model
    ).values
    return herm_eig(c, profile)


@dataclass(frozen=True)
class TLift:
    """The lifted path T' together with the data used to build it."""

    t_prime: GridFunction
    h: GridFunction
    k: GridFunction
    t_raw: GridFunction
    endpoint_defect: float
    corner_defect: float
    rho: tuple[complex, complex]


def _scalar_parts(
    t_prime: GridFunction,
    ph: np.ndarray,
    pk: np.ndarray,
    profile: ToleranceProfile,
) -> tuple[complex, complex, float]:
    """Extract the two scalar slots of the linking decomposition.

    At every fiber whose h (resp. k) support ``ph`` (``pk``) has a
    complement, the scalar is the compression of the diagonal block to that
    complement; fibers with full support contribute nothing.  Returns the
    medians and the largest corner-leak defect observed.
    """
    n = ph.shape[-1]
    tp = t_prime.values

    def compressed_median(p: np.ndarray, block: np.ndarray, default: float) -> complex:
        compl = np.eye(n, dtype=complex) - p
        rank = np.rint(np.trace(compl, axis1=-2, axis2=-1).real)
        has = rank > 0
        vals = np.trace(compl[has] @ block[has], axis1=-2, axis2=-1).real / rank[has]
        return complex(np.median(vals) if vals.size else default)

    alpha = compressed_median(ph, tp[:, :n, :n], 1.0)
    beta = compressed_median(pk, tp[:, n:, n:], 0.0)
    # corner discipline of the off-diagonal block
    t12 = tp[:, :n, n:]
    leak = float(np.max(op_norm(t12 - ph @ t12 @ pk, profile)))
    return alpha, beta, leak


def lift_T(
    rep: BScenarioRep,
    model: IntervalModel,
    scheme: str = "linear",
    profile: ToleranceProfile = DEFAULT_PROFILE,
    endpoint_tol: float = 1e-9,
) -> TLift:
    """Lift an exact quotient representation to a clamped path T' of blocks.

    The corner factor y is computed at each endpoint by :func:`factor_x`,
    interpolated across the grid, and re-sandwiched between the eighth roots
    of the lifted k and h.  h, k, their eighth roots and supports all come
    off the one decomposition of the path c = h - k.  The clamped path
    matches the endpoint block matrices to ``endpoint_tol``.
    """
    worst = [max(low_level_residuals(trip, profile).values()) for trip in (rep.at0, rep.at1)]
    _gate("relation residual at the endpoints (0, 1)", worst, 1e-10, LiftResidual)
    if model.fiber_dim != rep.fiber_dim:
        raise DimMismatch(
            f"model fiber dim {model.fiber_dim} != representation dim {rep.fiber_dim}"
        )
    c = lift_orthogonal_positive(
        EndpointPair(rep.at0.h, rep.at1.h),
        EndpointPair(rep.at0.k, rep.at1.k),
        model,
        profile,
    )
    # h = pos(c) and k = neg(c) share the eigenbasis of c
    hs = EigenSystem(np.maximum(c.eigenvalues, 0.0), c.basis)
    ks = EigenSystem(np.maximum(-c.eigenvalues, 0.0), c.basis)
    h = GridFunction(hermitian_part(hs.apply(hs.eigenvalues)))
    k = GridFunction(hermitian_part(ks.apply(ks.eigenvalues)))
    y_ends = EndpointPair(
        factor_x(rep.at0, profile), factor_x(rep.at1, profile)
    )
    y = interpolate_pair(y_ends, model, scheme).values
    x = ks.apply(ks.eigenvalues**0.125) @ y @ hs.apply(hs.eigenvalues**0.125)
    t_raw = GridFunction(
        t_matrix(QcTriple(h.values, x, k.values), profile, check_hermitian=False)
    )
    del x, y  # only t_raw needs them: free them before the clamp
    t_prime = GridFunction(func_calc(t_raw.values, CLAMP01, profile))

    ends = np.stack([t_matrix(rep.at0, profile), t_matrix(rep.at1, profile)])
    defects = op_norm(t_prime.values[[0, -1]] - ends, profile)
    _gate("clamped path defect at the endpoints (0, 1)", defects, endpoint_tol, LiftResidual)
    ph, pk = _support_projection(hs, profile), _support_projection(ks, profile)
    alpha, beta, leak = _scalar_parts(t_prime, ph, pk, profile)
    return TLift(
        t_prime=t_prime,
        h=h,
        k=k,
        t_raw=t_raw,
        endpoint_defect=float(np.max(defects)),
        corner_defect=leak,
        rho=(alpha, beta),
    )


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------


def winding_number(
    mats: list[np.ndarray] | np.ndarray,
    max_step: float = np.pi / 2,
) -> tuple[int, float, float]:
    """Accumulated phase of det along a discrete path, as an integer count.

    Returns (winding, rounding residual, largest phase step).  Raises
    :class:`PhaseStepTooLarge` when a step reaches ``max_step``, and
    :class:`WindingIllConditioned` when a determinant vanishes (or is not
    finite) or the total strays more than 0.1 turns from an integer.
    """
    dets = np.linalg.det(np.asarray(mats))
    vanishing = ~(np.abs(dets) >= 1e-12)  # NaN included
    if vanishing.any():
        raise WindingIllConditioned(f"determinant vanishes at grid point {np.argmax(vanishing)}")
    steps = np.angle(dets[1:] / dets[:-1])
    sizes = np.abs(steps)
    _gate("phase step (rad)", sizes, np.nextafter(max_step, 0.0), PhaseStepTooLarge)
    total = float(np.sum(steps)) / (2.0 * np.pi)
    winding = int(round(total))
    residual = abs(total - winding)
    _gate(f"distance of {total:.4f} turns from an integer", residual, 0.1, WindingIllConditioned)
    return winding, residual, float(np.max(sizes, initial=0.0))


@dataclass(frozen=True)
class BoundaryResult:
    """The collapsed unitary path and its index certificates."""

    u: GridFunction
    winding: int
    unitarity_defect: float
    endpoint_defect: float
    phase_step_max: float

    def to_obj(self) -> dict:
        return {
            "winding": int(self.winding),
            "unitarity_defect": float(self.unitarity_defect),
            "endpoint_defect": float(self.endpoint_defect),
        }

    def invariants_hold(self, tol: float = 1e-8) -> bool:
        return self.unitarity_defect <= tol and self.endpoint_defect <= tol


def boundary_unitary(
    t_prime: GridFunction,
    model: IntervalModel,
    profile: ToleranceProfile = DEFAULT_PROFILE,
    endpoint_tol: float = 1e-8,
) -> BoundaryResult:
    """Exponentiate the lifted path and extract the collapsed winding unitary.

    U = exp(2 pi i T') fiberwise must be the identity at both endpoints
    (:class:`EndpointDefect` otherwise); the four n x n blocks collapse to
    u = -1 + u11 + u12 + u21 + u22, whose det phase is accumulated across
    the grid.  U is formed only at the endpoints: with T' = B diag(w) B*,
    the block sum is C diag(e^(2 pi i w)) C* for C = B[:n] + B[n:].
    """
    two_n = t_prime.fiber_dim
    if two_n % 2 != 0 or two_n != 2 * model.fiber_dim:
        raise DimMismatch(
            f"expected fibers of dim {2 * model.fiber_dim}, got {two_n}"
        )
    n = model.fiber_dim
    es = herm_eig(t_prime.values, profile)
    w, b = es.eigenvalues, es.basis
    phase = np.exp(2j * np.pi * w)
    u_ends = EigenSystem(w[[0, -1]], b[[0, -1]]).apply(phase[[0, -1]])
    _gate(
        "||exp(2 pi i T') - 1|| at the endpoints (0, 1)",
        op_norm(u_ends - np.eye(two_n, dtype=complex), profile),
        endpoint_tol,
        EndpointDefect,
    )
    eye = np.eye(n, dtype=complex)
    u = GridFunction(EigenSystem(w, b[:, :n] + b[:, n:]).apply(phase) - eye)
    unit_defect = float(np.max(op_norm(u.values @ adjoint(u.values) - eye, profile)))
    end_defect = float(np.max(op_norm(u.values[[0, -1]] - eye, profile)))
    winding, _, step_max = winding_number(u.values)
    return BoundaryResult(
        u=u,
        winding=winding,
        unitarity_defect=unit_defect,
        endpoint_defect=end_defect,
        phase_step_max=step_max,
    )


# ---------------------------------------------------------------------------
# exact projection lift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridRepresentation:
    """An exact representation over the whole grid, one triple per point."""

    h: GridFunction
    x: GridFunction
    k: GridFunction
    max_residual: float
    endpoint_defect: float


def exact_projection_lift(
    rep: BScenarioRep,
    model: IntervalModel,
    gamma: float = 0.05,
    scheme: str = "linear",
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> GridRepresentation:
    """Lift through the spectral threshold when a gap around 1/2 exists.

    Decomposes each fiber of the unclamped path T once.  If any eigenvalue
    falls inside (1/2 - gamma, 1/2 + gamma), :class:`NoSpectralGap` is raised
    (the winding of the boundary pipeline is the obstruction).  Otherwise
    thresholding the same spectrum at 1/2 is continuous in the fibers and the
    blocks of the resulting projection path form an exact representation
    lifting the input.
    """
    lift = lift_T(rep, model, scheme, profile)
    n = model.fiber_dim
    es = _eigh_raw(lift.t_raw.values, profile)
    w = es.eigenvalues
    inside = (w > 0.5 - gamma) & (w < 0.5 + gamma)
    if inside.any():
        i = np.argmax(inside.any(axis=-1))
        raise NoSpectralGap(
            f"fiber {i} has spectrum {w[i][inside[i]].round(4).tolist()} within "
            f"{gamma} of 1/2; no exact lift on this path"
        )
    p = _threshold_half(es)
    h = GridFunction(hermitian_part(np.eye(n, dtype=complex) - p[:, :n, :n]))
    x = GridFunction(p[:, n:, :n])
    k = GridFunction(hermitian_part(p[:, n:, n:]))
    res = low_level_residuals(QcTriple(h.values, x.values, k.values), profile)
    worst = np.max(list(res.values()), axis=0)
    pairs = ((h, rep.at0.h, rep.at1.h), (x, rep.at0.x, rep.at1.x), (k, rep.at0.k, rep.at1.k))
    end_defects = np.max(
        [op_norm(g.values[[0, -1]] - np.stack([at0, at1]), profile) for g, at0, at1 in pairs],
        axis=0,
    )
    _gate("thresholded lift residual", worst, 1e-10, LiftResidual)
    _gate("thresholded lift defect at the endpoints (0, 1)", end_defects, 1e-9, LiftResidual)
    return GridRepresentation(
        h=h,
        x=x,
        k=k,
        max_residual=float(np.max(worst)),
        endpoint_defect=float(np.max(end_defects)),
    )


# ---------------------------------------------------------------------------
# homotopy collapse
# ---------------------------------------------------------------------------


def homotopy_collapse(
    u_prime: GridFunction,
    h: GridFunction,
    k: GridFunction,
    s: float = 0.0,
    profile: ToleranceProfile = DEFAULT_PROFILE,
    unitary_tol: float = 1e-8,
) -> tuple[GridFunction, int, int]:
    """Carry the block unitary path along the corner homotopy to ``s``.

    Writes each fiber as 1 + (corner quadruple) - the identity's scalar parts
    are stripped off the diagonal blocks - and maps the quadruple through
    theta_s, restoring the unit afterwards.  At s = 0 the result is
    diag(u, 1) with u the collapsed winding unitary; at s = 1 it is the
    input.  Returns (collapsed path at s, winding of its det, winding of the
    input's det); the two windings are asserted equal, since the homotopy
    passes through unitaries fiberwise.
    """
    two_n = u_prime.fiber_dim
    n = two_n // 2
    if 2 * n != two_n or h.fiber_dim != n or k.fiber_dim != n:
        raise DimMismatch("u_prime fibers must be twice the size of h, k fibers")
    eye = np.eye(n, dtype=complex)
    eye2 = np.eye(two_n, dtype=complex)
    v = u_prime.values
    quad = CornerQuad(v[:, :n, :n] - eye, v[:, :n, n:], v[:, n:, :n], v[:, n:, n:] - eye)
    corners = CornerSystem(
        h=h.values,
        k=k.values,
        p_h=support_projection(h.values, profile),
        p_k=support_projection(k.values, profile),
    )
    out = GridFunction(eye2 + homotopy_theta(quad, s, corners, profile))
    _gate(
        "homotopy image unitarity defect",
        op_norm(out.values @ adjoint(out.values) - eye2, profile),
        unitary_tol,
        WindingIllConditioned,
    )
    w_out, _, _ = winding_number(out.values)
    w_in, _, _ = winding_number(u_prime.values)
    if w_out != w_in:
        raise WindingIllConditioned(
            f"homotopy changed the winding: {w_in} -> {w_out}"
        )
    return out, w_out, w_in


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def run_scenario(
    name_or_rep: str | BScenarioRep,
    grid_size: int = 64,
    scheme: str = "linear",
    profile: ToleranceProfile = DEFAULT_PROFILE,
    refine_until: float = np.pi / 4,
    max_grid: int = 4096,
) -> tuple[BoundaryResult, TLift, IntervalModel]:
    """Full pipeline with automatic grid refinement.

    Doubles the grid until the largest det phase step drops below
    ``refine_until`` (or the grid cap is reached), then returns the boundary
    result, the lift, and the model actually used.  A grid too coarse for
    :func:`winding_number` (:class:`PhaseStepTooLarge`) is refined as well;
    at ``max_grid`` the error propagates.
    """
    rep = (
        builtin_scenario(name_or_rep)
        if isinstance(name_or_rep, str)
        else name_or_rep
    )
    m = grid_size
    while True:
        model = IntervalModel(grid_size=m, fiber_dim=rep.fiber_dim)
        lift = lift_T(rep, model, scheme, profile)
        try:
            result = boundary_unitary(lift.t_prime, model, profile)
        except PhaseStepTooLarge:
            if m >= max_grid:
                raise
        else:
            if result.phase_step_max < refine_until or m >= max_grid:
                return result, lift, model
            del result
        # nothing of the coarse grid is reused: free it before refining
        del lift
        m *= 2
