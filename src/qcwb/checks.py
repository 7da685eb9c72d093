"""The seeded check suite of ``qcwb check``: the structure lemmas on random draws.

Each check returns report records, dicts of ``label``, ``residual``,
``threshold`` and ``pass = residual <= threshold`` (a NaN fails).  A check
draws from the generator it is given; :func:`suite` runs them all from one
seed, in a fixed order.  The acceptance tests call the same checks with their
own seeds and trial counts, so each bound is written once, here.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_PROFILE, ToleranceProfile, _calc, _gaussian, _span, herm_eig, op_norm
from .qc_model import (
    QcTriple,
    canonical_generators,
    high_level_residuals,
    low_level_residuals,
    t_matrix,
)
from .smoothing import make_gminus, make_gplus
from .structures import (
    CornerSystem,
    corner_ideal_equality,
    make_corner_system,
    theta_is_homomorphism,
)


def _record(label: str, values, threshold: float) -> dict:
    """The record of the largest of ``values`` (0 for none) against ``threshold``.
    A NaN among them is the largest, so it fails; the builtin ``max`` would drop it."""
    worst = float(np.max(list(values), initial=0.0))
    return {"label": label, "residual": worst, "threshold": threshold, "pass": worst <= threshold}


def canonical_exactness(m: int, profile: ToleranceProfile = DEFAULT_PROFILE) -> list[dict]:
    """The canonical generators at grid ``m`` satisfy the relations, and their
    block matrix T is a projection of trace 2m (each 4×4 fiber has trace 2)."""
    trip = canonical_generators(m)
    t = t_matrix(trip)
    low = low_level_residuals(trip, profile).values()
    return [
        _record("canonical generators satisfy the relations", low, 1e-12),
        _record("canonical block matrix is a projection", [op_norm(t @ t - t, profile)], 1e-12),
        _record("canonical block matrix has integer trace", [abs(np.trace(t).real - 2 * m)], 1e-9),
    ]


def presentation_equivalence(
    rng: np.random.Generator, trials: int, profile: ToleranceProfile = DEFAULT_PROFILE
) -> list[dict]:
    """On ``trials`` random 4×4 triples of norm at most 1, each low-level
    residual is at most the sum of the high-level ones, and each high-level
    one at most five times the sum of the low-level ones: in the block
    expansion of T^2 - T every low-level defect embeds in a block, and each
    block is a sum of at most five low-level defects."""
    margins = []
    for _ in range(trials):
        parts = [_gaussian(rng, 4) for _ in range(3)]
        trip = QcTriple(*(p / max(op_norm(p, profile), 1.0) for p in parts))
        low = low_level_residuals(trip, profile)
        high = high_level_residuals(trip, profile)
        margins += [v - sum(high.values()) for v in low.values()]
        margins += [v - 5.0 * sum(low.values()) for v in high.values()]
    return [_record("relation presentations cross-bound each other", margins, 1e-12)]


def corner_system(
    rng: np.random.Generator, profile: ToleranceProfile = DEFAULT_PROFILE
) -> CornerSystem:
    """h a random positive 3×3 block in the top left corner of M_6, k one in
    the bottom right."""
    h = np.zeros((6, 6), dtype=complex)
    k = np.zeros((6, 6), dtype=complex)
    a, b = _gaussian(rng, 3), _gaussian(rng, 3)
    h[:3, :3] = a @ a.conj().T
    k[3:, 3:] = b @ b.conj().T
    return make_corner_system(h, k, profile)


def corner_homotopy(
    corners: CornerSystem, rng: np.random.Generator, profile: ToleranceProfile = DEFAULT_PROFILE
) -> list[dict]:
    """theta_s respects products and adjoints at s = 0, 1/4, 1/2, 3/4, 1, on
    10 random corner quadruples each."""
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    mul, adj = zip(*(theta_is_homomorphism(corners, s, 10, rng, profile) for s in times))
    return [
        _record("corner homotopy respects products", mul, 1e-10),
        _record("corner homotopy respects adjoints", adj, 1e-10),
    ]


def ideal_equality(
    rng: np.random.Generator, trials: int, profile: ToleranceProfile = DEFAULT_PROFILE
) -> list[dict]:
    """The ideal M_3 of M_2 (+) M_3 meets k A h in exactly k I h, for ``trials``
    random positive block-diagonal h, k.  Their blocks have spectra in
    [0.05, 1], so the subspaces are determined to well below the bound."""

    def pos_block(size):
        # the unitary comes off _span, which keeps the jacobi profile off LAPACK
        q = _span(_gaussian(rng, size), 0.0)
        return (q * rng.uniform(0.05, 1.0, size)) @ q.conj().T

    gaps = []
    for _ in range(trials):
        h = np.zeros((5, 5), dtype=complex)
        k = np.zeros((5, 5), dtype=complex)
        h[:2, :2] = pos_block(2)
        h[2:, 2:] = pos_block(3)
        k[:2, :2] = pos_block(2)
        k[2:, 2:] = pos_block(3)
        gaps.append(corner_ideal_equality(h, k, (2, 3), profile)[1])
    return [_record("ideal meets sandwich subspace exactly", gaps, 1e-10)]


def cutoff_orthogonality(
    rng: np.random.Generator, trials: int, profile: ToleranceProfile = DEFAULT_PROFILE
) -> list[dict]:
    """g+(s) g-(s) = 0 for the smoothing cutoffs of width 0.2, on ``trials``
    random 6×6 Hermitian s."""
    gp, gm = make_gplus(0.2), make_gminus(0.2)
    norms = []
    for _ in range(trials):
        m = _gaussian(rng, 6)
        s = 0.5 * (m + m.conj().T)
        es = herm_eig(s, profile)
        norms.append(op_norm(_calc(es, gp) @ _calc(es, gm), profile))
    return [_record("smooth cutoffs have orthogonal supports", norms, 1e-12)]


def suite(seed: int, grid: int, profile: ToleranceProfile) -> list[dict]:
    """Every check, drawn in order from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [
        *canonical_exactness(grid, profile),
        *presentation_equivalence(rng, 100, profile),
        *corner_homotopy(corner_system(rng, profile), rng, profile),
        *ideal_equality(rng, 20, profile),
        *cutoff_orthogonality(rng, 10, profile),
    ]
