import numpy as np
import pytest

from qcwb import checks
from qcwb.linalg import PROFILES, NotHermitian, NotPositive, op_norm, unitary_exp
from qcwb.structures import (
    CornerQuad,
    CornerSystem,
    LinkingElement,
    SupportViolation,
    corner_ideal_equality,
    homotopy_theta,
    linking_mul,
    linking_to_dense,
    make_corner_system,
    random_corner_quad,
    rho,
    support_projection,
    theta_is_homomorphism,
)

from conftest import random_matrix


class TestCornerSystem:
    def test_orthogonality_enforced(self, rng):
        h = np.eye(3, dtype=complex)
        with pytest.raises(SupportViolation):
            make_corner_system(h, h)

    def test_non_hermitian_h_rejected(self):
        # the Hermitian part of h = [[1, 1], [-1, 1]] (+) 0 is positive; h is not
        h = np.zeros((4, 4), dtype=complex)
        h[:2, :2] = [[1.0, 1.0], [-1.0, 1.0]]
        k = np.zeros((4, 4), dtype=complex)
        k[2, 2] = 1.0
        with pytest.raises(NotHermitian, match="hermitian defect"):
            make_corner_system(h, k)

    def test_negative_k_rejected(self):
        h = np.diag([1.0, 0.0, 0.0]).astype(complex)
        k = np.diag([0.0, 1.0, -0.5]).astype(complex)
        with pytest.raises(NotPositive, match="of k = 5.000e-01"):
            make_corner_system(h, k)

    def test_positivity_gated_at_clamp_tol(self):
        # under strict, clamp_tol 1e-12 sits below support_tol 1e-10: the
        # corner system rejects what support_projection rejects
        strict = PROFILES["strict"]
        h = np.diag([1.0, -5e-11, 0.0, 0.0]).astype(complex)
        k = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(NotPositive, match="of h"):
            support_projection(h, strict)
        with pytest.raises(NotPositive, match="of h = 5.000e-11"):
            make_corner_system(h, k, strict)
        make_corner_system(h, k)  # within the default clamp_tol

    def test_dim_of_stacked_objects_is_the_fiber_dim(self):
        # a 5-point path of 2x2 fibers, as homotopy_collapse builds
        z = np.zeros((5, 2, 2), dtype=complex)
        assert CornerSystem(z, z, z, z).dim == 2
        assert CornerQuad(z, z, z, z).dim == 2
        assert LinkingElement(1.0, 0.0, z, z, z, z).dim == 2
        assert CornerSystem(z[0], z[0], z[0], z[0]).dim == 2

    def test_supports_are_projections(self, rng):
        sys = checks.corner_system(rng)
        for p in (sys.p_h, sys.p_k):
            assert op_norm(p @ p - p) <= 1e-12
        assert op_norm(sys.p_h @ sys.p_k) <= 1e-12

    def test_decomposes_h_and_k_once_each(self, rng, eigh_shapes):
        # the support projections come off the positivity check's spectra
        checks.corner_system(rng)
        assert eigh_shapes == [(6, 6), (6, 6)]

    def test_support_projection_threshold(self):
        p = support_projection(np.diag([1.0, 1e-14, 0.0]).astype(complex))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "bad, error, gate",
        [
            ([[0.0, 1.0], [0.0, 0.0]], NotHermitian, "hermitian defect"),
            ([[-0.5, 0.0], [0.0, 1.0]], NotPositive, "-min eigenvalue of h"),
            ([[np.nan] * 2] * 2, NotHermitian, "hermitian defect"),
        ],
    )
    @pytest.mark.parametrize("at", ["", " at fiber 2"])
    def test_support_projection_rejects_non_positive_input(self, bad, error, gate, at):
        # it decomposed anything: the nilpotent gave [[.5, .5], [.5, .5]],
        # diag(-0.5, 1) gave diag(0, 1), and NaN gave NaN
        h = np.array(bad, dtype=complex)
        if at:
            h = np.stack([np.eye(2), np.eye(2), h])
        with pytest.raises(error, match=f"^{gate} = [^ ]+{at} exceeds"):
            support_projection(h)


class TestHomotopyTheta:
    def test_endpoint_zero(self, rng):
        sys = checks.corner_system(rng)
        quad = random_corner_quad(sys, rng)
        out = homotopy_theta(quad, 0.0)
        n = sys.dim
        expected = np.zeros((2 * n, 2 * n), dtype=complex)
        expected[:n, :n] = quad.sum()
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_endpoint_one(self, rng):
        sys = checks.corner_system(rng)
        quad = random_corner_quad(sys, rng)
        out = homotopy_theta(quad, 1.0)
        n = sys.dim
        expected = np.block([[quad.x11, quad.x12], [quad.x21, quad.x22]])
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_zero_quad_maps_to_zero(self, rng):
        z = np.zeros((4, 4), dtype=complex)
        quad = CornerQuad(z, z, z, z)
        for s in (0.0, 0.37, 1.0):
            np.testing.assert_array_equal(homotopy_theta(quad, s), np.zeros((8, 8)))

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.37, 0.8, 1.0])
    def test_homomorphism_certificate(self, rng, s):
        sys = checks.corner_system(rng)
        mul_res, adj_res = theta_is_homomorphism(sys, s, trials=10, rng=rng)
        assert mul_res <= 1e-10
        assert adj_res <= 1e-12

    def test_isometric_on_corner_elements(self, rng):
        sys = checks.corner_system(rng)
        for s in (0.0, 0.42, 1.0):
            quad = random_corner_quad(sys, rng)
            image = homotopy_theta(quad, s)
            assert op_norm(image) >= (1 - 1e-10) * op_norm(quad.sum())

    def test_support_check_raises(self, rng):
        sys = checks.corner_system(rng)
        bad = CornerQuad(
            np.eye(sys.dim, dtype=complex),  # not h-corner supported
            np.zeros((sys.dim, sys.dim), dtype=complex),
            np.zeros((sys.dim, sys.dim), dtype=complex),
            np.zeros((sys.dim, sys.dim), dtype=complex),
        )
        with pytest.raises(SupportViolation):
            homotopy_theta(bad, 0.5, sys=sys)

    def test_unitary_stays_unitary_along_path(self, rng):
        # e^{iH} for a corner-supported Hermitian quadruple lands in
        # 1 + corners; theta_s keeps all singular values at 1
        sys = checks.corner_system(rng)
        n = sys.dim
        x11 = sys.p_h @ random_matrix(rng, n) @ sys.p_h
        x11 = 0.5 * (x11 + x11.conj().T)
        x22 = sys.p_k @ random_matrix(rng, n) @ sys.p_k
        x22 = 0.5 * (x22 + x22.conj().T)
        x12 = sys.p_h @ random_matrix(rng, n) @ sys.p_k
        hmat = np.block([[x11, x12], [x12.conj().T, x22]])
        u = unitary_exp(hmat / (2 * np.pi))  # e^{i hmat}
        quad = CornerQuad(
            u[:n, :n] - np.eye(n), u[:n, n:], u[n:, :n], u[n:, n:] - np.eye(n)
        )
        for s in (0.0, 0.3, 0.7, 1.0):
            img = np.eye(2 * n, dtype=complex) + homotopy_theta(quad, s)
            sv = np.linalg.svd(img, compute_uv=False)
            assert np.all(np.abs(sv - 1.0) <= 1e-8)


class TestLinking:
    def make_element(self, rng, sys, alpha, beta):
        quad = random_corner_quad(sys, rng)
        return LinkingElement(alpha, beta, quad.x11, quad.x12, quad.x21, quad.x22)

    def test_identity_element(self):
        z = np.zeros((4, 4), dtype=complex)
        e = LinkingElement(1.0, 1.0, z, z, z, z)
        assert rho(e) == (1 + 0j, 1 + 0j)

    def test_rho_multiplicative(self, rng):
        sys = checks.corner_system(rng)
        for _ in range(20):
            e = self.make_element(rng, sys, *rng.standard_normal(2))
            f = self.make_element(rng, sys, *rng.standard_normal(2))
            ef = linking_mul(e, f)
            re, rf, ref = rho(e), rho(f), rho(ef)
            assert abs(ref[0] - re[0] * rf[0]) <= 1e-12
            assert abs(ref[1] - re[1] * rf[1]) <= 1e-12

    def test_linking_mul_matches_dense(self, rng):
        sys = checks.corner_system(rng)
        e = self.make_element(rng, sys, 0.3 + 0.1j, -1.2)
        f = self.make_element(rng, sys, 1.7, 0.4 - 2j)
        dense = linking_to_dense(e) @ linking_to_dense(f)
        np.testing.assert_allclose(dense, linking_to_dense(linking_mul(e, f)), atol=1e-12)

    def test_rho_validates_supports(self, rng):
        sys = checks.corner_system(rng)
        bad = LinkingElement(
            1.0,
            0.0,
            np.eye(sys.dim, dtype=complex),
            *(np.zeros((sys.dim, sys.dim), dtype=complex) for _ in range(3)),
        )
        with pytest.raises(SupportViolation):
            rho(bad, sys=sys)


@pytest.mark.parametrize("fibers", [3, 4])
def test_adjoints_of_stacks_are_per_fiber(rng, fibers):
    # a stacked quad, as homotopy_collapse builds, has the adjoint of each fiber;
    # 4 fibers of 4 x 4 would let a transpose of the whole stack pass on shape alone
    n = 4
    parts = [np.stack([random_matrix(rng, n) for _ in range(fibers)]) for _ in range(4)]
    quad = CornerQuad(*parts).adjoint()
    for i in range(fibers):
        one = CornerQuad(*(p[i] for p in parts))
        want = [m.conj().T for m in (one.x11, one.x21, one.x12, one.x22)]
        for m, w in zip((quad.x11, quad.x12, quad.x21, quad.x22), want):
            np.testing.assert_array_equal(m[i], w)


class TestCornerIdealEquality:
    def test_identity_elements(self):
        n1, n2 = 2, 3
        eye = np.eye(n1 + n2, dtype=complex)
        equal, gap = corner_ideal_equality(eye, eye, (n1, n2))
        assert equal and gap <= 1e-12

    def test_h_outside_ideal_gives_zero_on_both_sides(self, rng):
        # h supported only in block 0; the sandwich misses the ideal entirely
        n1, n2 = 2, 3
        n = n1 + n2
        h = np.zeros((n, n), dtype=complex)
        a = random_matrix(rng, n1)
        h[:n1, :n1] = a @ a.conj().T
        b = random_matrix(rng, n2)
        k = np.zeros((n, n), dtype=complex)
        k[n1:, n1:] = b @ b.conj().T
        equal, gap = corner_ideal_equality(h, k, (n1, n2))
        assert equal and gap <= 1e-12

    def test_random_positive_pairs(self, rng):
        # the identity that qcwb check certifies, on 25 positive pairs with
        # conditioned spectra, which keep the subspace computation well-posed
        (record,) = checks.ideal_equality(rng, 25)
        assert record["pass"], record

    def test_wild_wishart_pairs_conditioning_aware(self, rng):
        # raw Wishart blocks can be arbitrarily ill-conditioned; the gap then
        # degrades no faster than the conditioning of the sandwich columns
        n1, n2 = 2, 3
        n = n1 + n2
        for _ in range(40):
            def block_pos():
                m = np.zeros((n, n), dtype=complex)
                a = random_matrix(rng, n1)
                b = random_matrix(rng, n2)
                m[:n1, :n1] = a @ a.conj().T
                m[n1:, n1:] = b @ b.conj().T
                return m

            h = block_pos()
            k = block_pos()
            _, gap = corner_ideal_equality(h, k, (n1, n2))
            cond = np.linalg.cond(h[n1:, n1:]) * np.linalg.cond(k[n1:, n1:])
            assert gap <= max(1e-10, 100 * np.finfo(float).eps * cond)

    def test_jacobi_profile_skips_lapack(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK reached under the jacobi profile")

        for attr in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, attr, forbidden)
        (record,) = checks.ideal_equality(rng, 1, PROFILES["jacobi"])
        assert record["pass"], record
