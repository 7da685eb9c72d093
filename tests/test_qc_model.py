import numpy as np
import pytest

from qcwb import checks, linalg, qc_model
from qcwb.linalg import (
    DEFAULT_PROFILE,
    PROFILES,
    DimMismatch,
    _gate,
    herm_eig,
    hermitian_part,
    op_norm,
)
from qcwb.qc_model import (
    FactorizationResidualTooLarge,
    QcTriple,
    _corner_sandwich,
    canonical_fiber,
    canonical_generators,
    factor_x,
    high_level_residuals,
    low_level_residuals,
    positivity_residuals,
    t_matrix,
)

from conftest import exact_endpoint, outcome, random_matrix

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


def sandwich(trip):
    """y of factor_x without its pre-gate: the corner sandwich alone."""
    hs, ks = (herm_eig(hermitian_part(m)) for m in (trip.h, trip.k))
    return _corner_sandwich(hs, ks, trip.x, DEFAULT_PROFILE)


def zero_triple(n=2):
    z = np.zeros((n, n), dtype=complex)
    return QcTriple(z, z, z)


class TestTMatrix:
    def test_zero_triple(self):
        t = t_matrix(zero_triple())
        np.testing.assert_array_equal(t, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_fiber_at_one_is_diagonal(self):
        # x vanishes at t = 1, so the block matrix is diagonal there
        t = t_matrix(canonical_fiber(1.0))
        np.testing.assert_allclose(t, np.diag([0.0, 1.0, 0.0, 1.0]), atol=1e-15)

    def test_fiber_at_half_projection_oracle(self):
        t = t_matrix(canonical_fiber(0.5))
        assert t[3, 0] == pytest.approx(0.5)  # sqrt(1/4) off-diagonal entry
        np.testing.assert_allclose(t @ t, t, atol=1e-12)  # direct multiplication
        np.testing.assert_allclose(t, t.conj().T, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            QcTriple(E11, Z2, np.zeros((3, 3), dtype=complex))


class TestLowLevelResiduals:
    def test_zero_triple_all_zero(self):
        res = low_level_residuals(zero_triple())
        assert set(res) == {"h_quadratic", "k_quadratic", "intertwiner", "orthogonality"}
        assert all(v == 0.0 for v in res.values())

    def test_canonical_generators_exact(self):
        res = low_level_residuals(canonical_generators(5))
        assert max(res.values()) <= 1e-14

    def test_single_fiber_perturbation_growth(self):
        # perturbing x by delta E21 at one 2x2 fiber changes the first
        # residual by exactly 2 delta sqrt(t - t^2) + delta^2
        t = 0.3
        fiber = canonical_fiber(t)
        for delta in (1e-2, 1e-4):
            perturbed = QcTriple(fiber.h, fiber.x + delta * E21, fiber.k)
            res = low_level_residuals(perturbed)
            oracle = 2 * delta * np.sqrt(t - t * t) + delta * delta
            assert res["h_quadratic"] == pytest.approx(oracle, abs=1e-12)


class TestHighLevelResiduals:
    def test_zero_and_exact(self):
        assert max(high_level_residuals(zero_triple()).values()) == 0.0
        assert max(high_level_residuals(canonical_generators(4)).values()) <= 1e-14

    def test_cross_bounds_random(self, rng):
        # the cross bounds that qcwb check certifies, on 50 random triples
        (record,) = checks.presentation_equivalence(rng, 50)
        assert record["pass"], record


class TestPositivityResiduals:
    def test_exact_generators_satisfy_weak_system(self):
        res = positivity_residuals(canonical_generators(6))
        assert max(res.values()) <= 1e-12

    def test_zero_triple(self):
        assert max(positivity_residuals(zero_triple()).values()) == 0.0

    def test_norm_one_x_violates_upper_bound(self):
        # h = k = 0 and ||x|| = 1: spectrum of T is that of [[1, 1], [1, 0]]
        # on the excited pair, so the residuals are (sqrt(5) +- ...)/2
        trip = QcTriple(Z2, E21, Z2)
        res = positivity_residuals(trip)
        w = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert res["above_one"] == pytest.approx(w[-1] - 1.0, abs=1e-12)
        assert res["below_zero"] == pytest.approx(-w[0], abs=1e-12)
        assert res["orthogonality"] == 0.0


@pytest.mark.parametrize(
    "fn", [low_level_residuals, high_level_residuals, positivity_residuals, factor_x]
)
def test_stacked_triple_is_per_fiber(rng, fn):
    # a (2, n, n) triple gives, fiber by fiber, what each (n, n) triple gives
    trips = [exact_endpoint(rng, 5), exact_endpoint(rng, 5)]
    stacked = QcTriple(*(np.stack([getattr(t, f) for t in trips]) for f in "hxk"))
    out = fn(stacked)
    for i, trip in enumerate(trips):
        one = fn(trip)
        if isinstance(one, dict):
            assert out.keys() == one.keys()
            for key in one:
                np.testing.assert_allclose(out[key][i], one[key], rtol=1e-12, atol=1e-15)
        else:
            np.testing.assert_allclose(out[i], one, rtol=1e-12, atol=1e-15)


class TestCanonicalGenerators:
    def test_m1_is_the_diagonal_fiber(self):
        trip = canonical_generators(1)
        np.testing.assert_allclose(trip.h, E11, atol=1e-15)
        np.testing.assert_allclose(trip.k, E22, atol=1e-15)
        np.testing.assert_allclose(trip.x, Z2, atol=1e-15)

    def test_m2_residuals(self):
        assert max(low_level_residuals(canonical_generators(2)).values()) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 7, 16])
    def test_projection_with_integer_trace(self, m):
        trip = canonical_generators(m)
        t = t_matrix(trip)
        assert op_norm(t @ t - t) <= 1e-12
        # trace oracle: sum of (1 - t_i) + sum of t_i over 2x2 fibers = 2m
        trace = np.trace(t).real
        assert trace == pytest.approx(2 * m, abs=1e-10)

    def test_positivity_consequences(self):
        trip = canonical_generators(8)
        assert op_norm(trip.h) <= 1.0 + 1e-12
        assert op_norm(trip.k) <= 1.0 + 1e-12
        assert op_norm(trip.x) <= 0.5 + 1e-12
        w_h = np.linalg.eigvalsh(trip.h)
        w_k = np.linalg.eigvalsh(trip.k)
        assert w_h[0] >= -1e-14 and w_k[0] >= -1e-14

    def test_corner_inequality(self):
        # 0 <= T <= 1 together with hk = 0 forces x*x <= h - h^2
        trip = canonical_generators(8)
        gap = trip.x.conj().T @ trip.x - (trip.h - trip.h @ trip.h)
        assert np.linalg.eigvalsh(gap)[-1] <= 1e-12


class TestFactorX:
    def test_zero_x(self):
        y = factor_x(zero_triple())
        np.testing.assert_array_equal(y, Z2)

    def test_canonical_y_formula(self):
        # the factor of the canonical fiber is sqrt(t^(1/2) - t^(3/2)) e21
        m = 6
        trip = canonical_generators(m)
        y = factor_x(trip)
        ts = np.arange(1, m + 1) / m
        expected = np.kron(np.diag(np.sqrt(np.sqrt(ts) - ts ** 1.5)), E21)
        np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_reconstruction_and_contraction(self):
        trip = canonical_generators(9)
        y = factor_x(trip)
        from qcwb.linalg import frac_power

        k8 = frac_power(trip.k, 0.125)
        h8 = frac_power(trip.h, 0.125)
        assert op_norm(k8 @ y @ h8 - trip.x) <= 1e-7
        assert op_norm(y) <= 1.0 + 1e-6

    def test_random_corner_supported_x(self, rng):
        # constructive oracle: x built as k^(1/8) R h^(1/8) reconstructs;
        # a random x breaks the order relations, so only the corner-support
        # reconstruction is in play here
        from qcwb.linalg import frac_power

        base = canonical_generators(4)
        k8 = frac_power(base.k, 0.125)
        h8 = frac_power(base.h, 0.125)
        r = random_matrix(rng, base.dim)
        x = k8 @ r @ h8
        x = x / op_norm(x)
        y = sandwich(QcTriple(base.h, x, base.k))
        assert op_norm(k8 @ y @ h8 - x) <= 1e-9

    def test_unsupported_x_raises(self):
        # x acting outside the k-h corner cannot be reconstructed
        h = np.diag([0.5, 0.0, 0.0]).astype(complex)
        k = np.diag([0.0, 0.5, 0.0]).astype(complex)
        x = np.zeros((3, 3), dtype=complex)
        x[2, 2] = 1e-3  # supported entirely outside both corners
        with pytest.raises(FactorizationResidualTooLarge):
            sandwich(QcTriple(h, x, k))

    def test_one_decomposition_per_factor(self, rng, eigh_shapes):
        # one eigh of h, one of k, plus the pre-gate's eigh of T
        factor_x(exact_endpoint(rng, 6))
        assert eigh_shapes == [(12, 12), (6, 6), (6, 6)]

    def test_hermitian_gates_run_once_per_part(self, monkeypatch):
        # the weak residuals gate h and k Hermitian; their decompositions for
        # the sandwich are not gated again
        names = []
        gate = linalg._hermitian_gate

        def recorded(a, name, *args):
            names.append(name)
            return gate(a, name, *args)

        for module in (linalg, qc_model):
            monkeypatch.setattr(module, "_hermitian_gate", recorded)
        factor_x(canonical_generators(4))
        assert names == ["hermitian defect of h", "hermitian defect of k"]

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    @pytest.mark.parametrize("part", ["h", "k"])
    def test_negative_part_fails_the_positivity_gate(self, part, name):
        # an eigenvalue -1e-9 of h or k in fiber 1 passes the weak residuals
        # (1e-9 <= 1e-8) but not the positivity gate (clamp_tol = 1e-10)
        parts = {m: np.zeros((2, 1, 1), dtype=complex) for m in "hxk"}
        parts[part][1] = -1e-9
        message = rf"^-min eigenvalue of {part} = 1\.000e-09 at fiber 1 exceeds the bound 1\.000e-10$"
        with pytest.raises(linalg.NotPositive, match=message):
            factor_x(QcTriple(parts["h"], parts["x"], parts["k"]), PROFILES[name])

    def test_sandwich_decomposes_nothing(self, rng, eigh_shapes):
        # the sandwich reads the decompositions of h and k it is given
        trip = exact_endpoint(rng, 6)
        hs, ks = (herm_eig(hermitian_part(m)) for m in (trip.h, trip.k))
        eigh_shapes.clear()
        _corner_sandwich(hs, ks, trip.x, DEFAULT_PROFILE)
        assert eigh_shapes == []

    def test_pre_gate_rejects_order_violations(self):
        # norm-one x breaks 0 <= T <= 1, which the default gate reports
        trip = QcTriple(Z2, E21, Z2)
        with pytest.raises(ValueError):
            factor_x(trip)

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_passing_input_takes_no_norm(self, rng, name, monkeypatch):
        # ||hk|| is decided from bounds, and T's spectrum gives the rest
        profile = PROFILES[name]
        trips = [canonical_generators(4), exact_endpoint(rng, 6)]
        expected = [factor_x(trip, profile) for trip in trips]

        def forbidden(*args, **kwargs):
            raise AssertionError("an exact norm was taken on a pass")

        monkeypatch.setattr(linalg, "_norms", forbidden)
        for trip, y in zip(trips, expected):
            assert factor_x(trip, profile).tobytes() == y.tobytes()

    # 1 x 1 triples whose one weak residual is s: ||hk||, T's eigenvalue
    # 1 - h below 0, or k above 1
    PRE_GATE_CASES = {
        "orthogonality": lambda s: ([[s]], [[0.0]], [[1.0]]),
        "below-zero": lambda s: ([[1.0 + s]], [[0.0]], [[0.0]]),
        "above-one": lambda s: ([[0.0]], [[0.0]], [[1.0 + s]]),
        "nan": lambda s: ([[0.0]], [[np.nan]], [[0.0]]),
    }

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    @pytest.mark.parametrize("case", sorted(PRE_GATE_CASES))
    def test_pre_gate_decides_as_the_measured_gate(self, case, name):
        # 0.1% below or above _PRE_TOL, factor_x passes or raises as the gate
        # that measures every weak residual does, with the same class and
        # message; a NaN fails closed
        profile, tol = PROFILES[name], qc_model._PRE_TOL

        def measured(trip):
            worst = np.max(list(positivity_residuals(trip, profile).values()), axis=0)
            _gate("corner relation residual", worst, tol, ValueError)

        for level in (1.0 - 1e-3, 1.0 + 1e-3):
            parts = self.PRE_GATE_CASES[case](level * tol)
            trip = QcTriple(*(np.array(m, dtype=complex) for m in parts))
            got = outcome(lambda: factor_x(trip, profile))
            assert got == outcome(lambda: measured(trip))
            if case == "nan":
                assert got is not None
            else:
                assert got is None if level < 1.0 else got[0] is ValueError, got


class TestDirectSum:
    def test_residuals_are_maxima_of_summands(self):
        a = canonical_generators(3)
        b = zero_triple(4)
        both = a.direct_sum(QcTriple(b.h, b.x, b.k))
        assert both.dim == a.dim + 4
        res = low_level_residuals(both)
        assert max(res.values()) <= 1e-14
