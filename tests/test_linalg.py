import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcwb.linalg import (
    CLAMP01,
    DEFAULT_PROFILE,
    SQRT0,
    GapTooSmall,
    NoConvergence,
    NotHermitian,
    NotPositive,
    POS,
    PROFILES,
    frac_power,
    func_calc,
    herm_eig,
    hermitian_part,
    jacobi_eigh,
    nearest_projection,
    op_norm,
    smooth_step,
    unitary_exp,
)
from qcwb.linalg import _gate, _max_norm_above, _max_op_norm, _rotate, _span
from qcwb.structures import CornerQuad, CornerSystem, SupportViolation, support_projection

from conftest import (
    hermitian_with_spectrum,
    power_iteration_norm,
    random_hermitian,
    random_matrix,
    random_unitary,
)

JACOBI = PROFILES["jacobi"]


class TestHermEig:
    def test_diagonal(self):
        es = herm_eig(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(es.eigenvalues, [1.0, 3.0])
        # basis is a permutation of the identity
        np.testing.assert_allclose(np.abs(es.basis), [[0, 1], [1, 0]], atol=1e-14)

    def test_pauli_x(self):
        es = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_reconstruction_residual(self, rng):
        h = random_hermitian(rng, 8)
        es = herm_eig(h)
        resid = np.linalg.norm(es.apply(es.eigenvalues) - h, 2)
        assert resid <= 1e-12 * np.linalg.norm(h, 2)

    def test_basis_unitary(self, rng):
        h = random_hermitian(rng, 9)
        es = herm_eig(h)
        defect = np.linalg.norm(es.basis @ es.basis.conj().T - np.eye(9), 2)
        assert defect <= 1e-12 * 9

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(NotHermitian):
            herm_eig(random_matrix(rng, 5))

    def test_eigenvalues_ascending(self, rng):
        es = herm_eig(random_hermitian(rng, 12))
        assert np.all(np.diff(es.eigenvalues) >= 0)

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_entries_whose_hermitian_sum_overflows(self, name):
        # h + h* overflows on these finite entries; the eigenvalues are LAPACK's,
        # with no warning, alone and as fiber 1 of a stack
        h = np.array([[1.5e308, 1e307], [1e307, -1.5e308]], dtype=complex)
        want = np.linalg.eigvalsh(h)
        stack = np.stack([np.diag([2.0, 3.0]).astype(complex), h, np.eye(2, dtype=complex)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = herm_eig(h, PROFILES[name]).eigenvalues
            stacked = herm_eig(stack, PROFILES[name]).eigenvalues
        for got in (alone, stacked[1]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(stacked[[0, 2]], [[2.0, 3.0], [1.0, 1.0]])


def test_hermitian_part_halves_first_only_where_the_sum_overflows(rng):
    # (m + m*) / 2 bit for bit, subnormal parts included; m/2 + m*/2 where the
    # sum overflows
    m = random_matrix(rng, 5)
    m[0, 1] = 3e-320 + 5e-324j
    m[2, 2] = 5e-324
    want = m + m.conj().T
    want *= 0.5
    np.testing.assert_array_equal(hermitian_part(m), want)
    big = np.array([[1.5e308, 1e308j], [1e308, -1.5e308]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hermitian_part(big)
    np.testing.assert_array_equal(got, big * 0.5 + big.conj().T * 0.5)
    assert np.isfinite(got).all()


class TestJacobi:
    def test_agrees_with_lapack(self, rng):
        for n in (1, 2, 3, 8, 16):
            h = random_hermitian(rng, n)
            w, u = jacobi_eigh(h)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12 * max(1, n))
            resid = np.linalg.norm((u * w) @ u.conj().T - h, 2)
            assert resid <= 1e-12 * max(1.0, np.linalg.norm(h, 2))

    def test_zero_matrix(self):
        w, u = jacobi_eigh(np.zeros((4, 4), dtype=complex))
        np.testing.assert_array_equal(w, np.zeros(4))
        np.testing.assert_array_equal(u, np.eye(4))

    def test_sweep_budget_exhausted(self, rng):
        one_sweep = dataclasses.replace(JACOBI, sweep_budget=1)
        with pytest.raises(NoConvergence, match="after 1 Jacobi sweeps"):
            jacobi_eigh(random_hermitian(rng, 8), one_sweep)

    def test_profile_backend(self, rng):
        h = random_hermitian(rng, 6)
        es = herm_eig(h, JACOBI)
        np.testing.assert_allclose(es.eigenvalues, np.linalg.eigvalsh(h), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_fibers_whose_squares_overflow_or_underflow(self, scale):
        # the squares of these entries sum to inf or to 0, which would make
        # every fiber count as converged before any rotation
        h = scale * np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
        want = np.linalg.eigvalsh(h)
        stack = np.stack([np.diag([2.0, 3.0]).astype(complex), h, np.eye(2, dtype=complex)])
        for got in (herm_eig(h, JACOBI).eigenvalues, herm_eig(stack, JACOBI).eigenvalues[1]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(jacobi_eigh(stack)[0][[0, 2]], [[2.0, 3.0], [1.0, 1.0]])

    def test_in_place_rotation_matches_the_formula(self, rng):
        # the in-place update gives each element the operations of the formula
        m = rng.standard_normal((3, 8, 6)) + 1j * rng.standard_normal((3, 8, 6))
        p, q = np.array([0, 4, 3]), np.array([5, 1, 2])
        t = rng.standard_normal((3, 1, 3))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (3, 1, 3)))
        want = m.copy()
        mp, mq = want[..., p], want[..., q]
        want[..., p], want[..., q] = c * mp - phase * s * mq, s * mp + phase * c * mq
        _rotate(m, p, q, c, s, phase * s, phase * c)
        np.testing.assert_array_equal(m, want)


class TestFuncCalc:
    def test_diagonal_case(self):
        out = func_calc(np.diag([0.3, -0.2]).astype(complex), POS)
        np.testing.assert_allclose(out, np.diag([0.3, 0.0]), atol=1e-15)

    def test_projection_fixed_by_square(self, rng):
        u = random_unitary(rng, 5)
        p = (u * np.array([1.0, 1.0, 0.0, 0.0, 0.0])) @ u.conj().T
        out = func_calc(p, lambda t: t * t)
        np.testing.assert_allclose(out, p, atol=1e-13)

    def test_clamp(self):
        out = func_calc(np.diag([-0.5, 0.5, 1.5]).astype(complex), CLAMP01)
        np.testing.assert_allclose(out, np.diag([0.0, 0.5, 1.0]), atol=1e-15)

    def test_multiplicative_on_polynomials(self, rng):
        h = random_hermitian(rng, 7)
        f = lambda t: t + 2 * t**2
        g = lambda t: 3 * t - t**3
        left = func_calc(h, lambda t: f(t) * g(t))
        right = func_calc(h, f) @ func_calc(h, g)
        assert np.linalg.norm(left - right, 2) <= 1e-10 * max(
            1.0, np.linalg.norm(left, 2)
        )

    def test_spectral_mapping(self, rng):
        h = random_hermitian(rng, 6)
        out = func_calc(h, np.tanh)
        got = np.sort(np.linalg.eigvalsh(out))
        want = np.sort(np.tanh(np.linalg.eigvalsh(h)))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_commutes_with_argument(self, rng):
        h = random_hermitian(rng, 6)
        out = func_calc(h, np.exp)
        comm = np.linalg.norm(out @ h - h @ out, 2)
        assert comm <= 1e-11 * np.linalg.norm(h, 2) * np.linalg.norm(out, 2)


class TestUnitaryExp:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(
            unitary_exp(np.zeros((3, 3), dtype=complex)), np.eye(3), atol=1e-14
        )

    def test_projection_gives_identity(self, rng):
        u = random_unitary(rng, 4)
        p = (u * np.array([1.0, 0.0, 1.0, 0.0])) @ u.conj().T
        np.testing.assert_allclose(unitary_exp(p), np.eye(4), atol=1e-10)

    def test_half_gives_minus_one(self):
        np.testing.assert_allclose(
            unitary_exp(np.array([[0.5]], dtype=complex)), [[-1.0]], atol=1e-14
        )

    def test_unitarity(self, rng):
        t = random_hermitian(rng, 8)
        u = unitary_exp(t)
        assert np.linalg.norm(u @ u.conj().T - np.eye(8), 2) <= 1e-11


class TestOpNorm:
    def test_nilpotent(self):
        assert op_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0)

    def test_unitary_is_one(self, rng):
        assert op_norm(random_unitary(rng, 6)) == pytest.approx(1.0, abs=1e-10)

    def test_against_power_iteration(self, rng):
        m = random_matrix(rng, 9)
        assert op_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-8)

    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0


class TestFracPower:
    def test_identity(self):
        np.testing.assert_allclose(
            frac_power(np.eye(4, dtype=complex), 1 / 8), np.eye(4), atol=1e-14
        )

    def test_diagonal(self):
        t = 0.37
        out = frac_power(np.diag([t]).astype(complex), 1 / 8)
        np.testing.assert_allclose(out, [[t ** (1 / 8)]], atol=1e-14)

    def test_canonical_fiber_scaling(self):
        # t * e11 has eighth root t^(1/8) * e11
        for t in (0.1, 0.5, 1.0):
            h = np.diag([t, 0.0]).astype(complex)
            out = frac_power(h, 1 / 8)
            np.testing.assert_allclose(out, np.diag([t ** 0.125, 0.0]), atol=1e-14)

    def test_roundtrip(self, rng):
        h = hermitian_with_spectrum(rng, [0.1, 0.4, 0.9, 1.3])
        root = frac_power(h, 1 / 8)
        back = root
        for _ in range(2):
            back = back @ back  # -> root^4
        back = back @ back  # -> root^8
        assert np.linalg.norm(back - h, 2) <= 1e-9 * np.linalg.norm(h, 2)

    def test_rejects_negative(self, rng):
        with pytest.raises(NotPositive):
            frac_power(np.diag([1.0, -0.5]).astype(complex), 0.5)

    def test_clamps_tiny_negative(self):
        out = frac_power(np.diag([1.0, -1e-12]).astype(complex), 0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


class TestNearestProjection:
    def test_fixes_exact_projection(self, rng):
        u = random_unitary(rng, 5)
        p = (u * np.array([1.0, 1.0, 1.0, 0.0, 0.0])) @ u.conj().T
        out = nearest_projection(p)
        np.testing.assert_allclose(out, p, atol=1e-12)

    def test_one_dimensional_sharpness(self):
        # spectrum {0.1, 0.9}: eta = 0.09 but the true displacement is 0.1,
        # the scalar oracle bound, not eta
        p = np.diag([0.1, 0.9]).astype(complex)
        out = nearest_projection(p)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-14)
        dist = op_norm(out - p)
        eigs = np.array([0.1, 0.9])
        oracle = np.max(np.abs(np.where(eigs >= 0.5, 1.0, 0.0) - eigs))
        assert dist <= oracle + 1e-10
        assert dist == pytest.approx(0.1)

    def test_random_near_projection(self, rng):
        spectrum = np.concatenate([rng.uniform(0, 0.2, 3), rng.uniform(0.8, 1.0, 4)])
        p = hermitian_with_spectrum(rng, spectrum)
        out = nearest_projection(p)
        assert op_norm(out @ out - out) <= 1e-12
        assert op_norm(out - out.conj().T) <= 1e-12
        oracle = np.max(np.abs(np.where(spectrum >= 0.5, 1.0, 0.0) - spectrum))
        assert op_norm(out - p) <= oracle + 1e-10

    def test_gap_too_small_at_exact_boundary(self):
        # eigenvalue 1/2 makes eta exactly 1/4; diagonal input keeps it exact
        with pytest.raises(GapTooSmall):
            nearest_projection(np.diag([0.0, 0.5, 1.0]).astype(complex))

    def test_gap_too_small_above_boundary(self, rng):
        p = hermitian_with_spectrum(rng, [-0.4, 0.2, 1.0])
        with pytest.raises(GapTooSmall):
            nearest_projection(p)

    def test_no_raise_below_boundary(self, rng):
        p = hermitian_with_spectrum(rng, [0.0, 0.4, 1.0])
        nearest_projection(p)  # eta = 0.24 < 1/4


class TestSmoothStep:
    def test_endpoints_and_monotone(self):
        u = np.linspace(-1, 2, 1001)
        v = smooth_step(u)
        assert np.all(v[u <= 0] == 0.0)
        assert np.all(v[u >= 1] == 1.0)
        assert np.all(np.diff(v) >= -1e-15)
        assert smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
def test_reconstruction_property(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    h = 0.5 * (x + x.conj().T)
    es = herm_eig(h)
    assert np.linalg.norm(es.apply(es.eigenvalues) - h, 2) <= 1e-12 * max(
        1.0, np.linalg.norm(h, 2)
    )


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_jacobi_matches_lapack_property(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    h = 0.5 * (x + x.conj().T)
    w, _ = jacobi_eigh(h)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-11 * max(1, n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=-200, max_value=200),
    st.floats(min_value=1.0, max_value=9.99),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.sampled_from(["default", "jacobi"]),
)
def test_op_norm_scale_equivariant_property(n, seed, exponent, mantissa, phase, name):
    # no squaring through m* m: the norm is exact across the whole float range
    profile = PROFILES[name]
    a = random_matrix(np.random.default_rng(seed), n)
    c = mantissa * 10.0**exponent * np.exp(1j * phase)
    want = abs(c) * op_norm(a, profile)
    assert op_norm(c * a, profile) == pytest.approx(want, rel=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_jacobi_op_norm_matches_lapack_property(n, seed):
    a = random_matrix(np.random.default_rng(seed), n)
    assert op_norm(a, JACOBI) == pytest.approx(op_norm(a), rel=1e-10)


NON_FINITE_KERNELS = {
    "op_norm-default": lambda a: op_norm(a),
    "op_norm-jacobi": lambda a: op_norm(a, JACOBI),
    "jacobi_eigh": jacobi_eigh,
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf, complex(np.nan, 1.0)]),
    st.sampled_from(sorted(NON_FINITE_KERNELS)),
)
def test_op_norm_rejects_non_finite_property(n, fibers, seed, bad, kernel):
    # one NaN or inf entry anywhere, in one matrix (fibers = 0) or a stack,
    # whose error names the fiber; the eigensolver's input is scanned before
    # any rotation, so no arithmetic on it warns
    gen = np.random.default_rng(seed)
    a = np.stack([random_matrix(gen, n) for _ in range(max(fibers, 1))])
    at = tuple(gen.integers(0, dim) for dim in a.shape)
    a[at] = bad
    label = f" at fiber {at[0]}" if fibers else ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=f"not finite{label}$"):
            NON_FINITE_KERNELS[kernel](a if fibers else a[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31),
)
def test_jacobi_eigh_fiber_does_not_depend_on_its_stack_property(fibers, n, seed):
    # fibers of scales 1e-3 ... 1e3, some zero, converge after different
    # numbers of sweeps; each is left alone once done, so its result is that
    # of the fiber on its own, bit for bit
    gen = np.random.default_rng(seed)
    stack = np.stack([random_hermitian(gen, n) for _ in range(fibers)])
    stack *= 10.0 ** gen.uniform(-3.0, 3.0, size=(fibers, 1, 1))
    stack[gen.random(fibers) < 0.2] = 0.0
    w, u = jacobi_eigh(stack)
    for i, fiber in enumerate(stack):
        wi, ui = jacobi_eigh(fiber)
        assert np.array_equal(w[i], wi) and np.array_equal(u[i], ui), i


@pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-300])
def test_jacobi_op_norm_subnormal_scale(rng, scale):
    # the Jacobi method normalizes by the largest entry; a subnormal one
    # must not overflow the normalization into NaN
    a = scale * random_matrix(rng, 4)
    assert op_norm(a, JACOBI) == pytest.approx(op_norm(a), rel=1e-10)


def norm_stack(gen, fibers, n, exponent, kind):
    """A stack whose fibers stress the pruning bounds of _max_op_norm: random
    fiber scales, an all-zero stack, exactly-zero fibers, one dominant fiber,
    unit-modulus multiples of one fiber (norms tied up to rounding), or
    unitaries whose scales lie within a factor 1.4, about a quarter of them
    tied with the largest up to rounding (near-tied: the column and
    Frobenius bounds, sqrt(n) apart, keep every fiber once n >= 2)."""
    a = np.stack([random_matrix(gen, n) for _ in range(fibers)])
    a *= 10.0 ** gen.uniform(-3.0, 0.0, size=(fibers, 1, 1))
    if kind == "zero-stack":
        a[...] = 0.0
    elif kind == "zero-fibers":
        a[gen.random(fibers) < 0.5] = 0.0
        a[gen.integers(fibers)] = 0.0
    elif kind == "dominant":
        a[gen.integers(fibers)] *= 1e3
    elif kind == "tied":
        tied = (fibers + 3) // 4
        a[:tied] = np.exp(2j * np.pi * gen.random((tied, 1, 1))) * (1e3 * a[0])
    elif kind == "near-tied":
        scales = 1.0 + 0.4 * gen.random(fibers)
        tied = gen.random(fibers) < 0.25
        scales[tied] = scales.max() * (1.0 + 1e-15 * gen.standard_normal(np.count_nonzero(tied)))
        a = np.stack([random_unitary(gen, n) for _ in range(fibers)]) * scales[:, None, None]
    return a * 10.0**exponent


NORM_STACK_KINDS = ["random", "zero-stack", "zero-fibers", "dominant", "tied", "near-tied"]


@pytest.mark.parametrize("name", ["default", "jacobi"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    fibers=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=1, max_value=8),
    exponent=st.integers(min_value=-200, max_value=200),
    kind=st.sampled_from(NORM_STACK_KINDS),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_max_op_norm_is_the_max_of_op_norm_property(name, fibers, n, exponent, kind, seed):
    # pruning by the column, Frobenius and Gram-power bounds never changes the bits
    profile = PROFILES[name]
    a = norm_stack(np.random.default_rng(seed), fibers, n, exponent, kind)
    assert _max_op_norm(a, profile) == float(np.max(op_norm(a, profile)))


@pytest.mark.parametrize("name", ["default", "jacobi"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    fibers=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=1, max_value=8),
    exponent=st.integers(min_value=-200, max_value=200),
    kind=st.sampled_from(NORM_STACK_KINDS),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_max_norm_above_is_the_comparison_property(name, fibers, n, exponent, kind, seed):
    # the Frobenius and Gram-power bounds decide a comparison only where the
    # norms would, whether the levels are asked together or one at a time
    profile = PROFILES[name]
    a = norm_stack(np.random.default_rng(seed), fibers, n, exponent, kind)
    top = _max_op_norm(a, profile)
    neighbours = (np.nextafter(top, 0.0), np.nextafter(top, np.inf), top * (1 + 1e-9), top * (1 - 1e-9))
    # the Frobenius norm of the stack, where the first pass starts to decide;
    # hypot scales, so it neither overflows nor underflows at 10^(+-200)
    frob = math.hypot(*a.view(float).ravel())
    edge = (frob, np.nextafter(frob, 0.0), np.nextafter(frob, np.inf),
            frob * (1 + 1e-8), np.nextafter(frob * (1 + 1e-8), np.inf))
    levels = [top, *neighbours, *edge, 0.5 * top, 0.0, np.inf, np.nan]
    assert _max_norm_above(a, levels, profile) == [top > level for level in levels]
    for level in levels:
        assert _max_norm_above(a, [level], profile) == [top > level], level


class TestMaxOpNorm:
    def test_measures_only_fibers_that_can_hold_the_maximum(self, rng, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        a = np.stack([random_matrix(rng, 4) for _ in range(64)])
        a[17] *= 10.0
        assert _max_op_norm(a) == float(np.max(op_norm(a)))
        assert shapes[0] == (1, 4, 4)

    def test_measures_the_whole_stack_when_few_fibers_fall(self, rng, monkeypatch):
        # equal norms: no fiber is ruled out, and the stack goes in uncopied
        seen = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            seen.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        a = np.stack([random_unitary(rng, 3) for _ in range(9)])
        assert _max_op_norm(a) == float(np.max(op_norm(a)))
        assert seen[0] is a

    @pytest.mark.parametrize("scale", [1e307, 1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_extreme_scales(self, rng, scale, name):
        a = np.stack([random_matrix(rng, 3) for _ in range(12)])
        a *= scale / np.max(np.abs(a))
        assert _max_op_norm(a, PROFILES[name]) == float(np.max(op_norm(a, PROFILES[name])))

    def test_subnormal_rounding_cannot_prune_the_maximum(self):
        # the bounds read exact real and imaginary parts: |(5 + 5i) ulp| rounds
        # to 7 ulps, which would put fiber 0's Frobenius bound (56 ulps) below
        # fiber 1's column norm (56.2 ulps), though its norm (56.6) is the larger
        ulp = 5e-324
        a = np.zeros((2, 8, 8), dtype=complex)
        a[0] = (5 + 5j) * ulp
        a[1, :2, 0] = 56 * ulp, 5 * ulp
        assert _max_op_norm(a) == float(np.max(op_norm(a))) == 57 * ulp

    def test_parts_near_the_ends_of_the_float_range(self):
        # parts of either sign near the largest float are finite input
        huge = np.array([1.7e308, -1.7e308, 1e300 + 1e300j, 0.0]).reshape(4, 1, 1)
        assert _max_op_norm(huge) == 1.7e308
        # unscaled, fiber 0's squares (2.25e-324) would round to zero, and its
        # norm 1.2e-161 would lose to fiber 1's 1e-161
        tiny = np.zeros((2, 8, 8), dtype=complex)
        tiny[0], tiny[1, 0, 0] = 1.5e-162, 1e-161
        assert _max_op_norm(tiny) == float(np.max(op_norm(tiny))) == op_norm(tiny[0])

    def test_one_matrix(self, rng):
        a = random_matrix(rng, 5)
        assert _max_op_norm(a) == op_norm(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_non_finite_fiber_is_named_in_the_full_stack(self, rng, monkeypatch, bad, name):
        # fiber 3 dominates, so fiber 40 would sit at index 0 of the survivors;
        # the error is raised before any decomposition runs
        def forbidden(*args, **kwargs):
            raise AssertionError("decomposition reached on a non-finite stack")

        for attr in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, attr, forbidden)
        a = np.stack([random_matrix(rng, 3) for _ in range(64)])
        a[3] *= 1e3
        a[40, 2, 1] = bad
        with pytest.raises(NoConvergence, match="not finite at fiber 40$"):
            _max_op_norm(a, PROFILES[name])

    def test_inf_fiber_prints_nothing(self, rng, capfd):
        # LAPACK's argument check would print a DLASCL notice on an inf entry
        a = np.stack([random_matrix(rng, 3) for _ in range(8)])
        a[5, 0, 0] = np.inf
        with pytest.raises(NoConvergence, match="at fiber 5$"):
            _max_op_norm(a)
        assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_op_norm_scans_before_lapack(rng, capfd, bad):
    # the LAPACK method scans its input before the SVD: OpenBLAS would print a
    # DLASCL notice to stdout on an inf entry
    one = np.full((3, 3), bad, dtype=complex)
    with pytest.raises(NoConvergence, match="not finite$"):
        op_norm(one)
    stack = np.stack([random_matrix(rng, 3) for _ in range(8)])
    stack[6, 2, 0] = bad
    with pytest.raises(NoConvergence, match="not finite at fiber 6$"):
        op_norm(stack)
    assert capfd.readouterr() == ("", "")


_ONES = np.ones((3, 3), dtype=complex)


def _ten_with(fiber5):
    """Ten fibers of norm 3, but for fiber 5."""
    return np.stack([_ONES] * 5 + [fiber5] + [_ONES] * 4)


@pytest.mark.parametrize("name", ["default", "jacobi"])
@pytest.mark.parametrize(
    "norm, at",
    [
        # the SVD's top value 3e308 overflows; the Jacobi rescaling did too, to inf
        (lambda p: op_norm(1e308 * _ONES, p), ""),
        (lambda p: op_norm(np.stack([_ONES, 1e308 * _ONES]), p), " at fiber 1"),
        # fiber 5 alone survives the pruning, at index 0 of what is measured
        (lambda p: _max_op_norm(_ten_with(1e308 * _ONES), p), " at fiber 5"),
        # norm 1.86e308: the bounds of fiber (1, 0) alone straddle the level
        (
            lambda p: _max_norm_above(_ten_with(6.2e307 * _ONES).reshape(2, 5, 3, 3), [1.79e308], p),
            " at fiber 1, 0",
        ),
    ],
    ids=["op_norm", "op_norm-stack", "_max_op_norm", "_max_norm_above"],
)
def test_overflowing_norm_names_the_fiber_of_the_callers_stack(norm, at, name):
    # finite entries whose norm is past the float range, under either method
    with pytest.raises(NoConvergence, match=f"^operator norm overflows the float range{at}$"):
        norm(PROFILES[name])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([np.nan, np.inf]),
    st.sampled_from(["default", "jacobi"]),
)
def test_herm_eig_rejects_non_finite_property(n, seed, bad, name):
    gen = np.random.default_rng(seed)
    h = random_hermitian(gen, n)
    i, j = gen.integers(0, n, size=2)
    h[i, j] = h[j, i] = bad
    with pytest.raises(NotHermitian):
        herm_eig(h, PROFILES[name])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_frobenius_first_gate_matches_exact_check_property(n, seed, log_scale, log_defect):
    # h of norm ~10**log_scale carries a skew part of relative size
    # ~10**log_defect * hermitian_tol, so both outcomes and both paths occur
    tol = DEFAULT_PROFILE.hermitian_tol
    gen = np.random.default_rng(seed)
    h = random_hermitian(gen, n, scale=10.0**log_scale)
    skew = random_hermitian(gen, n)
    skew *= 1j / np.linalg.norm(skew, 2)
    a = h + 10.0**log_defect * tol * max(1.0, np.linalg.norm(h, 2)) * skew
    exact = np.linalg.norm(a - a.conj().T, 2) <= tol * max(1.0, np.linalg.norm(a, 2))
    try:
        herm_eig(a)
        accepted = True
    except NotHermitian:
        accepted = False
    assert accepted == exact


class TestSpectralKernel:
    def test_jacobi_profile_is_self_contained(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK reached under the jacobi profile")

        # skew parts c (E12 - E21) of the identity: ||d||_2 = 2c but
        # ||d||_F = 2c sqrt(2), so the Frobenius bound cannot decide and the
        # exact operator-norm check runs, accepting c = 0.4 tol, not 0.6 tol
        tol = JACOBI.hermitian_tol
        skew = np.zeros((6, 6), dtype=complex)
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        h = random_hermitian(rng, 6)
        for attr in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, attr, forbidden)
        op_norm(random_matrix(rng, 6), JACOBI)
        op_norm(np.stack([random_matrix(rng, 6) for _ in range(3)]), JACOBI)
        herm_eig(h, JACOBI)
        herm_eig(np.stack([h, h.conj()]), JACOBI)
        herm_eig(np.eye(6) + 0.4 * tol * skew, JACOBI)
        with pytest.raises(NotHermitian):
            herm_eig(np.eye(6) + 0.6 * tol * skew, JACOBI)

    def test_nearest_projection_decomposes_once(self, rng, eigh_shapes):
        p = hermitian_with_spectrum(rng, [0.05, 0.1, 0.9, 0.95])
        nearest_projection(p)
        assert eigh_shapes == [(4, 4)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["default", "jacobi"]),
)
def test_stacked_kernel_matches_fiber_loop_property(fibers, n, seed, name):
    # one call on a (fibers, n, n) stack equals the same call on each fiber
    profile = PROFILES[name]
    gen = np.random.default_rng(seed)
    herm = np.stack([random_hermitian(gen, n) for _ in range(fibers)])
    general = np.stack([random_matrix(gen, n) for _ in range(fibers)])
    # rank-deficient positive fibers, so the support cut matters
    low_rank = general[..., : max(n - 2, 1)]
    positive = low_rank @ low_rank.conj().swapaxes(-1, -2)
    cases = [
        (lambda a: func_calc(a, SQRT0, profile), herm),
        (lambda a: frac_power(a, 0.125, profile), positive),
        (lambda a: unitary_exp(a, profile), herm),
        (lambda a: op_norm(a, profile), general),
        (lambda a: support_projection(a, profile), positive),
    ]
    for f, stack in cases:
        looped = np.stack([f(a) for a in stack])
        np.testing.assert_allclose(f(stack), looped, rtol=0, atol=1e-12)


class TestStackedGates:
    @pytest.mark.parametrize("name", ["default", "jacobi"])
    @pytest.mark.parametrize("bad", ["skew", np.nan])
    def test_herm_eig_rejects_one_bad_fiber(self, rng, name, bad):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        if bad == "skew":
            stack[3, 0, 1] += 1e-3
        else:
            stack[3, 0, 1] = bad
        with pytest.raises(NotHermitian, match="at fiber 3"):
            herm_eig(stack, PROFILES[name])

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_herm_eig_names_an_overflowing_skew_part(self, name):
        # a - a* overflows though a is finite: not Hermitian, at the caller's fiber
        stack = np.stack([np.eye(2, dtype=complex)] * 3)
        stack[2] = [[0.0, 1.5e308], [-1.5e308, 0.0]]
        with pytest.raises(NotHermitian, match="at fiber 2"):
            herm_eig(stack, PROFILES[name])

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_frac_power_rejects_one_negative_fiber(self, rng, name):
        stack = np.stack([hermitian_with_spectrum(rng, [0.0, 0.5, 1.0]) for _ in range(4)])
        stack[2] = hermitian_with_spectrum(rng, [-0.1, 0.5, 1.0])
        with pytest.raises(NotPositive, match="at fiber 2"):
            frac_power(stack, 0.5, PROFILES[name])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=5),
    st.data(),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["push", np.nan, np.inf]),
    st.sampled_from(["default", "jacobi"]),
)
def test_gates_name_the_one_bad_fiber_property(fibers, n, data, seed, bad, name):
    # one fiber of a stack pushed past its bound, or given one non-finite
    # entry, fails the gate, which names that fiber
    profile = PROFILES[name]
    at = data.draw(st.integers(min_value=0, max_value=fibers - 1))
    label = f"at fiber {at} "
    gen = np.random.default_rng(seed)
    spectrum = np.linspace(0.0, 1.0, n)
    positive = np.stack([hermitian_with_spectrum(gen, spectrum) for _ in range(fibers)])
    if bad == "push":
        skewed = positive.copy()
        skewed[at, 0, 1] += 1e-3
        with pytest.raises(NotHermitian, match=label):
            herm_eig(skewed, profile)
        positive[at] = hermitian_with_spectrum(gen, np.r_[-0.1, spectrum[1:]])
        with pytest.raises(NotPositive, match=label):
            frac_power(positive, 0.5, profile)
        rounded = spectrum.round()
        projections = np.stack([hermitian_with_spectrum(gen, rounded) for _ in range(fibers)])
        projections[at] = hermitian_with_spectrum(gen, np.r_[-0.4, rounded[1:]])
        with pytest.raises(GapTooSmall, match=label):
            nearest_projection(projections, profile)
    else:
        # off the diagonal and on one side only: the skew part is not finite
        positive[at, 0, 1] = bad
        with pytest.raises(NotHermitian, match=label):
            herm_eig(positive, profile)
        with pytest.raises(NotHermitian, match=label):
            frac_power(positive, 0.5, profile)

    # the support check on a stacked corner system: h on the first half of
    # the coordinates, k on the second; x11 leaks into the k corner at one fiber
    half = n // 2
    p_h = np.zeros((fibers, n, n), dtype=complex)
    p_h[:, :half, :half] = np.eye(half)
    p_k = np.zeros((fibers, n, n), dtype=complex)
    p_k[:, half:, half:] = np.eye(n - half)
    corners = CornerSystem(h=p_h, k=p_k, p_h=p_h, p_k=p_k)
    x11 = p_h @ np.stack([random_matrix(gen, n) for _ in range(fibers)]) @ p_h
    zero = np.zeros_like(x11)
    CornerQuad(x11, zero, zero, zero).check_supports(corners, profile)
    if bad == "push":
        x11[at, -1, 0] = 1e-3
        with pytest.raises(SupportViolation, match=label):
            CornerQuad(x11, zero, zero, zero).check_supports(corners, profile)
    else:
        # op_norm, which measures the leak, rejects a non-finite entry first
        x11[at, 0, 0] = bad
        named = pytest.raises(NoConvergence, match=f"not finite at fiber {at}$")
        with np.errstate(invalid="ignore"), named:
            CornerQuad(x11, zero, zero, zero).check_supports(corners, profile)


class TestGate:
    def test_passes_at_the_bound(self):
        _gate("q", 1.0, 1.0, ValueError)
        _gate("q", np.zeros((2, 3)), np.ones(3), ValueError)

    def test_nan_fails(self):
        with pytest.raises(ValueError, match="q = nan exceeds the bound 1.000e\\+00"):
            _gate("q", np.nan, 1.0, ValueError)

    def test_names_the_first_failing_fiber(self):
        value = np.zeros((2, 3))
        value[1, 2] = 5.0
        value[1, 0] = np.nan
        want = "^q = nan at fiber 1, 0 exceeds the bound 1.000e\\+00$"
        with pytest.raises(NotPositive, match=want):
            _gate("q", value, np.array([1.0, 2.0, 3.0]), NotPositive)

    def test_strict_bound(self):
        # a strict gate x < 1/4 passes nextafter(1/4, 0); the message keeps
        # enough digits to tell the value from the bound
        strict = np.nextafter(0.25, 0.0)
        _gate("eta", strict, strict, GapTooSmall)
        want = "eta = 2.5000000000000000e-01 exceeds the bound 2.4999999999999997e-01"
        with pytest.raises(GapTooSmall, match=want):
            _gate("eta", 0.25, strict, GapTooSmall)

    def test_large_finite_hermitian_accepted(self, rng):
        # the Frobenius norms overflow; the exact check still decides
        h = 1e200 * random_hermitian(rng, 4)
        herm_eig(h)
        skew = h.copy()
        skew[0, 1] *= 1.5
        with pytest.raises(NotHermitian):
            herm_eig(skew)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
def test_span_is_sized_by_its_columns_property(rows, rank, extra, seed):
    """_span returns min(rows, rank) orthonormal columns spanning ``rank``
    independent columns repeated ``extra`` times, never a rows x rows array."""
    gen = np.random.default_rng(seed)
    rank = min(rank, rows)
    base = gen.standard_normal((rows, rank)) + 1j * gen.standard_normal((rows, rank))
    mix = gen.standard_normal((rank, extra))
    a = np.hstack([base, base @ mix])
    q = _span(np.zeros((rows, 0), dtype=complex), a, DEFAULT_PROFILE.rank_tol)
    assert q.shape == (rows, rank)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(rank), rtol=0, atol=1e-12)
    assert np.linalg.norm(a - q @ (q.conj().T @ a)) <= 1e-10 * max(1.0, np.linalg.norm(a))
