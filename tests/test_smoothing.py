import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcwb import linalg
from qcwb.linalg import (
    PROFILES,
    GapTooSmall,
    NoConvergence,
    func_calc,
    hermitian_part,
    nearest_projection,
    op_norm,
)
from qcwb.qc_model import (
    QcTriple,
    canonical_generators,
    high_level_residuals,
    low_level_residuals,
    t_matrix,
)
from qcwb.smoothing import (
    NoWorkableTheta,
    ResidualTooLarge,
    SmoothingParams,
    SpectralGapFailure,
    auto_theta,
    make_gminus,
    make_gplus,
    make_qminus,
    make_qplus,
    smooth_representation,
)

from conftest import perturbed_generators, random_hermitian, random_matrix, random_unitary


class TestCutoffs:
    GRID = np.linspace(-1.0, 1.0, 10_001)

    @pytest.mark.parametrize("theta", [0.5, 0.1, 0.01])
    def test_gplus_bounds(self, theta):
        g = make_gplus(theta)
        vals = g(self.GRID)
        assert np.all(vals[self.GRID <= 0.0] == 0.0)
        pos = self.GRID > 0
        assert np.all(vals[pos] <= self.GRID[pos] + 1e-15)
        assert np.all(vals[pos] >= self.GRID[pos] - theta / 2 - 1e-15)
        assert g(np.array([theta]))[0] == pytest.approx(theta)
        # largest displacement on [0, 1] stays within theta/2
        assert np.max(self.GRID[pos] - vals[pos]) <= theta / 2

    def test_gminus_is_reflection(self):
        g = make_gplus(0.2)
        gm = make_gminus(0.2)
        np.testing.assert_allclose(gm(self.GRID), g(-self.GRID), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.5, 0.05])
    def test_qplus_bounds(self, theta):
        ramp = theta * theta / 4
        q = make_qplus(theta)
        vals = q(self.GRID)
        assert np.all(vals[self.GRID <= 0.0] == 0.0)
        assert np.all(vals[self.GRID >= ramp] == 1.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert q(np.array([-0.1]))[0] == 0.0
        assert q(np.array([2 * ramp]))[0] == 1.0
        # the squeeze bound: sqrt(t - t^2) (1 - q^2) <= theta/2 on [0, 1]
        t01 = np.linspace(0.0, 1.0, 10_001)
        slack = np.sqrt(t01 - t01 * t01) * (1.0 - q(t01) ** 2)
        assert np.max(slack) <= theta / 2 + 1e-12

    @pytest.mark.parametrize("theta", [0.5, 0.05, 1e-3])
    def test_g_cutoffs_take_infinite_and_nan_arguments_quietly(self, theta):
        # the ramp formula runs on the ramp alone: +-inf warn nowhere, a NaN
        # stays NaN, and every finite value keeps the bits of the formula
        # that evaluated the ramp everywhere
        half = 0.5 * theta
        tiny = np.finfo(float).smallest_subnormal
        grid = np.concatenate([np.linspace(-2.0, 2.0, 40_001), [0.0, -0.0, tiny, -tiny, half]])
        for sign, make, ends in ((1.0, make_gplus, [np.inf, 0.0]), (-1.0, make_gminus, [0.0, np.inf])):
            t = sign * grid
            want = np.where(t <= 0.0, 0.0, np.where(t >= half, t, t * linalg.smooth_step(t / half)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert make(theta)(grid).tobytes() == want.tobytes()
                out = make(theta)(np.array([np.inf, -np.inf, np.nan]))
            np.testing.assert_array_equal(out, [*ends, np.nan])

    @pytest.mark.parametrize("theta", [0.5, 0.05, 1e-3])
    def test_q_cutoffs_take_infinite_and_nan_arguments_quietly(self, theta):
        # smooth_step's 0/0 at a NaN warns nowhere, a NaN stays NaN, and every
        # finite value keeps the bits of the unguarded quotient
        def step(u):
            with np.errstate(divide="ignore", over="ignore", under="ignore"):
                su = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
                sv = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
            return su / (su + sv)

        width = theta**2 / 4.0
        tiny = np.finfo(float).smallest_subnormal
        grid = np.concatenate([np.linspace(-2.0, 2.0, 40_001), [0.0, -0.0, tiny, -tiny, width]])
        wide = np.concatenate([grid, [1.0, 1e308, -1e308]])
        special = np.array([np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.smooth_step(wide).tobytes() == step(wide).tobytes()
            for sign, make in ((1.0, make_qplus), (-1.0, make_qminus)):
                t = sign * grid
                want = np.where(t <= 0.0, 0.0, np.where(t >= width, 1.0, step(t / width)))
                assert make(theta)(grid).tobytes() == want.tobytes()
            outs = [f(special) for f in (linalg.smooth_step, make_qplus(theta), make_qminus(theta))]
        for out, want in zip(outs, ([1.0, 0.0, np.nan], [1.0, 0.0, np.nan], [0.0, 1.0, np.nan])):
            np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_non_finite_widths_fail_closed(self, bad):
        # every cutoff width goes through one check, which a NaN fails
        for make in (
            lambda: make_gplus(bad),
            lambda: make_gminus(bad),
            lambda: make_qplus(bad),
            lambda: make_qminus(bad),
            lambda: SmoothingParams(epsilon=0.1, theta=bad),
        ):
            with pytest.raises(ValueError, match="theta must be positive and finite"):
                make()

    def test_support_orthogonality(self, rng):
        # g_plus(s) g_minus(s) = 0 for every Hermitian s
        gp = make_gplus(0.3)
        gm = make_gminus(0.3)
        for _ in range(5):
            s = random_hermitian(rng, 6)
            prod = func_calc(s, gp) @ func_calc(s, gm)
            assert op_norm(prod) <= 1e-12

    def test_cutoff_values(self):
        # g+ is the identity above theta/2; q- is 1 below -theta^2/4
        assert make_gplus(0.2)(np.array([0.5]))[0] == pytest.approx(0.5)
        assert make_qminus(0.2)(np.array([-0.01]))[0] == 1.0
        assert 0.0 < make_qminus(0.2)(np.array([-0.005]))[0] < 1.0
        assert SmoothingParams(epsilon=0.1, theta=0.2).ramp_width == 0.2**2 / 4


class TestSmoothRepresentation:
    def test_zero_triple_is_fixed(self):
        z = np.zeros((4, 4), dtype=complex)
        trip = QcTriple(z, z, z)
        out, report = smooth_representation(
            trip, SmoothingParams(epsilon=0.1, theta=0.05)
        )
        assert report.success
        np.testing.assert_allclose(out.h, z, atol=1e-12)
        np.testing.assert_allclose(out.x, z, atol=1e-12)
        np.testing.assert_allclose(out.k, z, atol=1e-12)

    def test_exact_generators_near_fixed_point(self):
        # spectra clear the cutoff zones, so the run is an exact fixed point
        trip = canonical_generators(8)
        theta = 0.05
        out, report = smooth_representation(
            trip, SmoothingParams(epsilon=0.1, theta=theta)
        )
        assert report.success
        assert max(report.output_residuals.values()) <= 1e-10
        assert max(report.dist_h, report.dist_k, report.dist_x) <= theta

    def test_wide_theta_still_within_theta(self):
        # theta wide enough to move the small fibers; distances stay <= theta
        trip = canonical_generators(8)
        out, report = smooth_representation(
            trip, SmoothingParams(epsilon=0.24, theta=0.2)
        )
        assert max(report.output_residuals.values()) <= 1e-10
        assert max(report.dist_h, report.dist_k, report.dist_x) <= 0.2

    def test_perturbed_generators(self, rng):
        trip, base = perturbed_generators(rng, m=8, size=1e-3)
        params = SmoothingParams(epsilon=0.1, theta=0.05, delta=5e-3)
        out, report = smooth_representation(trip, params)
        assert report.success
        assert max(report.output_residuals.values()) <= 1e-10
        assert max(report.dist_h, report.dist_k, report.dist_x) <= 0.1
        assert report.t2_within_half_epsilon
        # support orthogonality of the output pair
        assert op_norm(out.h @ out.k) <= 1e-9
        # positivity consequences carry over to the output
        for m in (out.h, out.k):
            w = np.linalg.eigvalsh(m)
            assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10
        assert op_norm(out.x) <= 0.5 + 1e-10

    def test_output_block_matrix_is_projection(self, rng):
        trip, _ = perturbed_generators(rng, m=6, size=1e-3)
        out, _ = smooth_representation(
            trip, SmoothingParams(epsilon=0.1, theta=0.05, delta=5e-3)
        )
        res = high_level_residuals(out)
        assert max(res.values()) <= 1e-10
        t = t_matrix(out)
        assert op_norm(t @ t - t) <= 1e-12

    def test_intermediate_distance_budget(self, rng):
        # the cutoff stage moves each component at most theta when the input
        # is close to exact
        trip, _ = perturbed_generators(rng, m=8, size=1e-4)
        theta = 0.05
        from qcwb.linalg import hermitian_part
        from qcwb.smoothing import make_gplus as gp_mk

        s = hermitian_part(
            0.5 * (trip.h + trip.h.conj().T - trip.k - trip.k.conj().T)
        )
        gp = make_gplus(theta)
        gm = make_gminus(theta)
        qp = make_qplus(theta)
        qm = make_qminus(theta)
        h2 = func_calc(s, gp)
        k2 = func_calc(s, gm)
        x2 = func_calc(s, qm) @ trip.x @ func_calc(s, qp)
        assert op_norm(h2 - trip.h) <= theta
        assert op_norm(k2 - trip.k) <= theta
        assert op_norm(x2 - trip.x) <= theta

    def test_residual_precondition(self, rng):
        trip, _ = perturbed_generators(rng, m=4, size=1e-2)
        with pytest.raises(ResidualTooLarge):
            smooth_representation(
                trip, SmoothingParams(epsilon=0.1, theta=0.05, delta=1e-6)
            )

    def test_norm_precondition(self):
        n = 4
        big = 3.0 * np.eye(n, dtype=complex)
        z = np.zeros((n, n), dtype=complex)
        with pytest.raises(ResidualTooLarge):
            smooth_representation(
                QcTriple(big, z, z), SmoothingParams(epsilon=0.1, theta=0.05, delta=10.0)
            )

    def test_gap_failure_on_far_triple(self, rng):
        # h with an eigenvalue parked at 1/2 and x = k = 0 puts T2's spectrum
        # exactly at the threshold
        h = np.diag([0.5, 0.5, 0.5, 0.5]).astype(complex)
        z = np.zeros((4, 4), dtype=complex)
        trip = QcTriple(h, z, z)
        with pytest.raises(SpectralGapFailure):
            smooth_representation(
                trip, SmoothingParams(epsilon=0.2, theta=1e-4, delta=1.0)
            )

    def test_idempotence(self, rng):
        trip, _ = perturbed_generators(rng, m=8, size=1e-3)
        params = SmoothingParams(epsilon=0.1, theta=0.05, delta=5e-3)
        once, _ = smooth_representation(trip, params)
        twice, _ = smooth_representation(once, params)
        assert op_norm(twice.h - once.h) <= 1e-9
        assert op_norm(twice.k - once.k) <= 1e-9
        assert op_norm(twice.x - once.x) <= 1e-9


class TestAutoTheta:
    def test_exact_generators_first_try(self):
        trip = canonical_generators(8)
        params, out, report = auto_theta(trip, epsilon=0.1)
        assert params.theta == pytest.approx(0.05)
        assert report.success

    def test_perturbed_succeeds(self, rng):
        trip, _ = perturbed_generators(rng, m=8, size=1e-3)
        params, out, report = auto_theta(trip, epsilon=0.1)
        assert report.success
        assert max(report.output_residuals.values()) <= 1e-10

    def test_adversarial_raises(self, rng):
        # residuals around 1/2: the spectrum of T2 straddles the threshold
        n = 6
        h = 0.5 * np.eye(n, dtype=complex)
        z = np.zeros((n, n), dtype=complex)
        with pytest.raises(NoWorkableTheta):
            auto_theta(QcTriple(h, z, z), epsilon=0.2)


def test_smooth_representation_decomposes_once(rng, monkeypatch):
    # s and T2 are decomposed once each; the residual gate at delta and the
    # success decision are settled by Frobenius bounds, with no SVD
    trip, _ = perturbed_generators(rng, m=16, size=1e-4)
    params = SmoothingParams(epsilon=0.1, theta=0.05, delta=1e-3)
    calls = []
    for attr in ("eigh", "eigvalsh", "svd", "det", "eig", "eigvals", "qr",
                 "solve", "inv", "pinv", "lstsq", "cholesky"):
        fn = getattr(np.linalg, attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, attr, counted)
    out, report = smooth_representation(trip, params)
    assert report.success
    assert calls == ["eigh", "eigh"], calls


def _count_decompositions(monkeypatch):
    """Record (name, input shape) of each numpy.linalg or Jacobi decomposition."""
    calls = []
    targets = [(np.linalg, attr) for attr in (
        "eigh", "eigvalsh", "svd", "det", "eig", "eigvals", "qr",
        "solve", "inv", "pinv", "lstsq", "cholesky")]
    for owner, attr in targets + [(linalg, "jacobi_eigh")]:
        fn = getattr(owner, attr)

        def counted(a, *args, _fn=fn, _attr=attr, **kwargs):
            calls.append((_attr, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_auto_theta_decomposes_the_corner_block(rng, monkeypatch):
    # s and the corner block of T2 are decomposed once each, and the block
    # is at most n x n; the input is checked once, not once per theta
    trip, _ = perturbed_generators(rng, m=16, size=1e-4)
    n = trip.dim
    calls = _count_decompositions(monkeypatch)
    params, out, report = auto_theta(trip, epsilon=0.1)
    assert report.success
    eighs = [shape for name, shape in calls if name == "eigh"]
    assert len(eighs) == 2, calls
    assert max(shape[-1] for shape in eighs) <= n
    # the distances and the exact output's defects are settled by Frobenius
    # norms; each figure is measured when the report is read
    assert len(calls) == 2, calls
    for attr in ("input_residuals", "output_residuals", "dist_h", "dist_k", "dist_x"):
        assert attr not in vars(report)
    svds = lambda: sum(name == "svd" for name, _ in calls)
    assert max(report.input_residuals.values()) <= 1e-3
    assert svds() == 4, calls
    assert max(report.dist_h, report.dist_k, report.dist_x) <= 0.1
    assert svds() == 4 + 3, calls
    assert max(report.output_residuals.values()) <= 1e-10
    assert svds() == 4 + 3 + 4, calls
    report.to_obj()
    assert svds() == 4 + 3 + 4, calls


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_output_residuals_are_those_of_the_returned_output(rng, name):
    # read on demand, the figures are low_level_residuals of the output the
    # run returned, bit for bit; that output cannot be written to
    profile = PROFILES[name]
    trip, _ = perturbed_generators(rng, m=4, size=1e-4)
    params, out, report = auto_theta(trip, epsilon=0.1, profile=profile)
    assert report.output is out
    for a in (out.h, out.x, out.k):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        out.h[0, 0] = 1.0
    assert report.output_residuals == low_level_residuals(out, profile)
    assert report.to_obj()["output_residuals"] == report.output_residuals


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_input_figures_are_those_of_the_input_the_run_was_given(rng, name):
    # read on demand from the report's read-only copy, the input residuals and
    # the distances are low_level_residuals and op_norm of the input the run
    # was given, bit for bit, whatever the caller writes into its arrays after
    profile = PROFILES[name]
    trip, _ = perturbed_generators(rng, m=4, size=1e-4)
    runs = (
        lambda t: auto_theta(t, epsilon=0.1, profile=profile)[1:],
        lambda t: smooth_representation(
            t, SmoothingParams(epsilon=0.1, theta=0.05, profile=profile)
        ),
    )
    for run in runs:
        h, x, k = trip.h.copy(), trip.x.copy(), trip.k.copy()
        out, report = run(QcTriple(h, x, k))
        for a in (h, x, k):
            a[...] = 7.0
        for a in (report.input.h, report.input.x, report.input.k):
            assert not a.flags.writeable
        assert report.input_residuals == low_level_residuals(trip, profile)
        assert report.dist_h == op_norm(out.h - trip.h, profile)
        assert report.dist_k == op_norm(out.k - trip.k, profile)
        assert report.dist_x == op_norm(out.x - trip.x, profile)
        obj = report.to_obj()
        assert obj["input_residuals"] == report.input_residuals
        assert obj["distances"] == {"h": report.dist_h, "k": report.dist_k, "x": report.dist_x}


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_distance_at_epsilon_is_decided_exactly(name):
    # every eigenvalue of s stays near +-1/2 or +-1, far above each cutoff's
    # ramp, so the output does not depend on theta and neither does the
    # largest distance d: epsilon = d passes, and one ulp below d fails at
    # every theta that auto_theta tries, on distance
    profile = PROFILES[name]
    gen = np.random.default_rng(5)
    base = canonical_generators(2)
    n = base.dim
    trip = QcTriple(
        base.h + 1e-3 * random_hermitian(gen, n) / n,
        base.x + 1e-3 * random_matrix(gen, n) / n,
        base.k + 1e-3 * random_hermitian(gen, n) / n,
    )
    out, report = smooth_representation(
        trip, SmoothingParams(epsilon=0.2, theta=0.1, delta=1.0, profile=profile)
    )
    d = max(report.dist_h, report.dist_k, report.dist_x)
    for epsilon, success in ((d, True), (np.nextafter(d, 0.0), False)):
        params = SmoothingParams(epsilon=epsilon, theta=0.1, delta=1.0, profile=profile)
        again, report = smooth_representation(trip, params)
        np.testing.assert_array_equal(again.x, out.x)
        assert report.success is success
    params, again, report = auto_theta(trip, d, profile)
    assert report.success and params.theta == d / 2.0
    np.testing.assert_array_equal(again.x, out.x)
    with pytest.raises(NoWorkableTheta) as info:
        auto_theta(trip, np.nextafter(d, 0.0), profile)
    assert info.value.last_failure == "distance"


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_residual_gate_is_exact(rng, name):
    # ResidualTooLarge exactly when the measured worst residual exceeds delta,
    # worded with that residual
    profile = PROFILES[name]
    for size in (1e-4, 1e-3):
        trip, _ = perturbed_generators(rng, m=4, size=size)
        worst = max(low_level_residuals(trip, profile).values())
        params = SmoothingParams(epsilon=0.1, theta=0.05, delta=worst, profile=profile)
        assert smooth_representation(trip, params)[1].success
        below = np.nextafter(worst, 0.0)
        message = f"input residual = {worst:.16e} exceeds the bound {below:.16e}"
        with pytest.raises(ResidualTooLarge, match=re.escape(message)):
            smooth_representation(
                trip, SmoothingParams(epsilon=0.1, theta=0.05, delta=below, profile=profile)
            )
    base = canonical_generators(8)
    far = QcTriple(base.h, base.x + 0.2 * np.eye(base.dim), base.k)
    message = "input residual = 2.000e-01 exceeds the bound 5.000e-02"
    with pytest.raises(ResidualTooLarge, match=re.escape(message)):
        smooth_representation(far, SmoothingParams(epsilon=0.1, theta=0.05, profile=profile))
    with pytest.raises(ResidualTooLarge, match="exceeds the bound nan"):
        smooth_representation(
            far, SmoothingParams(epsilon=0.1, theta=0.05, delta=np.nan, profile=profile)
        )


@pytest.mark.parametrize("name", ["default", "jacobi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["h", "x", "k"])
def test_non_finite_input_raises_no_convergence(name, bad, where):
    profile = PROFILES[name]
    base = canonical_generators(2)
    parts = {"h": base.h.copy(), "x": base.x.copy(), "k": base.k.copy()}
    parts[where][1, 0] = bad
    trip = QcTriple(**parts)
    with pytest.raises(NoConvergence, match="not finite"):
        auto_theta(trip, epsilon=0.1, profile=profile)
    with pytest.raises(NoConvergence, match="not finite"):
        smooth_representation(trip, SmoothingParams(epsilon=0.1, theta=0.05, profile=profile))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["h", "x", "k"])
def test_non_finite_input_stops_before_any_product(where, bad):
    # the norm gate comes first, so no relation defect of a NaN or inf
    # input is formed, and no matmul warns
    base = canonical_generators(2)
    parts = {"h": base.h.copy(), "x": base.x.copy(), "k": base.k.copy()}
    parts[where][1, 0] = bad
    with pytest.raises(NoConvergence, match="not finite"):
        smooth_representation(QcTriple(**parts), SmoothingParams(epsilon=0.1, theta=0.05))


def test_input_failing_both_gates_names_the_norm_gate():
    # 3h has norm 3 > 2 and residuals far above delta = 0.05
    base = canonical_generators(2)
    trip = QcTriple(3.0 * base.h, base.x, base.k)
    with pytest.raises(ResidualTooLarge, match=r"component norm \|\|h\|\|"):
        smooth_representation(trip, SmoothingParams(epsilon=0.1, theta=0.05))


@pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan, 0.25, 0.3])
def test_auto_theta_rejects_epsilon_before_any_norm(epsilon, monkeypatch):
    # the check SmoothingParams makes, taken before the input is measured
    trip = canonical_generators(2)
    calls = _count_decompositions(monkeypatch)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        auto_theta(trip, epsilon=epsilon)
    assert calls == []
    with pytest.raises(ValueError, match="epsilon must lie in"):
        SmoothingParams(epsilon=epsilon, theta=0.05)


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_auto_theta_rejects_large_norm_at_once(name, monkeypatch):
    # the norm gate does not depend on theta, so no theta is tried; with no
    # residual gated, the one decomposition is the norm of h
    n = 4
    z = np.zeros((n, n), dtype=complex)
    trip = QcTriple(3.0 * np.eye(n, dtype=complex), z, z)
    calls = _count_decompositions(monkeypatch)
    with pytest.raises(NoWorkableTheta) as info:
        auto_theta(trip, epsilon=0.1, profile=PROFILES[name])
    assert info.value.last_failure == "residual"
    assert len(calls) == 1, calls


def _dense_reference(trip, theta, profile):
    """The smoothing output built the long way: cutoffs of s, T2, threshold."""
    s = hermitian_part(0.5 * (trip.h + trip.h.conj().T - trip.k - trip.k.conj().T))
    h2 = func_calc(s, make_gplus(theta), profile)
    k2 = func_calc(s, make_gminus(theta), profile)
    x2 = func_calc(s, make_qminus(theta), profile) @ trip.x @ func_calc(
        s, make_qplus(theta), profile
    )
    t2 = t_matrix(QcTriple(h2, x2, k2))
    w = np.linalg.eigvalsh(t2)
    defect = float(np.max(np.abs(w * w - w)))
    n = trip.dim
    try:
        p = nearest_projection(t2, profile)
    except GapTooSmall:
        return None, defect
    return QcTriple(np.eye(n) - p[:n, :n], p[n:, :n], p[n:, n:]), defect


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(["perturbed"] * 4 + ["zero", "positive"]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=0.6),
    st.floats(min_value=0.01, max_value=0.2),
    st.sampled_from(["default", "jacobi"]),
)
def test_corner_block_matches_dense_reference_property(kind, m, seed, noise, theta, name):
    profile = PROFILES[name]
    gen = np.random.default_rng(seed)
    n = 2 * m
    if kind == "perturbed":
        base = canonical_generators(m)
        h = base.h + noise * random_hermitian(gen, n) / n
        x = base.x + noise * random_matrix(gen, n) / n
        k = base.k + noise * random_hermitian(gen, n) / n
    elif kind == "zero":
        h = x = k = np.zeros((n, n), dtype=complex)
    else:  # s = h is positive definite, so the negative part N is empty
        h = np.diag(gen.uniform(0.05, 1.0, n)).astype(complex)
        x = noise * random_matrix(gen, n) / n
        k = np.zeros((n, n), dtype=complex)
    v = random_unitary(gen, n)
    trip = QcTriple(v @ h @ v.conj().T, v @ x @ v.conj().T, v @ k @ v.conj().T)
    params = SmoothingParams(epsilon=0.24, theta=theta, delta=10.0, profile=profile)
    want, want_defect = _dense_reference(trip, theta, profile)
    if want is None:
        with pytest.raises(SpectralGapFailure):
            smooth_representation(trip, params)
        return
    out, report = smooth_representation(trip, params)
    for got, ref in ((out.h, want.h), (out.x, want.x), (out.k, want.k)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert report.t2_defect == pytest.approx(want_defect, rel=0, abs=1e-12)
