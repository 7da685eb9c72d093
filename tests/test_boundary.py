import functools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcwb.linalg import (
    CLAMP01,
    DEFAULT_PROFILE,
    PROFILES,
    EigenSystem,
    NoConvergence,
    NotHermitian,
    NotPositive,
    _calc,
    _gate,
    _positive_eig,
    _support,
    adjoint,
    frac_power,
    herm_eig,
    op_norm,
)
from qcwb.qc_model import (
    E21,
    FactorizationResidualTooLarge,
    QcTriple,
    canonical_fiber,
    canonical_generators,
    factor_x,
    low_level_residuals,
    positivity_residuals,
    t_matrix,
)
from qcwb import boundary, cli, linalg, qc_model, smoothing, structures
from qcwb.boundary import (
    BScenarioRep,
    EndpointDefect,
    GridFunction,
    IntervalModel,
    LiftResidual,
    NoSpectralGap,
    PhaseStepTooLarge,
    WindingIllConditioned,
    WindingIndexMismatch,
    boundary_unitary,
    builtin_scenario,
    exact_projection_lift,
    homotopy_collapse,
    lift_T,
    run_scenario,
    winding_number,
)
from qcwb.smoothing import ResidualTooLarge
from qcwb.structures import (
    CornerQuad,
    SupportViolation,
    homotopy_theta,
    make_corner_system,
    support_projection,
)

from conftest import exact_endpoint, outcome, random_matrix, random_unitary, record_eigh

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
Z2 = np.zeros((2, 2), dtype=complex)


class TestIntervalModel:
    def test_points_uniform(self):
        model = IntervalModel(grid_size=4)
        np.testing.assert_allclose(model.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_refined_grid_keeps_the_coarse_points(self):
        # refinement reuses the coarse fibers, so i/m must equal 2i/2m bit for bit
        for m in range(1, 4097):
            coarse = IntervalModel(grid_size=m).points
            fine = IntervalModel(grid_size=2 * m).points
            assert np.array_equal(fine[0::2], coarse), m

    def test_quotient_map_surjective_and_kernel(self, rng):
        # pi = endpoint evaluation reaches any endpoint pair, and the lifted
        # interpolant of a pair in the kernel vanishes at the ends
        model = IntervalModel(grid_size=8)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = GridFunction(boundary._interpolate(np.stack([a, b]), model.points))
        v0, v1 = g.values[[0, -1]]
        assert np.allclose(v0, a) and np.allclose(v1, b)
        kern = GridFunction(g.values - g.values)  # the zero function
        k0, k1 = kern.values[[0, -1]]
        assert op_norm(k0) <= 1e-10 and op_norm(k1) <= 1e-10


def lifted_pair(hb, kb, model):
    """h = pos(c) and k = neg(c) of the lift of the exact triples (h, 0, k)."""
    rep = BScenarioRep(QcTriple(hb[0], Z2, kb[0]), QcTriple(hb[1], Z2, kb[1]))
    lift = lift_T(rep, model)
    return lift.h.values, lift.k.values


class TestLiftOrthogonalPositive:
    def test_constant_pair(self):
        model = IntervalModel(grid_size=6)
        h, k = lifted_pair((E11, E11), (E22, E22), model)
        for i in range(7):
            np.testing.assert_allclose(h[i], E11, atol=1e-12)
            np.testing.assert_allclose(k[i], E22, atol=1e-12)

    def test_interpolating_pair(self):
        model = IntervalModel(grid_size=8)
        h, k = lifted_pair((E11, Z2), (E22, Z2), model)
        np.testing.assert_allclose(h[0], E11, atol=1e-12)
        np.testing.assert_allclose(h[8], Z2, atol=1e-12)
        np.testing.assert_allclose(k[0], E22, atol=1e-12)
        for i in range(9):
            assert op_norm(h[i] @ k[i]) <= 1e-12
            wh = np.linalg.eigvalsh(h[i])
            assert wh[0] >= -1e-12 and wh[-1] <= 1 + 1e-12

    def test_zero_pair(self):
        model = IntervalModel(grid_size=4)
        h, k = lifted_pair((Z2, Z2), (Z2, Z2), model)
        assert op_norm(h[2]) == 0.0 and op_norm(k[2]) == 0.0

    def test_not_orthogonal_raises(self):
        # h k = 0 and 0 <= h, k <= 1 follow from the exact relations, gated by lift_T
        with pytest.raises(LiftResidual, match="relation residual"):
            lifted_pair((E11, E11), (E11, E11), IntervalModel(grid_size=4))

    def test_not_contraction_raises(self):
        with pytest.raises(LiftResidual, match="relation residual"):
            lifted_pair((2.0 * E11, Z2), (E22, Z2), IntervalModel(grid_size=4))


class TestLiftT:
    def test_zero_scenario_constant(self):
        rep = builtin_scenario("zero")
        model = IntervalModel(grid_size=8)
        lift = lift_T(rep, model)
        expected = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        for i in range(9):
            np.testing.assert_allclose(lift.t_prime.values[i], expected, atol=1e-12)
        assert lift.endpoint_defect <= 1e-12

    def test_eval_at_one_endpoints_exact_projections(self):
        rep = builtin_scenario("eval-at-one")
        model = IntervalModel(grid_size=16)
        lift = lift_T(rep, model)
        for idx in (0, 16):
            t = lift.t_prime.values[idx]
            assert op_norm(t @ t - t) <= 1e-10
        assert lift.endpoint_defect <= 1e-9

    def test_fiber_comes_from_the_representation(self):
        # the model carries the grid only; doubled is 4-dimensional at each point
        lift = lift_T(builtin_scenario("doubled"), IntervalModel(64))
        for path in (lift.h, lift.k):
            assert path.values.shape == (65, 4, 4)
        assert lift.t_prime.values.shape == (65, 8, 8)

    def test_spectrum_clamped(self):
        rep = builtin_scenario("eval-at-one")
        model = IntervalModel(grid_size=16)
        lift = lift_T(rep, model)
        for i in range(17):
            w = np.linalg.eigvalsh(lift.t_prime.values[i])
            assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12

    def test_matched_endpoints_constant_projection(self):
        rep = builtin_scenario("matched-endpoints")
        model = IntervalModel(grid_size=8)
        lift = lift_T(rep, model)
        t0 = lift.t_prime.values[0]
        for i in range(9):
            np.testing.assert_allclose(lift.t_prime.values[i], t0, atol=1e-10)
        assert op_norm(t0 @ t0 - t0) <= 1e-10

    def test_scalar_parts(self):
        rep = builtin_scenario("matched-endpoints")
        model = IntervalModel(grid_size=8)
        lift = lift_T(rep, model)
        alpha, beta = lift.rho
        assert abs(alpha - 1.0) <= 1e-9
        assert abs(beta) <= 1e-9
        assert lift.corner_defect <= 1e-9

    def test_scalar_parts_match_the_matmul_trace(self, rng):
        # rho contracts tr((1 - p) block) elementwise; the full product is the reference
        n = 4
        rep = BScenarioRep(exact_endpoint(rng, n), exact_endpoint(rng, n))
        lift = lift_T(rep, IntervalModel(grid_size=16))
        tp = lift.t_prime.values
        expected = []
        for g, block, default in ((lift.h, tp[:, :n, :n], 1.0), (lift.k, tp[:, n:, n:], 0.0)):
            compl = np.eye(n) - support_projection(g.values)
            rank = np.rint(np.trace(compl, axis1=-2, axis2=-1).real)
            has = rank > 0
            vals = np.trace(compl[has] @ block[has], axis1=-2, axis2=-1).real / rank[has]
            expected.append(np.median(vals) if vals.size else default)
        np.testing.assert_allclose(np.real(lift.rho), expected, rtol=0, atol=1e-14)

    def test_scalar_parts_are_built_once(self, rng, monkeypatch):
        calls = []
        scalar_parts = boundary._scalar_parts

        def counted(lift):
            calls.append(lift)
            return scalar_parts(lift)

        monkeypatch.setattr(boundary, "_scalar_parts", counted)
        _, lift, model = run_scenario(conjugated_copies(rng, 12), grid_size=64)
        assert model.grid_size == 128
        rho, defect = lift.rho, lift.corner_defect
        assert (lift.rho, lift.corner_defect) == (rho, defect)
        assert calls == [lift]
        # the n x n per-fiber reference: every scalar and every leak, off the
        # supports of the n x n h and k, then the medians and the max
        n = lift.h.fiber_dim
        tp = lift.t_prime.values
        ph, pk = support_projection(lift.h.values), support_projection(lift.k.values)
        slots = []
        for p, block, default in ((ph, tp[:, :n, :n], 1.0), (pk, tp[:, n:, n:], 0.0)):
            compl = np.eye(n, dtype=complex) - p
            rank = np.rint(np.trace(compl, axis1=-2, axis2=-1).real)
            vals = np.trace(compl @ block, axis1=-2, axis2=-1)[rank > 0] / rank[rank > 0]
            slots.append(complex(np.median(vals.real) if vals.size else default))
        t12 = tp[:, :n, n:]
        np.testing.assert_allclose(rho, slots, rtol=0, atol=1e-12)
        assert abs(defect - float(np.max(op_norm(t12 - ph @ t12 @ pk)))) <= 1e-12

    def test_t_and_supports_are_built_once(self, rng, monkeypatch):
        # rho and homotopy_collapse read one T and one pair of supports off the lift
        lift = lift_T(conjugated_copies(rng, 3), IntervalModel(grid_size=32))
        calls = Counter()
        for name in ("_t_system", "_support_projection"):

            def counted(*args, fn=getattr(boundary, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(boundary, name, counted)
        assert len(lift.rho) == 2
        _, w_out, w_in = homotopy_collapse(lift)
        assert w_out == w_in == 3
        assert lift.t is lift.t
        assert calls == {"_t_system": 1, "_support_projection": 2}

    def test_endpoint_t_is_built_once_per_lift(self, rng, monkeypatch):
        # both endpoint gates read one T system, which a refined run keeps:
        # every grid shares the end fibers
        def forbidden(*args, **kwargs):
            raise AssertionError("np.block reached")

        calls = Counter()

        def counted(*args, fn=boundary._t_system):
            calls["_t_system"] += 1
            return fn(*args)

        monkeypatch.setattr(np, "block", forbidden)
        monkeypatch.setattr(boundary, "_t_system", counted)
        result, _, model = run_scenario(conjugated_copies(rng, 3), grid_size=64)
        assert (model.grid_size, result.winding, calls["_t_system"]) == (64, 3, 1)
        calls.clear()
        result, _, model = run_scenario(conjugated_copies(rng, 12), grid_size=64)
        assert model.grid_size == 128 and result.winding == 12
        assert calls["_t_system"] == 1

    def test_rejects_inexact_endpoint(self, rng):
        bad = QcTriple(0.5 * E11 + 0.1 * E22, Z2, Z2)  # violates h^2 + ... = h
        rep = BScenarioRep(bad, QcTriple(Z2, Z2, Z2))
        model = IntervalModel(grid_size=4)
        from qcwb.boundary import LiftResidual

        with pytest.raises(LiftResidual):
            lift_T(rep, model)


def _planted(delta):
    """h = E11 + delta A and k = E22 - delta A at t = 0, with A = [[0, 1], [-1, 0]], and
    zero at t = 1: an exact representation up to delta^2, whose h and k each have the
    Hermitian defect 2 delta, and c = h - k has 4 delta."""
    a = delta * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return BScenarioRep(QcTriple(E11 + a, Z2, E22 - a), QcTriple(Z2, Z2, Z2))


class TestPathHermitianGate:
    """The Hermitian precondition of the paths of c and of T's corner block is
    decided once, on W* c W at the two endpoints, at hermitian_tol unscaled."""

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_planted_defect_fails_at_the_endpoint_gate(self, name, eigh_shapes):
        rep, profile = _planted(4e-11), PROFILES[name]
        herm_eig(np.stack([rep.at0.h, rep.at0.k]), profile)  # each passes its own gate
        eigh_shapes.clear()
        message = r"W\* c W at the endpoints \(0, 1\) = 1\.600e-10 at fiber 0 exceeds the bound 1\.000e-10"
        with pytest.raises(NotHermitian, match=message):
            run_scenario(rep, profile=profile)
        # no path was decomposed: only [h(0), h(1), k(0), k(1)], under lapack
        assert eigh_shapes == ([(4, 2, 2)] if name == "default" else [])

    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_planted_defect_below_the_bound_passes(self, name):
        result, _, model = run_scenario(_planted(2e-11), profile=PROFILES[name])
        assert (model.grid_size, result.winding) == (64, 0)

    def test_paths_are_decomposed_unchecked(self, rng, eigh_shapes, monkeypatch):
        # 12 conjugated copies, index 12, start at grid 128, not 64: the Hermitian
        # gate sees the endpoint stack alone, and the decompositions are those of
        # the endpoint stack, of the joint basis of W* c W at the two ends, and of
        # T's corner block, once, on the final grid
        gated = []
        gate = linalg._hermitian_gate

        def recorded(a, *args):
            gated.append(a.shape)
            return gate(a, *args)

        monkeypatch.setattr(linalg, "_hermitian_gate", recorded)
        result, _, model = run_scenario(conjugated_copies(rng, 12), grid_size=64)
        assert (model.grid_size, result.winding) == (128, 12)
        assert gated and all(np.prod(shape[:-2]) <= 4 for shape in gated)
        want = {(4, 24, 24): 1, (12, 12): 1, (129, 12, 12): 1}
        assert Counter(eigh_shapes) == want


class TestBoundaryUnitary:
    def run(self, name, m=64, scheme="linear"):
        rep = builtin_scenario(name)
        model = IntervalModel(grid_size=m)
        lift = lift_T(rep, model, scheme)
        return boundary_unitary(lift), lift, model

    def test_zero_scenario_winding_zero(self):
        result, _, _ = self.run("zero")
        assert result.winding == 0
        assert result.unitarity_defect <= 1e-10
        assert result.endpoint_defect <= 1e-10

    def test_eval_at_one_unit_winding(self):
        result, _, _ = self.run("eval-at-one")
        assert abs(result.winding) == 1
        assert result.unitarity_defect <= 1e-8
        assert result.endpoint_defect <= 1e-8

    def test_recorded_sign_is_plus_one(self):
        # counterclockwise-positive phase convention; pinned once, kept fixed
        result, _, _ = self.run("eval-at-one")
        assert result.winding == 1

    def test_matched_endpoints_winding_zero(self):
        result, _, _ = self.run("matched-endpoints")
        assert result.winding == 0

    def test_doubled_doubles(self):
        single, _, _ = self.run("eval-at-one")
        double, _, _ = self.run("doubled")
        assert double.winding == 2 * single.winding

    def test_refinement_invariance(self):
        w64, _, _ = self.run("eval-at-one", m=64)
        w128, _, _ = self.run("eval-at-one", m=128)
        assert w64.winding == w128.winding

    def test_lift_choice_invariance(self):
        linear, _, _ = self.run("eval-at-one", scheme="linear")
        cosine, _, _ = self.run("eval-at-one", scheme="cosine")
        assert linear.winding == cosine.winding

    def test_direct_sum_additivity(self, rng):
        # build a 4-dim rep as eval-at-one (+) matched-endpoints: windings add
        a = builtin_scenario("eval-at-one")
        b = builtin_scenario("matched-endpoints")
        rep = BScenarioRep(a.at0.direct_sum(b.at0), a.at1.direct_sum(b.at1))
        model = IntervalModel(grid_size=64)
        lift = lift_T(rep, model)
        result = boundary_unitary(lift)
        assert result.winding == 1

    def test_coarse_grid_detected(self):
        rep = builtin_scenario("eval-at-one")
        model = IntervalModel(grid_size=2)
        lift = lift_T(rep, model)
        with pytest.raises(WindingIllConditioned):
            boundary_unitary(lift)


class TestWindingNumber:
    def test_constant_path(self):
        mats = [np.eye(2, dtype=complex)] * 5
        w, resid, step = winding_number(mats)
        assert w == 0 and resid == 0.0 and step == 0.0

    def test_oracle_full_turn(self):
        ts = np.linspace(0.0, 1.0, 33)
        mats = [np.diag([np.exp(2j * np.pi * t), 1.0]) for t in ts]
        w, resid, _ = winding_number(mats)
        assert w == 1 and resid <= 1e-12

    def test_degenerate_determinant_raises(self):
        with pytest.raises(WindingIllConditioned):
            winding_number([np.zeros((2, 2), dtype=complex)] * 3)


class TestHomotopyCollapse:
    def test_identity_path(self):
        model = IntervalModel(grid_size=4)
        lift = lift_T(builtin_scenario("matched-endpoints"), model)
        out, w_out, w_in = homotopy_collapse(lift)
        assert w_out == w_in == 0
        for i in range(5):
            np.testing.assert_allclose(out.values[i], np.eye(4), atol=1e-12)

    def test_pipeline_windings_agree(self):
        rep = builtin_scenario("eval-at-one")
        model = IntervalModel(grid_size=64)
        lift = lift_T(rep, model)
        out, w_out, w_in = homotopy_collapse(lift)
        assert w_out == w_in == 1
        # the s = 0 image is block diagonal with the collapsed unitary on top
        result = boundary_unitary(lift)
        top = out.values[32][:2, :2]
        np.testing.assert_allclose(top, result.u.values[32], atol=1e-10)

    def test_doubling_doubles_both(self):
        rep = builtin_scenario("doubled")
        model = IntervalModel(grid_size=64)
        lift = lift_T(rep, model)
        _, w_out, w_in = homotopy_collapse(lift)
        assert w_out == w_in == 2

    def test_unitarity_gate_names_the_corrupted_fiber(self, monkeypatch):
        lift = lift_T(builtin_scenario("eval-at-one"), IntervalModel(grid_size=32))
        theta = boundary.homotopy_theta
        images = []

        def corrupted(*args):
            images.append(theta(*args).copy())
            images[0][21] += 1e-6 * np.eye(images[0].shape[-1])
            return images[0]

        monkeypatch.setattr(boundary, "homotopy_theta", corrupted)
        with pytest.raises(WindingIllConditioned) as raised:
            homotopy_collapse(lift)
        # the image is 2r x 2r, r = 1; the message the per-fiber gate gives on
        # the same image, embedded
        assert images[0].shape == (33, 2, 2)
        ends = lift.ends
        out = boundary._embed(np.eye(2) + images[0], ends.w, (1, 1))
        eye2 = np.eye(4, dtype=complex)
        with pytest.raises(WindingIllConditioned) as expected:
            boundary._gate(
                "homotopy image unitarity defect",
                op_norm(out @ out.conj().swapaxes(-1, -2) - eye2),
                1e-8,
                WindingIllConditioned,
            )
        assert str(raised.value) == str(expected.value)
        assert "at fiber 21 " in str(raised.value)

    def test_unitarity_gate_takes_no_per_fiber_norm_on_a_pass(self, monkeypatch):
        lift = lift_T(builtin_scenario("doubled"), IntervalModel(grid_size=64))

        def forbidden(*args, **kwargs):
            raise AssertionError("per-fiber norms taken on a passing gate")

        monkeypatch.setattr(boundary, "op_norm", forbidden)
        _, w_out, w_in = homotopy_collapse(lift)
        assert w_out == w_in == 2

    def test_intermediate_s_unitary(self):
        rep = builtin_scenario("eval-at-one")
        model = IntervalModel(grid_size=32)
        lift = lift_T(rep, model)
        for s in (0.25, 0.5, 0.75):
            out, _, _ = homotopy_collapse(lift, s=s)
            for i in (0, 16, 32):
                sv = np.linalg.svd(out.values[i], compute_uv=False)
                assert np.all(np.abs(sv - 1.0) <= 1e-8)


class TestExactProjectionLift:
    @pytest.mark.parametrize("name", ["default", "jacobi"])
    def test_passing_lift_takes_no_norm_until_a_figure_is_read(self, name, monkeypatch):
        # both gates pass on bounds; each figure is measured on its first
        # reading, under the lift's profile, as the run once measured it
        profile, norms = PROFILES[name], linalg._norms
        rep, model = builtin_scenario("matched-endpoints"), IntervalModel(64)

        def forbidden(*args, **kwargs):
            raise AssertionError("an exact norm was taken on a pass")

        monkeypatch.setattr(linalg, "_norms", forbidden)
        grid_rep = exact_projection_lift(rep, model, profile=profile)
        assert not {"max_residual", "endpoint_defect"} & set(vars(grid_rep))
        monkeypatch.setattr(linalg, "_norms", norms)
        h, x, k = grid_rep.h.values, grid_rep.x.values, grid_rep.k.values
        res = low_level_residuals(QcTriple(h, x, k), profile)
        got = np.stack([h, x, k], axis=1)[[0, -1]]
        data = np.array([[at.h, at.x, at.k] for at in (rep.at0, rep.at1)])
        assert grid_rep.max_residual == float(np.max(list(res.values())))
        assert grid_rep.endpoint_defect == float(np.max(op_norm(got - data, profile)))

    def test_matched_endpoints_lifts(self):
        rep = builtin_scenario("matched-endpoints")
        model = IntervalModel(grid_size=16)
        grid_rep = exact_projection_lift(rep, model)
        assert grid_rep.max_residual <= 1e-10
        assert grid_rep.endpoint_defect <= 1e-9
        for i in range(17):
            triple = QcTriple(grid_rep.h.values[i], grid_rep.x.values[i], grid_rep.k.values[i])
            res = low_level_residuals(triple)
            assert max(res.values()) <= 1e-10

    def test_constant_fiber_scenario(self):
        fib = canonical_fiber(1.0)
        rep = BScenarioRep(fib, fib)
        model = IntervalModel(grid_size=8)
        grid_rep = exact_projection_lift(rep, model)
        for i in range(9):
            np.testing.assert_allclose(grid_rep.h.values[i], fib.h, atol=1e-10)

    def test_eval_at_one_obstructed(self):
        rep = builtin_scenario("eval-at-one")
        model = IntervalModel(grid_size=16)
        with pytest.raises(NoSpectralGap):
            exact_projection_lift(rep, model)

    def test_winding_zero_does_not_give_a_gap(self):
        # (1, 0, 0) + (0, 0, 0) to (0, 0, 0) + (1, 0, 0): index 0 and winding 0,
        # but T's eigenvalues cross 1/2 on the linear path, so no threshold lift
        rep = BScenarioRep(QcTriple(E11, Z2, Z2), QcTriple(E22, Z2, Z2))
        result, _, model = run_scenario(rep, grid_size=64)
        assert (result.winding, model.grid_size) == (0, 64)
        with pytest.raises(NoSpectralGap, match=r"^fiber 29 has spectrum \[0.4531, 0.5469\]"):
            exact_projection_lift(rep, IntervalModel(64))

    def test_obstruction_certified_by_winding(self):
        # the same scenario that fails to lift carries winding 1
        result, _, _ = run_scenario("eval-at-one", grid_size=64)
        assert abs(result.winding) == 1

    @pytest.mark.parametrize("name", ["eval-at-one", "doubled"])
    @pytest.mark.parametrize("grid", [1, 3, 5, 7, 9])
    def test_rank_change_between_grid_points_raises(self, name, grid):
        # no eigenvalue of T lies on a grid point near 1/2, but the thresholded
        # rank steps by the winding between two points: the path would jump
        rep = builtin_scenario(name)
        with pytest.raises(NoSpectralGap, match="change of the thresholded rank"):
            exact_projection_lift(rep, IntervalModel(grid))

    @pytest.mark.parametrize("grid", range(1, 10))
    def test_unobstructed_data_lift_on_every_grid(self, grid):
        fiber = canonical_fiber(1.0)
        for rep in (builtin_scenario("matched-endpoints"), BScenarioRep(fiber, fiber)):
            grid_rep = exact_projection_lift(rep, IntervalModel(grid))
            assert grid_rep.max_residual <= 1e-10


class TestRunScenario:
    def test_auto_refinement(self):
        result, lift, model = run_scenario("eval-at-one", grid_size=8)
        assert result.phase_step_max < np.pi / 4
        assert model.grid_size >= 8
        assert abs(result.winding) == 1

    def test_zero(self):
        result, _, _ = run_scenario("zero", grid_size=8)
        assert result.winding == 0
        assert result.invariants_hold()

    def test_refines_past_large_phase_step(self):
        # 16 copies of eval-at-one: tr T' steps by 1/4 on grid 64, a det phase
        # step of pi/2, which winding_number rejects; the run must refine, not raise
        one = builtin_scenario("eval-at-one")
        at0, at1 = one.at0, one.at1
        for _ in range(15):
            at0, at1 = at0.direct_sum(one.at0), at1.direct_sum(one.at1)
        rep = BScenarioRep(at0, at1)
        coarse, _, coarse_model = run_scenario(rep, grid_size=64)
        fine, _, _ = run_scenario(rep, grid_size=256)
        assert coarse_model.grid_size > 64
        assert coarse.winding == fine.winding == 16
        assert coarse.invariants_hold()

    def test_refinement_stops_at_max_grid(self, monkeypatch):
        monkeypatch.setattr(boundary, "_MAX_GRID", 2)
        with pytest.raises(PhaseStepTooLarge):
            run_scenario("eval-at-one", grid_size=2)


def check_exact_endpoints(gen, n, profile):
    """factor_x reconstructs x at both ends of a random exact endpoint pair,
    and run_scenario's winding is the index tr T(1) - tr T(0)."""
    rep = BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n))
    for trip in (rep.at0, rep.at1):
        y = factor_x(trip, profile)
        k8, h8 = frac_power(trip.k, 0.125, profile), frac_power(trip.h, 0.125, profile)
        assert op_norm(k8 @ y @ h8 - trip.x) <= 1e-7 * max(1.0, op_norm(trip.x))
    result, _, _ = run_scenario(rep, profile=profile)
    index = np.trace(t_matrix(rep.at1)) - np.trace(t_matrix(rep.at0))
    assert result.winding == round(index.real)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_exact_endpoints_property(n, seed):
    check_exact_endpoints(np.random.default_rng(seed), n, DEFAULT_PROFILE)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=-14.0, max_value=-9.0),
    st.booleans(),
    st.sampled_from(["default", "strict"]),
)
@example(6, 1, -14.0, True, "default")
def test_accepted_endpoints_pass_the_weak_relations(n, seed, log_noise, hermitian, name):
    """Endpoints that _lift_ends accepts are far inside the bounds of the gates its
    relation-residual gate decides: -min and max - 1 of the spectra of h and k, and
    the weak relation residuals (hk = 0, 0 <= T <= 1), are at most 1e-9, a tenth of
    the 1e-8 they were once gated at."""
    gen = np.random.default_rng(seed)
    profile = PROFILES[name]

    def noise(herm):
        d = random_matrix(gen, n)
        d = d + d.conj().T if herm else d
        return 10.0**log_noise * d / op_norm(d)

    def perturbed(trip):
        return QcTriple(trip.h + noise(hermitian), trip.x + noise(False), trip.k + noise(hermitian))

    rep = BScenarioRep(perturbed(exact_endpoint(gen, n)), perturbed(exact_endpoint(gen, n)))
    try:
        boundary._lift_ends(rep, profile)
    except (LiftResidual, NotHermitian, NotPositive, FactorizationResidualTooLarge):
        return
    for trip in (rep.at0, rep.at1):
        w = herm_eig(np.stack([trip.h, trip.k]), profile).eigenvalues
        assert -w.min() <= 1e-9 and w.max() - 1.0 <= 1e-9
        assert max(positivity_residuals(trip, profile).values()) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_endpoints_under_jacobi(seed):
    check_exact_endpoints(np.random.default_rng(seed), 6, PROFILES["jacobi"])


class TestStackedPipeline:
    def test_linalg_calls_do_not_grow_with_the_grid(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                calls.append((fn.__name__, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapper

        for attr in ("eigh", "eigvalsh", "svd", "det"):
            monkeypatch.setattr(np.linalg, attr, counted(getattr(np.linalg, attr)))
        rep = builtin_scenario("eval-at-one")
        counts = []
        for m in (64, 1024):
            calls.clear()
            model = IntervalModel(grid_size=m)
            boundary_unitary(lift_T(rep, model))
            counts.append(sorted(name for name, _ in calls))
            # h, k, their eighth roots and supports share the joint eigenbasis
            # of c's two endpoint values, and T, T' and u share the decomposition
            # of T's corner block; both are r x r on the range R of the endpoint
            # data, here r = 1 of n = 2; the joint basis is that of c(0), c(1) = 0
            assert calls.count(("eigh", (1, 1))) == 1
            assert calls.count(("eigh", (m + 1, 1, 1))) == 1
            assert ("eigh", (m + 1, 2, 2)) not in calls
            assert ("eigh", (m + 1, 4, 4)) not in calls
        assert counts[0] == counts[1]

    def test_unitarity_defect_measures_few_fibers(self, rng, monkeypatch):
        # one conjugated eval-at-one at grid 2048: the Gram-power bounds
        # leave the SVD a handful of the 2049 fibers of u_R u_R* - 1
        # when the defect is read, and the reported defect is the bound that
        # d and e give on u
        fibers = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            fibers.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        result, _, model = run_scenario(conjugated_copies(rng, 1), grid_size=2048)
        assert model.grid_size == 2048
        result.unitarity_defect
        assert 0 < max(fibers) < 1025
        monkeypatch.undo()
        u_r, w = result.u_r, result.w
        assert u_r.shape == (2049, 1, 1) and w.shape == (2, 1)
        d = float(np.max(op_norm(u_r @ u_r.conj().swapaxes(-1, -2) - np.eye(1))))
        e = op_norm(w.conj().T @ w - np.eye(1))
        assert result.unitarity_defect == (1.0 + e) * (d + (2.0 + d) ** 2 * e)

    def test_run_takes_no_svd_until_a_figure_is_read(self, rng, monkeypatch):
        # boundary-wide's shape: 12 conjugated copies of eval-at-one from grid
        # 64, refined once; every gate passes on bounds, and the defects wait
        # for their first reading
        calls = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        result, lift, model = run_scenario(conjugated_copies(rng, 12), grid_size=64)
        assert model.grid_size == 128 and result.winding == 12
        assert calls == []
        assert result.invariants_hold() and lift.endpoint_defect <= boundary._LIFT_ENDS_TOL
        assert calls

    @pytest.mark.parametrize("name, k", [("default", 12), ("strict", 5), ("jacobi", 3)])
    def test_figures_read_later_match_the_measured_formula(self, rng, name, k):
        # each figure is measured on its first reading, under the lift's
        # profile, by the formula the run once evaluated itself
        profile = PROFILES[name]
        rep = conjugated_copies(rng, k)
        result, lift, model = run_scenario(rep, grid_size=64, profile=profile)
        figures = ("unitarity_defect", "endpoint_defect")
        assert not set(figures) & set(vars(result)) and "endpoint_defect" not in vars(lift)
        u_r, w, eye = result.u_r, result.w, np.eye(lift.c.dim)
        d = float(np.max(op_norm(u_r @ u_r.conj().swapaxes(-1, -2) - eye, profile)))
        e = op_norm(w.conj().T @ w - eye, profile)
        ends = float(np.max(op_norm(u_r[[0, -1]] - eye, profile)))
        assert result.unitarity_defect == (1.0 + e) * (d + (2.0 + d) ** 2 * e)
        assert result.endpoint_defect == (1.0 + e) * ends
        assert lift.endpoint_defect == float(np.max(_end_defects(rep, model, profile)))
        assert result.to_obj() == {
            "winding": k,
            "unitarity_defect": result.unitarity_defect,
            "endpoint_defect": result.endpoint_defect,
        }

    def test_jacobi_profile_skips_lapack(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK reached under the jacobi profile")

        for attr in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, attr, forbidden)
        jacobi = PROFILES["jacobi"]
        result, lift, _ = run_scenario("doubled", grid_size=16, profile=jacobi)
        assert result.winding == 2
        _, w_out, w_in = homotopy_collapse(lift)
        assert w_out == w_in == 2
        # the on-demand scalar parts run under the lift's own profile as well
        assert len(lift.rho) == 2 and np.isfinite(lift.corner_defect)

    def test_pipeline_forms_no_derived_path(self, rng, monkeypatch):
        # T', h, k and the scalar parts are derived on demand: a refined run
        # takes no support projection and clamps T on R + R (2r = 6 of 2n = 12)
        # at the two endpoints only
        def forbidden(*args, **kwargs):
            raise AssertionError("derived data formed by the pipeline")

        monkeypatch.setattr(boundary, "_scalar_parts", forbidden)
        monkeypatch.setattr(boundary, "_support_projection", forbidden)
        shapes = []
        apply = EigenSystem.apply

        def recorded(self, values):
            out = apply(self, values)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(EigenSystem, "apply", recorded)
        _, lift, model = run_scenario(conjugated_copies(rng, 3), grid_size=6)
        assert model.grid_size > 6 and lift.c.dim == 3
        assert max(s[-1] for s in shapes) == 6
        block_paths = [s for s in shapes if len(s) == 3 and s[-1] == 6 and s[0] != 2]
        assert shapes.count((2, 6, 6)) >= 1 and block_paths == []

    def test_refinement_decomposes_only_the_new_points(self, rng, eigh_shapes):
        # 16 copies, index 16: grid 64 is skipped, and 128 refines to 256: the
        # 129 coarse fibers are kept, the 128 odd ones added
        result, _, model = run_scenario(conjugated_copies(rng, 16), grid_size=64)
        assert model.grid_size == 256 and result.winding == 16
        stacks = Counter(shape for shape in eigh_shapes if len(shape) == 3)
        # the path stacks are r x r: R, the range of h(0), has r = 16 of n = 32;
        # c's endpoints commute, so only T's corner block is decomposed along the path
        assert stacks == {(4, 32, 32): 1, (129, 16, 16): 1, (128, 16, 16): 1}
        # nothing wider than n = 32 is decomposed
        assert eigh_shapes and all(shape[-1] <= 32 for shape in eigh_shapes)

    def test_endpoint_factorization_runs_once(self, rng, monkeypatch):
        # both endpoints share one corner sandwich, and refinement reuses it
        calls = []
        sandwich = boundary._corner_sandwich

        def counted(hs, ks, x, profile):
            calls.append(x.shape)
            return sandwich(hs, ks, x, profile)

        monkeypatch.setattr(boundary, "_corner_sandwich", counted)
        _, _, model = run_scenario(conjugated_copies(rng, 2), grid_size=4)
        assert model.grid_size >= 16
        assert calls == [(2, 4, 4)]

    def test_lift_decomposes_the_endpoints_once(self, rng, eigh_shapes):
        # one eigh of [h(0), h(1), k(0), k(1)], none of the stacked T(0), T(1)
        # and none per endpoint
        rep = BScenarioRep(exact_endpoint(rng, 6), exact_endpoint(rng, 6))
        lift = lift_T(rep, IntervalModel(grid_size=16))
        assert eigh_shapes.count((4, 6, 6)) == 1
        assert (2, 12, 12) not in eigh_shapes
        assert (6, 6) not in eigh_shapes and (12, 12) not in eigh_shapes
        eigh_shapes.clear()
        boundary_unitary(lift)
        homotopy_collapse(lift)
        assert eigh_shapes == []

    @pytest.mark.parametrize("name", ["eval-at-one", "matched-endpoints"])
    def test_no_path_is_decomposed_wider_than_two_r(self, monkeypatch, eigh_shapes, name):
        # padded with a zero block to n = 6, where 2r is 2 or 4: only the
        # endpoint data (2 or 4 fibers) are decomposed n x n, to find R
        base = builtin_scenario(name)
        pad = QcTriple(*[np.zeros((4, 4), dtype=complex)] * 3)
        rep = BScenarioRep(base.at0.direct_sum(pad), base.at1.direct_sum(pad))
        applied = []
        apply = EigenSystem.apply

        def recorded(self, values):
            applied.append(self.basis.shape)
            return apply(self, values)

        monkeypatch.setattr(EigenSystem, "apply", recorded)
        lift = lift_T(rep, IntervalModel(64))
        assert lift.t.dim == 2 * lift.c.dim < 6
        views = (lift.t_prime, lift.h, lift.k, lift.rho, lift.corner_defect)
        assert views[0].values.shape == (65, 12, 12)
        homotopy_collapse(lift)
        if name == "eval-at-one":
            boundary_unitary(lift)
        else:
            exact_projection_lift(rep, IntervalModel(64))
        for shape in applied + eigh_shapes:
            assert shape[-1] <= 2 * lift.c.dim or shape[0] <= 4, shape

    @pytest.mark.parametrize("n", range(1, 9))
    def test_endpoint_factor_is_factor_x(self, n):
        # the stacked endpoint sandwich gives what the public factor_x gives,
        # and both endpoint values are compressed to R as W* (.) W, bit for bit
        gen = np.random.default_rng(n)
        for _ in range(5):
            rep = BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n))
            ends = lift_T(rep, IntervalModel(grid_size=4)).ends
            for j, (c, y) in enumerate(zip(*_endpoint_c_y(rep))):
                np.testing.assert_array_equal(ends.y_r[j], adjoint(ends.w) @ y @ ends.w)
                np.testing.assert_array_equal(ends.c_r[j], adjoint(ends.w) @ c @ ends.w)

    def test_exact_projection_lift_decomposes_t_once(self, eigh_shapes):
        # r = n = 2 here: two r x r stacks, and none on R + R
        exact_projection_lift(builtin_scenario("matched-endpoints"), IntervalModel(8))
        assert eigh_shapes.count((9, 2, 2)) == 2
        assert (9, 4, 4) not in eigh_shapes


def test_coarse_grid_winds_as_the_index(monkeypatch):
    # grids 1 and 2 see no phase step in doubled, whose index is 2
    for grid in (1, 2):
        result, _, model = run_scenario("doubled", grid_size=grid)
        assert result.winding == 2 and model.grid_size > 2
    lift = lift_T(builtin_scenario("doubled"), IntervalModel(1))
    with pytest.raises(WindingIndexMismatch, match="winding 0 from the index 2"):
        boundary_unitary(lift)
    monkeypatch.setattr(boundary, "_MAX_GRID", 1)
    with pytest.raises(WindingIndexMismatch):
        run_scenario("doubled", grid_size=1)


def test_homotopy_collapse_gates_the_index():
    # both det windings alias to 0 on grids 1 and 2 of doubled, whose index is 2
    rep = builtin_scenario("doubled")
    for grid in (1, 2):
        lift = lift_T(rep, IntervalModel(grid))
        with pytest.raises(WindingIndexMismatch, match="from the index 2"):
            homotopy_collapse(lift)
    _, w_out, w_in = homotopy_collapse(lift_T(rep, IntervalModel(64)))
    assert (w_out, w_in) == (2, 2)


def conjugated_copies(gen, k):
    """The direct sum of k copies of eval-at-one, conjugated by a Haar unitary."""
    n = 2 * k
    v = random_unitary(gen, n)
    h0 = v @ np.kron(np.eye(k), E11) @ v.conj().T
    z = np.zeros((n, n), dtype=complex)
    return BScenarioRep(QcTriple(h0, z, z), QcTriple(z, z, z))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=32),
    st.sampled_from([3, 6]),
    st.integers(min_value=0, max_value=2**31),
)
# grid 128 steps tr T' by 1/4 (a det phase step of pi/2): refined twice
@example(32, 4, 0)
def test_refinement_matches_a_direct_run(k, start, seed):
    """A refined run returns what lift_T and boundary_unitary give directly
    on its final grid.  A start at 6k steps tr T' by 1/6 and doubles once; a
    start at 3k steps it by 1/3 and doubles twice."""
    rep = conjugated_copies(np.random.default_rng(seed), k)
    grid = start * k
    result, lift, model = run_scenario(rep, grid_size=grid)
    assert model.grid_size in (2 * grid, 4 * grid)
    direct_lift = lift_T(rep, model)
    direct = boundary_unitary(direct_lift)
    assert result.winding == direct.winding == k
    assert result.unitarity_defect == direct.unitarity_defect
    assert result.endpoint_defect == direct.endpoint_defect
    assert result.phase_step_max == direct.phase_step_max
    assert lift.rho == direct_lift.rho
    assert lift.corner_defect == direct_lift.corner_defect
    np.testing.assert_allclose(result.u.values, direct.u.values, rtol=0, atol=1e-12)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
# steps of 2 pi k / grid alias to no det phase at all on these grids
@example(2, 1, 0)
@example(4, 4, 0)
@example(16, 16, 1)
@example(32, 1, 0)
@example(32, 64, 2)
def test_winding_is_the_index_or_raises(k, grid, seed):
    """k conjugated copies of eval-at-one have index k.  A run from any grid
    refines on tr T' until the det phase sees every turn, so it returns
    winding k: it never returns another integer, and it raises only at
    max_grid, which these inputs do not reach."""
    rep = conjugated_copies(np.random.default_rng(seed), k)
    result, _, model = run_scenario(rep, grid_size=grid)
    assert result.winding == k
    assert model.grid_size <= 512


def _zero_triple(n):
    return QcTriple(*[np.zeros((n, n), dtype=complex)] * 3)


def _per_fiber(rep, grid, profile):
    """run_scenario with the joint eigenbasis switched off: c decomposed per fiber."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boundary, "_joint_eig", lambda c_r, profile: None)
        return run_scenario(rep, grid_size=grid, profile=profile)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0, 1]),
    st.sampled_from(["default", "strict", "jacobi"]),
    st.sampled_from([4, 32, 64]),
)
def test_a_zero_end_lifts_in_one_eigenbasis(n, seed, zero_end, name, grid):
    """An exact endpoint and a zero one: the other end's eigenbasis serves the
    whole path of c, which is not decomposed, and the lift gives the winding,
    the final grid and the figures of the per-fiber decomposition, to 1e-12."""
    gen = np.random.default_rng(seed)
    ends = [exact_endpoint(gen, n), exact_endpoint(gen, n)]
    ends[zero_end] = _zero_triple(n)
    rep, profile = BScenarioRep(*ends), PROFILES[name]
    result, lift, model = run_scenario(rep, grid_size=grid, profile=profile)
    plain, plain_lift, plain_model = _per_fiber(rep, grid, profile)
    assert lift.ends.joint is not None and plain_lift.ends.joint is None
    assert (result.winding, model.grid_size) == (plain.winding, plain_model.grid_size)
    assert result.winding == _index(rep)
    for figure in ("unitarity_defect", "endpoint_defect", "phase_step_max"):
        assert abs(getattr(result, figure) - getattr(plain, figure)) <= 1e-12, figure
    # the joint decomposition is one of the path of c, eigenvalues ascending
    c = lift.c
    assert np.all(np.diff(c.eigenvalues, axis=-1) >= 0.0)
    path = boundary._interpolate(lift.ends.c_r, model.points)
    np.testing.assert_allclose(c.apply(c.eigenvalues), path, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
    st.sampled_from([4, 32]),
)
def test_two_nonzero_ends_decompose_the_path_of_c(n, seed, shared, grid):
    """Two exact endpoints with nonzero values of c on R, conjugated by one
    shared unitary (so those values commute) or by independent ones: the path
    of c is decomposed, an (m+1, r, r) stack beside that of T's corner block,
    and no joint basis is formed."""
    gen = np.random.default_rng(seed)
    u = random_unitary(gen, n) if shared else None
    rep = BScenarioRep(exact_endpoint(gen, n, u), exact_endpoint(gen, n, u))
    c_r = boundary._lift_ends(rep, DEFAULT_PROFILE).c_r
    assume(c_r[0].any() and c_r[1].any())
    shapes = []
    with pytest.MonkeyPatch.context() as mp:
        record_eigh(mp, shapes)
        lift = lift_T(rep, IntervalModel(grid))
    r = lift.c.dim
    assert lift.ends.joint is None
    assert (r, r) not in shapes and shapes.count((grid + 1, r, r)) == 2


@pytest.mark.parametrize("name", ["default", "strict", "jacobi"])
@pytest.mark.parametrize("t0", [0.0, 1.1e-10])
def test_only_an_exact_zero_end_takes_the_joint_basis(t0, name):
    """At 0 a rotated canonical fiber at t0, at 1 canonical_fiber(0.5): for t0 = 1.1e-10
    the values of c are within about 1e-10 of zero and of commuting, yet only the
    end that is zero bit for bit, t0 = 0, gives the joint basis.  Both lift, with the
    winding, the final grid and the figures of the per-fiber run."""
    a = 0.26
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]], dtype=complex)
    fib = canonical_fiber(t0) if t0 else _zero_triple(2)
    at0 = QcTriple(*(rot @ m @ rot.T for m in (fib.h, fib.x, fib.k)))
    rep, profile = BScenarioRep(at0, canonical_fiber(0.5)), PROFILES[name]
    result, lift, model = run_scenario(rep, profile=profile)
    plain, _, plain_model = _per_fiber(rep, 64, profile)
    assert (lift.ends.joint is not None) == (t0 == 0.0)
    assert (result.winding, model.grid_size) == (plain.winding, plain_model.grid_size)
    assert result.winding == _index(rep)
    for figure in ("unitarity_defect", "endpoint_defect", "phase_step_max"):
        assert abs(getattr(result, figure) - getattr(plain, figure)) <= 1e-12, figure


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=2**31))
@example(1, 0)
@example(12, 0)
@example(16, 0)
@example(32, 0)
def test_index_skips_only_grids_the_refinement_rejects(k, seed):
    """k conjugated copies of eval-at-one from grid 64: the run that starts
    from the grid the index gives ends where plain doubling from 64 ends, with
    the same path, bit for bit; every grid it skips steps tau by 1/8 or more,
    and nothing is decomposed on one."""
    rep = conjugated_copies(np.random.default_rng(seed), k)
    start = boundary._start_grid(rep, 64)
    shapes = []
    with pytest.MonkeyPatch.context() as mp:
        record_eigh(mp, shapes)
        result, _, model = run_scenario(rep, grid_size=64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boundary, "_start_grid", lambda rep, grid_size: grid_size)
        plain, _, plain_model = run_scenario(rep, grid_size=64)
    assert (model.grid_size, result.winding) == (plain_model.grid_size, plain.winding)
    assert result.winding == k and start <= model.grid_size
    np.testing.assert_array_equal(result.u_r, plain.u_r)
    skipped = [64 * 2**i for i in range(6) if 64 * 2**i < start]
    assert start == 64 * 2 ** len(skipped)
    for m in skipped:
        assert np.max(np.abs(np.diff(lift_T(rep, IntervalModel(m)).tau))) >= 1 / 8
        # neither the lift on grid m nor the odd points that refine it to 2m
        assert not any(shape[0] in (m + 1, m) for shape in shapes if len(shape) == 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0, 1]),
    st.sampled_from("hxk"),
    st.sampled_from(["default", "jacobi"]),
)
def test_a_nan_entry_raises_at_the_endpoint_gate(n, seed, end, part, name):
    """A NaN entry in any part of either endpoint of a commuting pair raises the
    relation residual gate's NoConvergence, naming the endpoint, before the
    joint basis or any path is formed."""
    gen = np.random.default_rng(seed)
    u = random_unitary(gen, n)
    trips = [exact_endpoint(gen, n, u) for _ in range(2)]
    parts = {m: getattr(trips[end], m).copy() for m in "hxk"}
    i, j = gen.integers(n, size=2)
    parts[part][i, j] = np.nan
    trips[end] = QcTriple(parts["h"], parts["x"], parts["k"])
    def forbidden(*args):
        raise AssertionError("the joint basis was formed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boundary, "_joint_eig", forbidden)
        with pytest.raises(NoConvergence, match=f"^op_norm input is not finite at fiber {end}$"):
            run_scenario(BScenarioRep(*trips), profile=PROFILES[name])


def check_tau(rep, grid):
    """tau = tr T' in closed form at every grid point; a returned run steps tau
    by less than 1/8 and the det phase by less than pi/4 unless it stopped at
    max_grid, and it refined no further than that needs."""
    lift = lift_T(rep, IntervalModel(grid))
    traces = np.trace(lift.t_prime.values, axis1=-2, axis2=-1)
    np.testing.assert_allclose(lift.tau, traces.real, rtol=0, atol=1e-12)
    result, lift, model = run_scenario(rep, grid_size=grid)
    steps = np.abs(np.diff(lift.tau))
    if model.grid_size < 4096:
        assert np.max(steps) < 1 / 8
        assert result.phase_step_max < np.pi / 4
    if model.grid_size > grid:
        # the grid before the last doubling: its steps are sums of two fine ones
        assert np.max(np.abs(np.diff(lift.tau[::2]))) >= 1 / 8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
# B's spectrum leaves [0, 1] by 0.026 along this path: T' clamps it
@example(6, 32, 37)
def test_tau_is_the_trace_on_exact_endpoints(n, grid, seed):
    gen = np.random.default_rng(seed)
    check_tau(BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n)), grid)


@pytest.mark.parametrize("k, grid", [(1, 1), (3, 7), (5, 40), (12, 64), (32, 16)])
def test_tau_is_the_trace_on_conjugated_copies(rng, k, grid):
    check_tau(conjugated_copies(rng, k), grid)


def _index(rep):
    """tr T(1) - tr T(0), with tr T = n - tr h + tr k."""
    traces = [np.trace(at.k - at.h).real for at in (rep.at0, rep.at1)]
    return int(np.rint(traces[1] - traces[0]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_lift_decomposes_on_the_range_of_the_endpoints(n, grid, seed):
    """The path stacks are r x r, r = dim R for R the sum of the ranges of the
    endpoint h's and k's; W is an orthonormal basis of R, so W*W = 1 and WW*
    fixes the ranges; the winding is the index and tau is tr T'."""
    gen = np.random.default_rng(seed)
    rep = BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n))
    ranges = np.hstack([rep.at0.h, rep.at1.h, rep.at0.k, rep.at1.k])
    r = np.linalg.matrix_rank(ranges, tol=1e-8)
    lift = lift_T(rep, IntervalModel(grid))
    for es in (lift.c, lift.b):
        assert es.eigenvalues.shape == (grid + 1, r)
        assert es.basis.shape == (grid + 1, r, r)
    w = lift.ends.w
    assert w.shape == (n, r)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(r), rtol=0, atol=1e-12)
    off_range = ranges - w @ (w.conj().T @ ranges)
    assert np.max(np.abs(off_range), initial=0.0) <= 1e-12
    traces = np.trace(lift.t_prime.values, axis1=-2, axis2=-1)
    np.testing.assert_allclose(lift.tau, traces.real, rtol=0, atol=1e-12)
    result, _, _ = run_scenario(rep, grid_size=grid)
    assert result.winding == _index(rep)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.floats(min_value=3.0, max_value=15.0),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)
@example(3.0, 1, 0, 0)
@example(6.0, 8, 0, 0)
@example(9.0, 8, 1, 0)
@example(11.5, 4, 0, 0)
@example(12.0, 4, 2, 1)
@example(15.0, 64, 0, 0)
def test_near_aligned_ranges_wind_or_raise(exponent, grid, pad, seed):
    """h(0) = E11 and k(1) = Q E11 Q* for the rotation Q by theta = 10^-exponent,
    padded with zero blocks and conjugated by one unitary: the range of k(1)
    is at the angle theta to that of h(0).  A run returns the index 2, with
    the lift matching the endpoints to _LIFT_ENDS_TOL, or raises
    LiftResidual; it never returns another winding."""
    theta = 10.0**-exponent
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    n = 2 + pad
    u = random_unitary(np.random.default_rng(seed), n)

    def embed(m):
        out = np.zeros((n, n), dtype=complex)
        out[:2, :2] = m
        return u @ out @ u.conj().T

    z = embed(Z2)
    rep = BScenarioRep(QcTriple(embed(E11), z, z), QcTriple(z, z, embed(rot @ E11 @ rot.T)))
    try:
        result, lift, _ = run_scenario(rep, grid_size=grid)
    except boundary.LiftResidual:
        return
    assert result.winding == 2
    assert lift.endpoint_defect <= boundary._LIFT_ENDS_TOL


def _endpoint_c_y(rep):
    """c = h - k and the corner factor y (:func:`factor_x`) at the two endpoints, stacked."""
    ends = (rep.at0, rep.at1)
    return np.stack([t.h - t.k for t in ends]), np.stack([factor_x(t) for t in ends])


def check_corner_block(rep):
    """The system a lift assembles from its two r x r decompositions is T on
    R + R, 2r x 2r; embedded, it is T = [[1 - h, x*], [x, k]] with
    x = k^(1/8) y h^(1/8), read against the n x n views h, k and T'.  Its
    eigenvalues are ascending with the decoupled ones exactly 0 and 1, and u
    is the embedded block sum C diag(e^(2 pi i clip(w))) C* - 1 on R,
    C = B[:r] + B[r:], of exp(2 pi i T')."""
    result, lift, model = run_scenario(rep)
    n, r = rep.fiber_dim, lift.c.dim
    ends = lift.ends
    es = lift.t
    assert es.dim == 2 * r
    w, basis = es.eigenvalues, es.basis
    lam, v = lift.c.eigenvalues, lift.c.basis

    def root(vals):
        return (v * vals[:, None, :] ** 0.125) @ v.conj().swapaxes(-1, -2)

    w_adj = ends.w.conj().T
    y = w_adj @ boundary._interpolate(_endpoint_c_y(rep)[1], model.points) @ ends.w
    x_r = root(np.maximum(-lam, 0.0)) @ y @ root(np.maximum(lam, 0.0))
    x = boundary._embed(x_r, ends.w, (0,))
    t = t_matrix(QcTriple(lift.h.values, x, lift.k.values))
    assert np.max(op_norm(basis.conj().swapaxes(-1, -2) @ basis - np.eye(2 * r))) <= 1e-12
    t_embedded = boundary._embed(es.apply(w), ends.w, (1, 0))
    assert np.max(op_norm(t_embedded - t)) <= 1e-12
    # T' clamps T's spectrum: it moves T by the largest clamp distance
    clamp = np.max(np.abs(np.clip(w, 0.0, 1.0) - w), axis=-1, initial=0.0)
    assert np.all(np.abs(op_norm(lift.t_prime.values - t) - clamp) <= 1e-12)
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    top = lam > 0.0
    assert np.all(np.count_nonzero(w == 0.0, axis=-1) >= top.sum(axis=-1))
    assert np.all(np.count_nonzero(w == 1.0, axis=-1) >= (~top).sum(axis=-1))
    blocks = basis[:, :r, :] + basis[:, r:, :]
    u_r = EigenSystem(w, blocks).apply(np.exp(2j * np.pi * np.clip(w, 0.0, 1.0))) - np.eye(r)
    u = boundary._embed(u_r, ends.w, (1,))
    np.testing.assert_allclose(result.u.values, u, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_corner_block_on_exact_endpoints(n, seed):
    gen = np.random.default_rng(seed)
    check_corner_block(BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n)))


@pytest.mark.parametrize("k", [1, 3, 12])
def test_corner_block_on_conjugated_copies(rng, k):
    check_corner_block(conjugated_copies(rng, k))


def check_certificates_bound_u(rep, grid):
    """run_scenario never forms the n x n u; the defects it reports, taken on
    u_R and widened by the basis term, bound those measured on u once it is
    formed, less 4 n eps; and det u recounts the winding.  Returns the result."""
    result, _, model = run_scenario(rep, grid_size=grid)
    assert "u" not in result.__dict__
    u = result.u.values
    n = rep.fiber_dim
    eye = np.eye(n)
    slack = 4 * n * np.finfo(float).eps
    unit = np.max(op_norm(u @ u.conj().swapaxes(-1, -2) - eye))
    assert result.unitarity_defect >= unit - slack
    assert result.endpoint_defect >= np.max(op_norm(u[[0, -1]] - eye)) - slack
    phase = np.unwrap(np.angle(np.linalg.det(u)))
    assert np.rint((phase[-1] - phase[0]) / (2 * np.pi)) == result.winding
    return result


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_certificates_bound_u_on_exact_endpoints(n, grid, seed):
    gen = np.random.default_rng(seed)
    check_certificates_bound_u(BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n)), grid)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_certificates_bound_u_on_conjugated_copies(k, grid, seed):
    check_certificates_bound_u(conjugated_copies(np.random.default_rng(seed), k), grid)


def test_certificates_bound_u_far_below_the_fiber_dimension(rng):
    """One conjugated eval-at-one block padded to n = 128: r = 1, so u is 1 on
    a 127-dimensional R-perp that the lift reads as 1 - WW*."""
    n, v = 128, random_unitary(rng, 128)
    h0 = np.zeros((n, n), dtype=complex)
    h0[:2, :2] = conjugated_copies(rng, 1).at0.h
    z = np.zeros((n, n), dtype=complex)
    rep = BScenarioRep(QcTriple(v @ h0 @ v.conj().T, z, z), QcTriple(z, z, z))
    result = check_certificates_bound_u(rep, 64)
    assert abs(result.winding) == 1 and result.w.shape == (n, 1)
    # u is formed on each reading: after every figure is read, the result
    # still holds nothing n x n
    result.to_obj()
    assert max(np.size(a) for a in vars(result).values() if isinstance(a, np.ndarray)) < n * n


@pytest.mark.parametrize("k", [1, 3, 12])
def test_one_span_per_run(rng, monkeypatch, k):
    """A run spans R once, from the at most 4n support columns of the endpoint
    h's and k's, and never completes a basis of the whole space."""
    calls = []
    span = boundary._span

    def recorded(a, cut):
        calls.append(np.array(a))
        return span(a, cut)

    monkeypatch.setattr(boundary, "_span", recorded)
    rep = conjugated_copies(rng, k)
    n = rep.fiber_dim
    result, _, _ = run_scenario(rep)
    assert result.winding == k and len(calls) == 1
    (cols,) = calls
    assert cols.shape[0] == n and cols.shape[1] <= 4 * n
    assert not (cols.shape == (n, n) and np.array_equal(cols, np.eye(n)))


def _with_nan(frame):
    out = frame.copy()
    out[0, 0] = np.nan
    return out


def _stretched(frame):
    out = frame.copy()
    out[:, 0] *= 1.0 + 1e-6
    return out


@pytest.mark.parametrize("corrupt", [_with_nan, _stretched])
@pytest.mark.parametrize("field", ["w"])
def test_a_corrupted_frame_fails_closed(monkeypatch, capsys, field, corrupt):
    """The certificates cover the embedding of R: a basis W with a NaN, or with a
    column off unit length by 1e-6, fails invariants_hold and the CLI exits 1,
    though u_R still winds as the index."""
    lift_T = boundary.lift_T

    def corrupted(*args, **kwargs):
        lift = lift_T(*args, **kwargs)
        w = corrupt(getattr(lift.ends, field))
        return replace(lift, ends=replace(lift.ends, **{field: w}))

    result = boundary_unitary(corrupted(builtin_scenario("doubled"), IntervalModel(64)))
    assert result.winding == 2
    assert not result.invariants_hold()
    monkeypatch.setattr(boundary, "lift_T", corrupted)
    assert cli.main(["boundary", "--scenario", "doubled"]) == cli.EXIT_FAIL
    capsys.readouterr()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**31),
)
def test_projection_lift_returns_only_at_index_zero(n, grid, seed):
    """A returned projection lift has the same rank at every grid point, so the
    endpoint data it lifts have index 0; a run that winds never lifts."""
    gen = np.random.default_rng(seed)
    rep = BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n))
    try:
        grid_rep = exact_projection_lift(rep, IntervalModel(grid))
    except NoSpectralGap:
        return
    # rank T = n - tr h + tr k for an exact triple
    ranks = np.trace(grid_rep.k.values - grid_rep.h.values, axis1=-2, axis2=-1).real
    np.testing.assert_allclose(ranks, ranks[0], rtol=0, atol=1e-9)
    assert _index(rep) == 0


def _reference(rep, model):
    """T', h, k, rho, the corner leak and the homotopy image at s = 0, each
    built n x n from the interpolated c = h - k and y, with fresh
    decompositions of c and T."""
    n, (c, y) = rep.fiber_dim, _endpoint_c_y(rep)
    lam, v = np.linalg.eigh(boundary._interpolate(c, model.points))

    def func(vals):
        return (v * vals[:, None, :]) @ v.conj().swapaxes(-1, -2)

    pos, neg = np.maximum(lam, 0.0), np.maximum(-lam, 0.0)
    h, k = func(pos), func(neg)
    x = func(neg**0.125) @ boundary._interpolate(y, model.points) @ func(pos**0.125)
    mu, z = np.linalg.eigh(t_matrix(QcTriple(h, x, k)))
    t_prime = (z * np.clip(mu, 0.0, 1.0)[:, None, :]) @ z.conj().swapaxes(-1, -2)
    ph, pk = support_projection(h), support_projection(k)
    slots = []
    for p, block, default in ((ph, t_prime[:, :n, :n], 1.0), (pk, t_prime[:, n:, n:], 0.0)):
        compl = np.eye(n) - p
        rank = np.rint(np.trace(compl, axis1=-2, axis2=-1).real)
        vals = np.trace(compl @ block, axis1=-2, axis2=-1)[rank > 0].real / rank[rank > 0]
        slots.append(np.median(vals) if vals.size else default)
    t12 = t_prime[:, :n, n:]
    leak = float(np.max(op_norm(t12 - ph @ t12 @ pk)))
    u = (z * np.exp(2j * np.pi * np.clip(mu, 0.0, 1.0))[:, None, :]) @ z.conj().swapaxes(-1, -2)
    eye = np.eye(n)
    quad = CornerQuad(u[:, :n, :n] - eye, u[:, :n, n:], u[:, n:, :n], u[:, n:, n:] - eye)
    image = np.eye(2 * n) + homotopy_theta(quad, 0.0)
    return t_prime, h, k, slots, leak, image


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=2**31),
)
def test_views_on_r_match_the_n_by_n_reference(n, grid, seed):
    """What a lift reads on R and embeds once matches the same figures built
    n x n (:func:`_reference`) to 1e-12."""
    gen = np.random.default_rng(seed)
    rep = BScenarioRep(exact_endpoint(gen, n), exact_endpoint(gen, n))
    model = IntervalModel(grid)
    lift = lift_T(rep, model)
    t_prime, h, k, slots, leak, image = _reference(rep, model)
    for got, want in ((lift.t_prime, t_prime), (lift.h, h), (lift.k, k)):
        assert got.values.shape == want.shape
        np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lift.rho, slots, rtol=0, atol=1e-12)
    assert abs(lift.corner_defect - leak) <= 1e-12
    try:
        out, _, _ = homotopy_collapse(lift)
    except WindingIllConditioned:
        return
    np.testing.assert_allclose(out.values, image, rtol=0, atol=1e-12)



# ---------------------------------------------------------------------------
# gates decided from bounds, and defects measured on read
# ---------------------------------------------------------------------------


def _unitary_conjugates(*mats):
    """Each of ``mats``, a matrix or a stack, conjugated by one fixed unitary."""
    v = random_unitary(np.random.default_rng(7), mats[0].shape[-1])
    return [v @ m @ v.conj().T for m in mats]


def _conjugated(*blocks):
    """The direct sum of ``blocks``, conjugated by one fixed unitary."""
    trip = functools.reduce(QcTriple.direct_sum, blocks)
    return QcTriple(*_unitary_conjugates(trip.h, trip.x, trip.k))


def _below_cut(s):
    """An exact canonical block whose x has norm s and whose h and k, of norm
    s^2, lie below the support cut, so the corner sandwich drops its x."""
    return QcTriple(s * s * E11, s * E21, s * s * E22)


def _with_half(block):
    """``block`` at t = 0 and a zero block at t = 1, each beside canonical_fiber(0.5)."""
    return BScenarioRep(
        _conjugated(canonical_fiber(0.5), block),
        _conjugated(canonical_fiber(0.5), QcTriple(Z2, Z2, Z2)),
    )


def _end_defects(rep, model, profile):
    """lift_T's ||T' - T|| at the two endpoints, formed and measured as at the
    parent commit: a clamped T' embedded at both ends, fiber by fiber norms."""
    ends = boundary._lift_ends(rep, profile)
    c, b = boundary._lift_fibers(ends, model.points, "linear", profile)
    t_ends = _calc(boundary._t_system(boundary._first_last(c), boundary._first_last(b)), CLAMP01)
    return op_norm(boundary._embed(t_ends, ends.w, (1, 0)) - ends.t, profile)


class _RelationResidual:
    """_lift_ends at 1e-10: h(0) has a block (1 + d) e11, where h^2 - h is d + d^2."""

    error = LiftResidual

    @staticmethod
    def rep(level):
        d = 0.5 * (np.sqrt(1.0 + 4e-10 * level) - 1.0)
        return _with_half(QcTriple((1.0 + d) * E11, Z2, Z2))

    def run(self, level, profile, monkeypatch):
        return lambda: boundary._lift_ends(self.rep(level), profile)

    def measured(self, level, profile, monkeypatch):
        at0, at1 = self.rep(level).at0, self.rep(level).at1
        trip = QcTriple(*(np.stack([getattr(at0, f), getattr(at1, f)]) for f in "hxk"))
        worst = np.max(list(low_level_residuals(trip, profile).values()), axis=0)
        _gate("relation residual at the endpoints (0, 1)", worst, 1e-10, LiftResidual)


class _CornerSandwich:
    """The corner sandwich at 1e-7 max(1, ||x||): a block below the support
    cut whose x has norm level * 1e-7 is not given back."""

    error = FactorizationResidualTooLarge

    @staticmethod
    def parts(level, profile):
        trip = _conjugated(canonical_fiber(0.5), _below_cut(1e-7 * np.nan_to_num(level)))
        hs, ks = (_positive_eig(m, profile) for m in (trip.h, trip.k))
        x = trip.x.copy()
        x[0, 0] += 0.0 * level  # a NaN level puts a NaN into x
        return hs, ks, x

    def run(self, level, profile, monkeypatch):
        return lambda: qc_model._corner_sandwich(*self.parts(level, profile), profile)

    def measured(self, level, profile, monkeypatch):
        hs, ks, x = self.parts(level, profile)

        def roots(es):
            w = np.maximum(es.eigenvalues, 0.0)
            inverse = np.power(w, -0.125, out=np.zeros_like(w), where=_support(w, profile))
            return es.apply(w**0.125), es.apply(inverse)

        (h8, h8_inv), (k8, k8_inv) = roots(hs), roots(ks)
        defect = op_norm(k8 @ (k8_inv @ x @ h8_inv) @ h8 - x, profile)
        bound = qc_model._RECONSTRUCTION_TOL * np.maximum(1.0, op_norm(x, profile))
        _gate("corner sandwich reconstruction defect", defect, bound, FactorizationResidualTooLarge)


class _ClampedEnds:
    """lift_T's ||T' - T|| at the ends, at 1e-9: the sandwich drops an x of
    norm level * 1e-9 from a block below the support cut.  A NaN level puts
    a NaN into T at t = 0 once the endpoint checks have passed."""

    error = LiftResidual
    model = IntervalModel(8)

    @staticmethod
    def rep(level, monkeypatch):
        if np.isnan(level):
            lift_ends = boundary._lift_ends

            def corrupted(*args):
                ends = lift_ends(*args)
                t = ends.t.copy()
                t[0, 0, 0] = np.nan
                return replace(ends, t=t)

            monkeypatch.setattr(boundary, "_lift_ends", corrupted)
            level = 0.0
        return _with_half(_below_cut(1e-9 * level))

    def run(self, level, profile, monkeypatch):
        rep = self.rep(level, monkeypatch)
        return lambda: lift_T(rep, self.model, profile=profile)

    def measured(self, level, profile, monkeypatch):
        defects = _end_defects(self.rep(level, monkeypatch), self.model, profile)
        name = "clamped path defect at the endpoints (0, 1)"
        _gate(name, defects, boundary._LIFT_ENDS_TOL, LiftResidual)


class _UnitaryEnds:
    """boundary_unitary's ||exp(2 pi i T') - 1|| at the ends, at 1e-8: B's top
    eigenvalue at t = 0 moves from 1 to 1 - delta, 2 sin(pi delta) = level * 1e-8."""

    error = EndpointDefect

    @staticmethod
    def lift(level, profile):
        rep = BScenarioRep(
            _conjugated(QcTriple(E11, Z2, Z2), canonical_fiber(0.5)),
            _conjugated(QcTriple(Z2, Z2, Z2), canonical_fiber(0.5)),
        )
        lift = lift_T(rep, IntervalModel(8), profile=profile)
        mu = lift.b.eigenvalues.copy()
        mu[0, -1] -= np.arcsin(0.5e-8 * level) / np.pi
        return replace(lift, b=EigenSystem(mu, lift.b.basis))

    def run(self, level, profile, monkeypatch):
        lift = self.lift(level, profile)
        return lambda: boundary_unitary(lift)

    def measured(self, level, profile, monkeypatch):
        lift = self.lift(level, profile)
        ends = boundary._t_system(boundary._first_last(lift.c), boundary._first_last(lift.b))
        defects = op_norm(boundary._unitary(ends) - np.eye(2 * lift.c.dim), profile)
        name = "||exp(2 pi i T') - 1|| at the endpoints (0, 1)"
        _gate(name, defects, boundary._UNIT_ENDS_TOL, EndpointDefect)


def _measured_projection_lift(rep, profile):
    """exact_projection_lift's two gates with every norm measured: each
    relation residual and each endpoint defect of the thresholded lift,
    which is taken with its own gates switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boundary, "_norm_gate", lambda *args: None)
        out = exact_projection_lift(rep, _ThresholdedResidual.model, profile=profile)
    h, x, k = out.h.values, out.x.values, out.k.values
    worst = np.max(list(low_level_residuals(QcTriple(h, x, k), profile).values()), axis=0)
    _gate("thresholded lift residual", worst, 1e-10, LiftResidual)
    got = np.stack([h, x, k], axis=1)[[0, -1]]
    data = np.array([[at.h, at.x, at.k] for at in (rep.at0, rep.at1)])
    name = "thresholded lift defect of (h, x, k) at the endpoints (0, 1)"
    _gate(name, op_norm(got - data, profile), 1e-9, LiftResidual)


class _ThresholdedResidual:
    """exact_projection_lift's relation residual, at 1e-10: the threshold maps
    to 1 + d in place of 1, so the projection path p becomes (1 + d) P.  Each
    relation defect is then d (1 + d) times a block of P (hk gives -P_22), and
    the (0, 0, 1) block of the input puts a 1 in P_22."""

    error = LiftResidual
    model = IntervalModel(8)
    rep = BScenarioRep(*[_conjugated(canonical_fiber(0.5), QcTriple(Z2, Z2, E22))] * 2)

    def patch(self, level, monkeypatch):
        d = 0.5 * (np.sqrt(1.0 + 4e-10 * level) - 1.0)
        step = linalg.RealFunction("step_half", lambda t: np.where(t >= 0.5, 1.0 + d, 0.0))
        monkeypatch.setattr(boundary, "STEP_HALF", step)

    def run(self, level, profile, monkeypatch):
        self.patch(level, monkeypatch)
        return lambda: exact_projection_lift(self.rep, self.model, profile=profile)

    def measured(self, level, profile, monkeypatch):
        self.patch(level, monkeypatch)
        _measured_projection_lift(self.rep, profile)


class _ThresholdedEnds:
    """exact_projection_lift's endpoint defect, at 1e-9: the path is lifted
    from the exact data, and the data it is compared with has an entry of x(0)
    moved by level * 1e-9."""

    error = LiftResidual

    def rep(self, level, monkeypatch):
        clean = _ThresholdedResidual.rep
        monkeypatch.setattr(boundary, "lift_T", lambda rep, *args, **kwargs: lift_T(clean, *args, **kwargs))
        x = clean.at0.x.copy()
        x[0, 0] += 1e-9 * level
        return BScenarioRep(replace(clean.at0, x=x), clean.at1)

    def run(self, level, profile, monkeypatch):
        rep = self.rep(level, monkeypatch)
        return lambda: exact_projection_lift(rep, _ThresholdedResidual.model, profile=profile)

    def measured(self, level, profile, monkeypatch):
        _measured_projection_lift(self.rep(level, monkeypatch), profile)


def _measured_corner_system(h, k, profile):
    """make_corner_system's two gates with every norm measured, as at the
    parent commit."""
    scale = np.maximum(1.0, op_norm(h, profile) * op_norm(k, profile))
    _gate("||h k||", op_norm(h @ k, profile), profile.support_tol * scale, SupportViolation)
    hs, ks = (_positive_eig(m, profile) for m in (h, k))
    p_h, p_k = (structures._support_projection(es, profile) for es in (hs, ks))
    name = "support overlap ||p_h p_k||"
    _gate(name, op_norm(p_h @ p_k, profile), profile.support_tol, SupportViolation)


class _CornerProduct:
    """make_corner_system's ||h k|| at support_tol max(1, ||h|| ||k||): h has a
    third eigenvalue a, below its support cut, where k is 1, so ||h k|| = a
    against the bound 4e-10.  A NaN level is a NaN support_tol."""

    error = SupportViolation

    @staticmethod
    def parts(level, profile, monkeypatch):
        if np.isnan(level):
            profile, level = replace(profile, support_tol=np.nan), 0.0
        h, k = _unitary_conjugates(np.diag([4.0, 0.0, 4e-10 * level]), np.diag([0.0, 1.0, 1.0]))
        return h, k, profile

    def run(self, level, profile, monkeypatch):
        h, k, profile = self.parts(level, profile, monkeypatch)
        return lambda: make_corner_system(h, k, profile)

    def measured(self, level, profile, monkeypatch):
        _measured_corner_system(*self.parts(level, profile, monkeypatch))


class _CornerOverlap(_CornerProduct):
    """make_corner_system's ||p_h p_k|| at support_tol, on a stack of two: at
    fiber 1, k = v v* / 2 with v at an angle level * 1e-10 off e2, while h = e11,
    so ||h k|| is half the overlap.  A NaN level puts a NaN into each support
    projection at fiber 1."""

    @staticmethod
    def parts(level, profile, monkeypatch):
        if np.isnan(level):

            def corrupted(es, profile):
                p = linalg._support_projection(es, profile)
                p[1, 0, 0] = np.nan
                return p

            monkeypatch.setattr(structures, "_support_projection", corrupted)
            level = 0.0
        s = 1e-10 * level
        v = np.array([s, np.sqrt(1.0 - s * s)])
        k = np.stack([np.diag([0.0, 0.5]), 0.5 * np.outer(v, v)])
        h, k = _unitary_conjugates(np.stack([np.diag([1.0, 0.0])] * 2), k)
        return h, k, profile


class _CornerLeak:
    """CornerQuad.check_supports at support_tol max(1, ||x||), on a stack of three:
    x12 = [[0, 2], [d, 0]] at fiber 2 leaks d = level * 2e-10 out of its corner,
    and ||x12|| = 2.  A NaN level puts a NaN into x12 at fiber 2."""

    error = SupportViolation

    @staticmethod
    def parts(level, profile):
        x12 = np.stack([np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)] * 3)
        x12[2, 1, 0] = 2e-10 * level if np.isfinite(level) else level
        h, k, x12 = _unitary_conjugates(np.stack([E11] * 3), np.stack([E22] * 3), x12)
        zero = np.zeros_like(x12)
        return make_corner_system(h, k, profile), CornerQuad(zero, x12, zero, zero)

    def run(self, level, profile, monkeypatch):
        corners, quad = self.parts(level, profile)
        return lambda: quad.check_supports(corners, profile)

    def measured(self, level, profile, monkeypatch):
        corners, quad = self.parts(level, profile)
        p_h, p_k = corners.p_h, corners.p_k
        pairs = {
            "x11": (p_h, quad.x11, p_h),
            "x12": (p_h, quad.x12, p_k),
            "x21": (p_k, quad.x21, p_h),
            "x22": (p_k, quad.x22, p_k),
        }
        for name, (pl, x, pr) in pairs.items():
            defect = op_norm(pl @ x @ pr - x, profile)
            bound = profile.support_tol * np.maximum(1.0, op_norm(x, profile))
            _gate(f"{name} leak outside its corner", defect, bound, SupportViolation)


class _InputResidual:
    """smoothing's input residual at delta = 0.05: h has a block (1 + d) e11 beside
    canonical_generators(3), where h^2 - h is d + d^2 = level * 0.05.  A NaN
    level is a NaN delta."""

    error = ResidualTooLarge

    @staticmethod
    def parts(level):
        delta = 0.05 if np.isfinite(level) else level
        d = 0.5 * (np.sqrt(1.0 + 0.2 * np.nan_to_num(level)) - 1.0)
        trip = canonical_generators(3).direct_sum(QcTriple((1.0 + d) * E11, Z2, Z2))
        return trip, delta

    def run(self, level, profile, monkeypatch):
        trip, delta = self.parts(level)
        return lambda: smoothing._checked_input(trip, profile, delta)

    def measured(self, level, profile, monkeypatch):
        trip, delta = self.parts(level)
        worst = max(low_level_residuals(trip, profile).values())
        _gate("input residual", worst, delta, ResidualTooLarge)


GATES = {
    "relation-residual": _RelationResidual(),
    "corner-sandwich": _CornerSandwich(),
    "clamped-ends": _ClampedEnds(),
    "unitary-ends": _UnitaryEnds(),
    "thresholded-residual": _ThresholdedResidual(),
    "thresholded-ends": _ThresholdedEnds(),
    "corner-product": _CornerProduct(),
    "corner-overlap": _CornerOverlap(),
    "corner-leak": _CornerLeak(),
    "input-residual": _InputResidual(),
}


@pytest.mark.parametrize("name", ["default", "jacobi"])
@pytest.mark.parametrize("gate", list(GATES))
def test_bounded_gate_decides_as_the_measured_gate(monkeypatch, gate, name):
    """Each bound-first gate, the boundary's and those of make_corner_system,
    CornerQuad.check_supports and smoothing's input residual, is decided from
    bounds: with its defect far inside the tolerance it takes no exact norm,
    and with the defect 0.1% below or above the tolerance it passes or raises
    as the gate that measures every norm does, with the same class and
    message.  A NaN fails closed."""
    case, profile = GATES[gate], PROFILES[name]
    norms = linalg._norms

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact norm was taken on a clear pass")

    run = case.run(0.0, profile, monkeypatch)
    monkeypatch.setattr(linalg, "_norms", forbidden)
    assert outcome(run) is None
    monkeypatch.setattr(linalg, "_norms", norms)
    assert outcome(lambda: case.measured(0.0, profile, monkeypatch)) is None
    for level in (1.0 - 1e-3, 1.0 + 1e-3):
        got = outcome(case.run(level, profile, monkeypatch))
        assert got == outcome(lambda: case.measured(level, profile, monkeypatch))
        assert got is None if level < 1.0 else got[0] is case.error, got
    nan = outcome(case.run(np.nan, profile, monkeypatch))
    assert nan is not None and nan[0] in (NoConvergence, case.error), nan
    assert nan == outcome(lambda: case.measured(np.nan, profile, monkeypatch))
