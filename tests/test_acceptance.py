"""Acceptance suite: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time

import numpy as np
import pytest

from qcwb import checks
from qcwb.linalg import GapTooSmall, nearest_projection, op_norm
from qcwb.qc_model import QcTriple, canonical_generators, low_level_residuals, t_matrix
from qcwb.boundary import (
    IntervalModel,
    NoSpectralGap,
    boundary_unitary,
    builtin_scenario,
    exact_projection_lift,
    lift_T,
)
from qcwb.relations import (
    QC_RELATION_SOURCE,
    delta_eps_sweep,
    parse,
    parse_expression,
    perturbation_sampler,
    residuals,
)
from qcwb.smoothing import auto_theta
from qcwb.structures import (
    LinkingElement,
    homotopy_theta,
    linking_mul,
    random_corner_quad,
    rho,
)

from conftest import hermitian_with_spectrum


class _Stopwatch:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {self.label} ... {verdict} ({elapsed:.2f} s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget} s budget "
                f"({elapsed:.2f} s)"
            )
        return False


def _assert_pass(records):
    failing = [r for r in records if not r["pass"]]
    assert not failing, failing


def test_criterion_1_canonical_generator_exactness():
    with _Stopwatch(1, "canonical-generator exactness (m=32)", 1.0):
        _assert_pass(checks.canonical_exactness(32))
        t = t_matrix(canonical_generators(32))
        assert op_norm(t.conj().T - t) <= 1e-12


def test_criterion_2_presentation_equivalence():
    with _Stopwatch(2, "relation-presentation equivalence, 500 triples", 30.0):
        _assert_pass(checks.presentation_equivalence(np.random.default_rng(1207), 500))


def test_criterion_3_smoothing_theorem():
    with _Stopwatch(3, "smoothing at residual 1e-3, 50 seeds (m=8)", 60.0):
        sampler = perturbation_sampler(m=8)
        successes = 0
        for seed in range(50):
            rng = np.random.default_rng(9000 + seed)
            env = sampler(1e-3, rng)
            trip = QcTriple(env["h"], env["x"], env["k"])
            assert max(low_level_residuals(trip).values()) <= 1e-3
            try:
                params, out, report = auto_theta(trip, epsilon=0.1)
            except Exception:
                continue
            assert max(report.output_residuals.values()) <= 1e-10
            assert max(report.dist_h, report.dist_k, report.dist_x) <= 0.1
            assert report.t2_defect <= 0.1 / 2.0 + 1e-6
            successes += 1
        assert successes >= 49, f"only {successes}/50 seeds smoothed"


def test_criterion_4_near_projection_lemma():
    with _Stopwatch(4, "near-projection map on 200 seeded spectra", 10.0):
        rng = np.random.default_rng(404)
        for _ in range(200):
            low = rng.uniform(0.0, 0.2, rng.integers(1, 5))
            high = rng.uniform(0.8, 1.0, rng.integers(1, 5))
            spectrum = np.concatenate([low, high])
            p = hermitian_with_spectrum(rng, spectrum)
            out = nearest_projection(p)
            assert op_norm(out @ out - out) <= 1e-12
            assert op_norm(out - out.conj().T) <= 1e-12
            oracle = float(
                np.max(np.abs(np.where(spectrum >= 0.5, 1.0, 0.0) - spectrum))
            )
            assert op_norm(out - p) <= oracle + 1e-10
        # the failure boundary: eta >= 1/4 raises, eta < 1/4 does not
        with pytest.raises(GapTooSmall):
            nearest_projection(np.diag([0.0, 0.5, 1.0]).astype(complex))
        nearest_projection(np.diag([0.0, 0.4, 1.0]).astype(complex))


def test_criterion_5_boundary_map():
    with _Stopwatch(5, "boundary winding over the interval model", 30.0):
        def winding_of(name, m, scheme="linear"):
            rep = builtin_scenario(name)
            model = IntervalModel(grid_size=m)
            lift = lift_T(rep, model, scheme)
            result = boundary_unitary(lift)
            assert result.unitarity_defect <= 1e-8
            assert result.endpoint_defect <= 1e-8
            return result.winding

        w_one = winding_of("eval-at-one", 64)
        assert abs(w_one) == 1
        assert winding_of("zero", 64) == 0
        assert winding_of("doubled", 64) == 2 * w_one
        assert winding_of("eval-at-one", 128) == w_one
        assert winding_of("eval-at-one", 64, scheme="cosine") == w_one


def test_criterion_6_projection_lift_obstruction():
    with _Stopwatch(6, "projection lift vs the winding obstruction", 10.0):
        matched = builtin_scenario("matched-endpoints")
        model = IntervalModel(grid_size=64)
        grid_rep = exact_projection_lift(matched, model)
        assert grid_rep.max_residual <= 1e-10
        obstructed = builtin_scenario("eval-at-one")
        with pytest.raises(NoSpectralGap):
            exact_projection_lift(obstructed, model)


def test_criterion_7_corner_structure_suite():
    with _Stopwatch(7, "corner homotopy, character, ideal equality", 30.0):
        rng = np.random.default_rng(707)
        sys_corner = checks.corner_system(rng)
        n = sys_corner.dim
        _assert_pass(checks.corner_homotopy(sys_corner, rng))

        # exact endpoint formulas
        quad = random_corner_quad(sys_corner, rng)
        at0 = homotopy_theta(quad, 0.0)
        expected0 = np.zeros((2 * n, 2 * n), dtype=complex)
        expected0[:n, :n] = quad.sum()
        assert np.max(np.abs(at0 - expected0)) <= 1e-14
        at1 = homotopy_theta(quad, 1.0)
        expected1 = np.block([[quad.x11, quad.x12], [quad.x21, quad.x22]])
        assert np.max(np.abs(at1 - expected1)) <= 1e-14

        for _ in range(25):
            def elem():
                q = random_corner_quad(sys_corner, rng)
                return LinkingElement(
                    complex(rng.standard_normal(), rng.standard_normal()),
                    complex(rng.standard_normal(), rng.standard_normal()),
                    q.x11, q.x12, q.x21, q.x22,
                )

            e, f = elem(), elem()
            re, rf = rho(e), rho(f)
            ref = rho(linking_mul(e, f))
            assert abs(ref[0] - re[0] * rf[0]) <= 1e-12
            assert abs(ref[1] - re[1] * rf[1]) <= 1e-12

        _assert_pass(checks.ideal_equality(rng, 100))


def test_criterion_8_relation_dsl():
    with _Stopwatch(8, "relation DSL oracle equivalence and sweep", 60.0):
        rs = parse(QC_RELATION_SOURCE)
        trip = canonical_generators(4)
        env = {"h": trip.h, "x": trip.x, "k": trip.k}
        dsl = residuals(rs, env)
        hand = low_level_residuals(trip)
        assert set(dsl) == set(hand)
        for label in hand:
            assert abs(dsl[label] - hand[label]) <= 1e-13

        consequence = parse_expression("x'*x - (h - h'*h)", rs.variables)
        sampler = perturbation_sampler(m=4)
        table = delta_eps_sweep(
            rs,
            consequence,
            sampler,
            [1e-2, 1e-3, 1e-4, 1e-5],
            samples_per_delta=5,
            rng=np.random.default_rng(808),
        )
        values = [obs for _, obs in table]
        assert all(
            values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1)
        ), values
