import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcwb import cli, linalg, relations
from qcwb.linalg import PROFILES, RealFunction, func_calc, op_norm
from qcwb.qc_model import QcTriple, canonical_generators, low_level_residuals
from qcwb.relations import (
    QC_RELATION_SOURCE,
    Adj,
    FnApp,
    NotHermitianAtFnApp,
    Prod,
    RelationSyntaxError,
    SamplerExhausted,
    Scale,
    Sum,
    ValidationError,
    Var,
    default_registry,
    delta_eps_sweep,
    evaluate,
    is_formally_self_adjoint,
    parse,
    parse_expression,
    perturbation_sampler,
    pretty,
    residuals,
)

from conftest import random_hermitian, random_matrix, random_unitary


def env_of(triple):
    return {"h": triple.h, "x": triple.x, "k": triple.k}


class TestParser:
    def test_smallest_relation(self):
        rs = parse("vars h k;\nrel r1: h*k = 0;")
        assert rs.labels() == ["r1"]
        label, body = rs.relations[0]
        assert body == Prod(Var("h"), Var("k"))

    def test_adjoint_token(self):
        rs = parse("vars h;\nrel r: h'*h - h = 0;")
        _, body = rs.relations[0]
        assert isinstance(body.left, Prod)
        assert body.left.left == Adj(Var("h"))

    def test_scalar_literal(self):
        rs = parse("vars h;\nrel r: (0,1)*h = 0;")
        _, body = rs.relations[0]
        assert body == Scale(1j, Var("h"))

    def test_scalar_folding_right(self):
        rs = parse("vars h;\nrel r: h*(2,0) = 0;")
        _, body = rs.relations[0]
        assert body == Scale(2 + 0j, Var("h"))

    def test_sym_sugar(self):
        rs = parse("vars h;\nrel r: sym(h) = 0;")
        _, body = rs.relations[0]
        assert body == Scale(0.5 + 0j, Sum(Var("h"), Adj(Var("h"))))

    def test_comment_and_whitespace_insensitive(self):
        rs = parse("vars h x k;  # generators\nrel a:h*k=0;rel b: x - x = 0;")
        assert rs.labels() == ["a", "b"]

    def test_syntax_error_carries_location(self):
        with pytest.raises(RelationSyntaxError) as err:
            parse("vars h;\nrel r: h + = 0;")
        assert err.value.line == 2

    def test_syntax_error_counts_the_lines_inside_a_scalar_literal(self):
        with pytest.raises(RelationSyntaxError) as err:
            parse("vars h;\nrel a: (1,\n0)*h\n + ?;\n")
        assert (err.value.line, err.value.column) == (4, 4)

    def test_end_of_input_sits_after_a_trailing_comment(self):
        # the missing ';' is reported where the input ends, past the comment
        with pytest.raises(RelationSyntaxError) as err:
            parse("vars h;\nrel r: h = 0 # c")
        assert (err.value.line, err.value.column) == (2, 17)

    def test_unexpected_character(self):
        with pytest.raises(RelationSyntaxError):
            parse("vars h;\nrel r: h @ h = 0;")

    def test_constant_term_rejected(self):
        with pytest.raises(ValidationError):
            parse("vars h;\nrel bad: h + (1,0) = 0;")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValidationError):
            parse("vars h;\nrel bad: h*z = 0;")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError):
            parse("vars h;\nrel a: h = 0;\nrel a: h - h = 0;")

    def test_unregistered_function_rejected(self):
        with pytest.raises(ValidationError):
            parse("vars h;\nrel bad: nosuch(sym(h)) = 0;")

    def test_function_requires_self_adjoint_argument(self):
        with pytest.raises(ValidationError):
            parse("vars x;\nrel bad: pos(x) = 0;")

    def test_function_on_sym_wrapped_argument(self):
        rs = parse("vars x;\nrel ok: pos(sym(x)) = 0;")
        _, body = rs.relations[0]
        assert isinstance(body, FnApp)

    def test_step_function_rejected_in_relations(self):
        with pytest.raises(ValidationError):
            parse("vars h;\nrel bad: step_half(sym(h)) = 0;")

    def test_qc_source_parses(self):
        rs = parse(QC_RELATION_SOURCE)
        assert rs.labels() == [
            "h_quadratic",
            "k_quadratic",
            "intertwiner",
            "orthogonality",
        ]


class TestSelfAdjointAnalysis:
    def test_var_is_not(self):
        assert not is_formally_self_adjoint(Var("h"))

    def test_sym_is(self):
        assert is_formally_self_adjoint(Scale(0.5 + 0j, Sum(Var("h"), Adj(Var("h")))))

    def test_product_with_adjoint_is(self):
        assert is_formally_self_adjoint(Prod(Adj(Var("x")), Var("x")))

    def test_scale_needs_real_factor(self):
        e = Scale(1j, Sum(Var("h"), Adj(Var("h"))))
        assert not is_formally_self_adjoint(e)


class TestRoundTrip:
    def test_structural_roundtrip_qc(self):
        rs = parse(QC_RELATION_SOURCE)
        again = parse(pretty(rs))
        assert again.relations == rs.relations
        assert again.variables == rs.variables

    def test_roundtrip_with_scalars_and_functions(self):
        src = "vars h x;\nrel a: (0.25,-1)*(h + h') - x'*x = 0;\nrel b: clamp01(sym(x)) = 0;"
        rs = parse(src)
        assert parse(pretty(rs)).relations == rs.relations


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**31))
def test_roundtrip_property_random_expressions(seed):
    gen = np.random.default_rng(seed)
    names = ("h", "x", "k")

    def rand_expr(depth):
        if depth == 0:
            return Var(names[gen.integers(0, 3)])
        kind = gen.integers(0, 5)
        if kind == 0:
            return Sum(rand_expr(depth - 1), rand_expr(depth - 1))
        if kind == 1:
            return Prod(rand_expr(depth - 1), rand_expr(depth - 1))
        if kind == 2:
            return Adj(rand_expr(depth - 1))
        if kind == 3:
            c = complex(round(gen.standard_normal(), 3), round(gen.standard_normal(), 3))
            return Scale(c if c != 0 else 1 + 0j, rand_expr(depth - 1))
        return Sum(rand_expr(depth - 1), Var(names[gen.integers(0, 3)]))

    def literal():
        re_, im = np.round(gen.standard_normal(2) * 10.0 ** gen.integers(-3, 4, size=2), 4)
        return f"({re_:g},{im:g})" + "'" * int(gen.integers(0, 2))

    def rand_source(depth):
        # valid relation text: every literal scales a non-constant factor
        if depth == 0:
            return names[gen.integers(0, 3)]
        a = rand_source(depth - 1)
        kind = gen.integers(0, 7)
        if kind == 0:
            return f"{a} {'+-'[gen.integers(0, 2)]} {rand_source(depth - 1)}"
        if kind == 1:
            return f"({a})*({rand_source(depth - 1)})"
        if kind == 2:
            return f"({a})'"
        if kind == 3:
            return f"{literal()}*({a})"
        if kind == 4:
            return f"({a})*{literal()}*{literal()}"
        if kind == 5:
            return f"sym({a})"
        return f"pos(sym({a}))"

    expr = rand_expr(3)
    from qcwb.relations import RelationSet

    rs = RelationSet(names, (("r", expr),), default_registry())
    # round-trip stability is stated for parsed trees (parsing normalizes
    # nested scalar factors), so one parse precedes the comparison
    first = parse(pretty(rs))
    assert parse(pretty(first)).relations == first.relations
    # and for parsed source text, with literals, primes and sym(...)
    first = parse(f"vars h x k;\nrel r: {rand_source(3)} = 0;\n")
    assert parse(pretty(first)).relations == first.relations


class TestEvaluate:
    def test_variable_lookup(self, rng):
        m = random_matrix(rng, 3)
        np.testing.assert_array_equal(evaluate(Var("h"), {"h": m}), m)

    def test_unbound_variable(self):
        from qcwb.relations import UnboundVariable

        with pytest.raises(UnboundVariable):
            evaluate(Var("h"), {})

    def test_clamp_on_hermitian(self):
        arg = np.diag([-0.5, 0.5, 1.5]).astype(complex)
        out = evaluate(FnApp("clamp01", Var("t")), {"t": arg})
        np.testing.assert_allclose(out, np.diag([0.0, 0.5, 1.0]), atol=1e-14)

    def test_fnapp_rejects_non_hermitian(self, rng):
        with pytest.raises(NotHermitianAtFnApp):
            evaluate(FnApp("pos", Var("t")), {"t": random_matrix(rng, 3)})

    def test_shared_argument_is_decomposed_once(self, rng, eigh_shapes):
        # sym(e) appears twice: one eigh, and the value a separate
        # func_calc per application gives, bit for bit
        env = {"h": random_matrix(rng, 4), "x": random_matrix(rng, 4)}
        inner = "x'*x - (h - h'*h)"
        e = parse_expression(f"pos(sym({inner})) - neg(sym({inner}))", ("h", "x"))
        out = evaluate(e, env)
        assert eigh_shapes == [(4, 4)]
        arg = evaluate(parse_expression(f"sym({inner})", ("h", "x")), env)
        expected = func_calc(arg, default_registry()["pos"]) - func_calc(arg, default_registry()["neg"])
        assert out.tobytes() == expected.tobytes()

    def test_naturality_under_conjugation(self, rng):
        # phi(eval(e, env)) == eval(e, phi o env) for a unitary conjugation
        rs = parse(QC_RELATION_SOURCE)
        trip = canonical_generators(3)
        u = random_unitary(rng, trip.dim)
        env = env_of(trip)
        conj_env = {k: u @ v @ u.conj().T for k, v in env.items()}
        for _, body in rs.relations:
            lhs = u @ evaluate(body, env) @ u.conj().T
            rhs = evaluate(body, conj_env)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-10

    def test_zero_assignment_evaluates_to_zero(self):
        rs = parse(QC_RELATION_SOURCE)
        z = np.zeros((4, 4), dtype=complex)
        res = residuals(rs, {"h": z, "x": z, "k": z})
        assert all(v == 0.0 for v in res.values())


class TestResidualOracleEquivalence:
    def test_matches_hand_coded(self):
        rs = parse(QC_RELATION_SOURCE)
        trip = canonical_generators(5)
        dsl = residuals(rs, env_of(trip))
        hand = low_level_residuals(trip)
        assert set(dsl) == set(hand)
        for label in hand:
            assert abs(dsl[label] - hand[label]) <= 1e-13

    def test_matches_on_random_triples(self, rng):
        rs = parse(QC_RELATION_SOURCE)
        for _ in range(10):
            env = {
                "h": random_matrix(rng, 4),
                "x": random_matrix(rng, 4),
                "k": random_matrix(rng, 4),
            }
            from qcwb.qc_model import QcTriple

            hand = low_level_residuals(QcTriple(env["h"], env["x"], env["k"]))
            dsl = residuals(rs, env)
            for label in hand:
                assert abs(dsl[label] - hand[label]) <= 1e-13

    def test_exact_generators_tiny_residuals(self):
        rs = parse(QC_RELATION_SOURCE)
        res = residuals(rs, env_of(canonical_generators(4)))
        assert max(res.values()) <= 1e-12


class TestSweep:
    def test_member_relation_bounded_by_delta(self, rng):
        rs = parse(QC_RELATION_SOURCE)
        member = rs.relations[0][1]
        sampler = perturbation_sampler(m=3)
        table = delta_eps_sweep(
            rs, member, sampler, [1e-2, 1e-3], samples_per_delta=3, rng=rng
        )
        for delta, observed in table:
            assert observed <= delta

    def test_consequence_trend(self, rng):
        rs = parse(QC_RELATION_SOURCE)
        consequence = parse_expression("x'*x - (h - h'*h)", rs.variables)
        sampler = perturbation_sampler(m=3)
        table = delta_eps_sweep(
            rs, consequence, sampler, [1e-2, 1e-3, 1e-4], samples_per_delta=4, rng=rng
        )
        values = [obs for _, obs in table]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))

    def test_negative_control_unconstrained(self, rng):
        # empty relation set: a norm-one sampler keeps ||h|| pinned at 1
        from qcwb.relations import RelationSet

        rs = RelationSet(("h",), tuple(), default_registry())
        s = parse_expression("h", ("h",))

        def sampler(delta, gen):
            m = random_hermitian(gen, 4)
            return {"h": m / np.linalg.norm(m, 2)}

        table = delta_eps_sweep(rs, s, sampler, [1e-2, 1e-5], samples_per_delta=3, rng=rng)
        for _, observed in table:
            assert observed == pytest.approx(1.0, abs=1e-9)

    def test_over_budget_sampler_detected(self, rng):
        rs = parse(QC_RELATION_SOURCE)
        member = rs.relations[0][1]

        def bad_sampler(delta, gen):
            trip = canonical_generators(2)
            return {"h": trip.h + 10 * delta * np.eye(4), "x": trip.x, "k": trip.k}

        # the gate measures the residual it rejects
        worst = max(residuals(rs, bad_sampler(1e-3, rng)).values())
        with pytest.raises(SamplerExhausted, match=f"sample residual = {worst:.3e} exceeds"):
            delta_eps_sweep(rs, member, bad_sampler, [1e-3], samples_per_delta=1, rng=rng)

    def test_bare_integer_is_a_lexical_error(self):
        # constants only exist as (re,im) literals; a bare digit fails to lex
        with pytest.raises(RelationSyntaxError):
            parse("vars h;\nrel bad: h + 1 = 0;")

    def test_sampler_evaluates_each_triple_once(self, rng, monkeypatch):
        # the bisection keeps the defects it formed instead of forming them again
        seen = []
        defects = relations._low_level_defects

        def recorded(trip):
            seen.append(trip.h.tobytes() + trip.x.tobytes() + trip.k.tobytes())
            return defects(trip)

        monkeypatch.setattr(relations, "_low_level_defects", recorded)
        sampler = perturbation_sampler(m=4)
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            for _ in range(3):
                seen.clear()
                sampler(delta, rng)
                assert seen and len(set(seen)) == len(seen), delta

    def test_sampler_norm_bounds_near_exactness(self, rng):
        # outputs that pass a tight residual budget satisfy the norm
        # consequences of the relations
        sampler = perturbation_sampler(m=3)
        env = sampler(1e-10, rng)
        assert np.linalg.norm(env["h"], 2) <= 1 + 1e-8
        assert np.linalg.norm(env["k"], 2) <= 1 + 1e-8
        assert np.linalg.norm(env["x"], 2) <= 0.5 + 1e-8


def reference_sampler(m, profile):
    """The sampler with every comparison made on exact residuals:
    max(low_level_residuals(...)) and a scale of three op_norm calls."""
    base = canonical_generators(m)

    def sample(delta, rng):
        n = base.dim

        def rnd():
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        dh = rnd()
        dh = 0.5 * (dh + dh.conj().T)
        dk = rnd()
        dk = 0.5 * (dk + dk.conj().T)
        dx = rnd()
        scale = max(op_norm(dh, profile), op_norm(dk, profile), op_norm(dx, profile))
        dh, dk, dx = dh / scale, dk / scale, dx / scale

        def worst(amp):
            trip = QcTriple(base.h + amp * dh, base.x + amp * dx, base.k + amp * dk)
            return max(low_level_residuals(trip, profile).values())

        lo, hi = 0.0, delta
        for _ in range(60):
            if worst(hi) > delta:
                break
            hi *= 2.0
            if hi > 4.0:
                break
        else:
            raise SamplerExhausted(delta)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if worst(mid) <= delta:
                lo = mid
            else:
                hi = mid
            if worst(lo) > 0.5 * delta:
                break
        return {"h": base.h + lo * dh, "x": base.x + lo * dx, "k": base.k + lo * dk}

    return sample


@pytest.mark.parametrize("name, grids", [("default", range(1, 17)), ("jacobi", range(1, 5))])
def test_sampler_matches_a_bisection_on_exact_residuals(name, grids):
    # deciding each comparison from bounds changes no environment by a bit
    profile = PROFILES[name]
    for m in grids:
        sample, reference = perturbation_sampler(m, profile), reference_sampler(m, profile)
        for i, delta in enumerate(10.0 ** -np.arange(2, 11)):
            env = sample(delta, np.random.default_rng([m, i]))
            ref = reference(delta, np.random.default_rng([m, i]))
            for var in "hxk":
                assert env[var].tobytes() == ref[var].tobytes(), (m, delta, var)


def test_sweep_decomposition_counts(monkeypatch):
    # one sweep of the benchmark's shape: at most two SVD fibers per sample,
    # its reported value and its sampler scale (a bisection and a residual
    # gate that measure every norm take 16), and one eigh per sample, since
    # pos and neg share the decomposition of sym(...).  The sampler bounds
    # each amplitude's defects once for both of its levels, delta and delta/2
    deltas, samples = [1e-2, 1e-3, 1e-4, 1e-5], 5
    rs = parse(QC_RELATION_SOURCE)
    consequence = parse_expression(
        "pos(sym(x'*x - (h - h'*h))) - neg(sym(x'*x - (h - h'*h)))", rs.variables
    )
    counts = {"svd": 0, "eigh": 0}

    def counted(attr):
        call = getattr(np.linalg, attr)

        def run(a, *args, **kwargs):
            counts[attr] += int(np.prod(np.shape(a)[:-2]))
            return call(a, *args, **kwargs)

        return run

    for attr in counts:
        monkeypatch.setattr(np.linalg, attr, counted(attr))
    bounds = linalg._gram_power_bounds
    counts["bounds"] = 0

    def counted_bounds(*args):
        counts["bounds"] += 1
        return bounds(*args)

    monkeypatch.setattr(linalg, "_gram_power_bounds", counted_bounds)
    sampler = perturbation_sampler(m=16)
    delta_eps_sweep(rs, consequence, sampler, deltas, samples, np.random.default_rng(1))
    runs = len(deltas) * samples
    assert counts["svd"] <= 2 * runs
    assert counts["eigh"] == runs
    assert counts["bounds"] == 80


def test_sweep_gate_fails_closed_on_a_nan_delta(rng):
    rs = parse(QC_RELATION_SOURCE)
    exact = env_of(canonical_generators(2))
    with pytest.raises(SamplerExhausted, match="sample residual"):
        delta_eps_sweep(rs, rs.relations[0][1], lambda d, g: exact, [float("nan")], 1, rng)


class TestRegistry:
    def test_stock_functions_vanish_at_zero(self):
        # _validate measures f(0) of every function a relation applies: each
        # stock function gives 0 there, so a relation may apply each one but
        # the step, which it rejects for its smoothness alone
        reg = default_registry()
        for name, fn in reg.items():
            assert fn(np.array([0.0]))[0] == 0.0, name
            if fn.smoothness == "step":
                with pytest.raises(ValidationError, match="not continuous"):
                    parse_expression(f"{name}(sym(h))", ("h",), reg)
            else:
                parse_expression(f"{name}(sym(h))", ("h",), reg)

    def test_cutoff_parameterization(self):
        # the stock cutoffs have width theta = 0.25: g+ is the identity from
        # theta/2 on, q+ is 1 from theta^2/4 on
        reg = default_registry()
        g, q = reg["gplus"], reg["qplus"]
        assert g(np.array([-1.0]))[0] == 0.0
        assert g(np.array([0.125]))[0] == 0.125
        assert 0.0 < g(np.array([0.0625]))[0] < 0.0625
        assert q(np.array([0.015625]))[0] == 1.0
        assert 0.0 < q(np.array([0.0078]))[0] < 1.0

    def test_function_not_vanishing_at_zero_rejected(self):
        # f(0) is measured: a registry function with f(0) = 1 would give a
        # relation that reads 1 on the zero assignment
        reg = dict(default_registry(), shift=RealFunction("shift", lambda t: t + 1.0))
        with pytest.raises(ValidationError, match="does not vanish at 0"):
            parse("vars h;\nrel r: shift(sym(h)) = 0;", reg)
        with pytest.raises(ValidationError, match="does not vanish at 0"):
            parse_expression("shift(h'*h)", ("h",), reg)
        parse("vars h;\nrel r: pos(sym(h)) = 0;", reg)


def test_jacobi_sweep_is_self_contained(tmp_path, monkeypatch):
    # relations --sweep under the jacobi profile draws its samples with that
    # profile too, so LAPACK is never reached
    rel = tmp_path / "qc.rel"
    rel.write_text(QC_RELATION_SOURCE)
    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps(
            {
                "consequence": "x*h - k*x",
                "deltas": [1e-2, 1e-3],
                "samples_per_delta": 2,
                "sampler_grid": 2,
            }
        )
    )
    out = tmp_path / "out.json"

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK reached under the jacobi profile")

    for attr in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, attr, forbidden)
    argv = ["relations", "--input", str(rel), "--sweep", str(spec), "--output", str(out)]
    assert cli.main([*argv, "--tolerance-profile", "jacobi"]) == 0
    table = json.loads(out.read_text())["result"]["sweep"]
    assert [d for d, _ in table] == [1e-2, 1e-3]
    assert all(v <= d for d, v in table)
