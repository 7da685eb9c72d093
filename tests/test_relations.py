import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcwb import cli, linalg, relations
from qcwb.linalg import DEFAULT_PROFILE, PROFILES, func_calc, op_norm
from qcwb.qc_model import QcTriple, canonical_generators, low_level_residuals
from qcwb.relations import (
    FUNCTIONS,
    QC_RELATION_SOURCE,
    Adj,
    FnApp,
    NotHermitianAtFnApp,
    Prod,
    RelationSet,
    RelationSyntaxError,
    SamplerExhausted,
    Scale,
    Sum,
    ValidationError,
    Var,
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


def random_source(gen, depth, names=("h", "x", "k")):
    """Random valid relation text over ``names``: sums, products, adjoints,
    literals (each scaling a non-constant factor), sym(...) and pos(...)."""

    def literal():
        re_, im = np.round(gen.standard_normal(2) * 10.0 ** gen.integers(-3, 4, size=2), 4)
        return f"({re_:g},{im:g})" + "'" * int(gen.integers(0, 2))

    if depth == 0:
        return names[gen.integers(0, len(names))]
    a = random_source(gen, depth - 1, names)
    kind = gen.integers(0, 7)
    if kind == 0:
        return f"{a} {'+-'[gen.integers(0, 2)]} {random_source(gen, depth - 1, names)}"
    if kind == 1:
        return f"({a})*({random_source(gen, depth - 1, names)})"
    if kind == 2:
        return f"({a})'"
    if kind == 3:
        return f"{literal()}*({a})"
    if kind == 4:
        return f"({a})*{literal()}*{literal()}"
    if kind == 5:
        return f"sym({a})"
    return f"pos(sym({a}))"


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

    expr = rand_expr(3)
    rs = RelationSet(names, (("r", expr),))
    # round-trip stability is stated for parsed trees (parsing normalizes
    # nested scalar factors), so one parse precedes the comparison
    first = parse(pretty(rs))
    assert parse(pretty(first)).relations == first.relations
    # and for parsed source text, with literals, primes and sym(...)
    first = parse(f"vars h x k;\nrel r: {random_source(gen, 3)} = 0;\n")
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

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_fnapp_gates_its_argument_once_at_hermitian_tol(self, name):
        # one gate, at the profile's hermitian_tol: a defect above it is
        # NotHermitianAtFnApp, never the eigensolver's NotHermitian
        profile = PROFILES[name]
        tol = profile.hermitian_tol
        e = FnApp("pos", Var("h"))
        with pytest.raises(NotHermitianAtFnApp, match="argument of pos = 1.000e-09"):
            evaluate(e, {"h": np.array([[1.0, 1e-9], [0.0, -1.0]])}, profile=profile)
        with pytest.raises(NotHermitianAtFnApp):
            evaluate(e, {"h": np.array([[1.0, 2 * tol], [0.0, -1.0]])}, profile=profile)
        out = evaluate(e, {"h": np.array([[1.0, 0.5 * tol], [0.0, -1.0]])}, profile=profile)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-9)

    def test_shared_argument_is_decomposed_once(self, rng, eigh_shapes):
        # sym(e) appears twice: one eigh, and the value a separate
        # func_calc per application gives, bit for bit
        env = {"h": random_matrix(rng, 4), "x": random_matrix(rng, 4)}
        inner = "x'*x - (h - h'*h)"
        e = parse_expression(f"pos(sym({inner})) - neg(sym({inner}))", ("h", "x"))
        out = evaluate(e, env)
        assert eigh_shapes == [(4, 4)]
        arg = evaluate(parse_expression(f"sym({inner})", ("h", "x")), env)
        expected = func_calc(arg, FUNCTIONS["pos"]) - func_calc(arg, FUNCTIONS["neg"])
        assert out.tobytes() == expected.tobytes()

    def test_fnapp_gate_on_a_stack_names_the_fiber(self, rng):
        stack = np.stack([random_hermitian(rng, 3), random_matrix(rng, 3)])
        with pytest.raises(NotHermitianAtFnApp, match=r"argument of pos = \S+ at fiber 1 exceeds"):
            evaluate(FnApp("pos", Var("t")), {"t": stack})

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(["default", "jacobi"]))
def test_evaluate_on_a_stack_matches_each_fiber(seed, name):
    # a (fibers, n, n) stack gives each fiber the value it has alone, bit for bit
    gen = np.random.default_rng(seed)
    profile = PROFILES[name]
    body = parse(f"vars h x k;\nrel r: {random_source(gen, 3)} = 0;\n").relations[0][1]
    fibers, n = int(gen.integers(1, 5)), int(gen.integers(1, 5))
    shape = (fibers, n, n)
    env = {v: gen.standard_normal(shape) + 1j * gen.standard_normal(shape) for v in "hxk"}
    out = evaluate(body, env, profile)
    assert out.shape == (fibers, n, n)
    for i in range(fibers):
        alone = evaluate(body, {v: m[i] for v, m in env.items()}, profile)
        assert out[i].tobytes() == alone.tobytes()


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
        rs = RelationSet(("h",), tuple())
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
    # gate that measure every norm take 16), and one eigh fiber per sample,
    # since pos and neg share the decomposition of sym(...).  Each delta's
    # five samples are one stacked chunk: one residual gate, one eigh call
    # and one SVD call for the values.  The Gram-power bounds run 64 times:
    # 40 bisection probes (each amplitude bounded once for both of its
    # levels, delta and delta/2), 20 sampler scales and 4 chunk gates
    deltas, samples = [1e-2, 1e-3, 1e-4, 1e-5], 5
    rs = parse(QC_RELATION_SOURCE)
    consequence = parse_expression(
        "pos(sym(x'*x - (h - h'*h))) - neg(sym(x'*x - (h - h'*h)))", rs.variables
    )
    counts = {"svd": 0, "eigh": 0}
    calls = {"svd": 0, "eigh": 0}

    def counted(attr):
        call = getattr(np.linalg, attr)

        def run(a, *args, **kwargs):
            counts[attr] += int(np.prod(np.shape(a)[:-2]))
            calls[attr] += 1
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
    assert counts["bounds"] == 64
    assert calls == {"svd": 24, "eigh": 4}


def sequential_sweep(rs, consequence, sampler, deltas, samples_per_delta, rng, profile):
    """The sweep one sample at a time: each sample drawn, gated, evaluated and
    measured alone."""
    table = []
    for delta in deltas:
        worst_s = 0.0
        for _ in range(samples_per_delta):
            env = sampler(delta, rng)
            relations._check_sample(rs, env, delta, profile)
            worst_s = max(worst_s, op_norm(evaluate(consequence, env, profile), profile))
        table.append((delta, worst_s))
    return table


SHARED = "pos(sym(x'*x - (h - h'*h))) - neg(sym(x'*x - (h - h'*h)))"
SWEEP_CONSEQUENCES = [SHARED, "x'*x - (h - h'*h)", "h*k", "clamp01(sym(x)) + sqrt0(sym(h'*h))"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["default", "jacobi"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(SWEEP_CONSEQUENCES),
    st.booleans(),
)
def test_stacked_sweep_matches_the_sequential_loop(
    seed, name, grid, samples, chunk, consequence, empty
):
    # the budget is set to hold `chunk` samples, so that one delta's samples
    # make one chunk or several, of one sample or more
    profile = PROFILES[name]
    rs = RelationSet(("h", "x", "k"), ()) if empty else parse(QC_RELATION_SOURCE)
    consequence = parse_expression(consequence, ("h", "x", "k"))
    sampler = perturbation_sampler(grid, profile)
    deltas = [1e-2, 1e-3, 1e-5]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_BLOCK_BYTES", chunk * 16 * (2 * grid) ** 2)
        got = delta_eps_sweep(
            rs, consequence, sampler, deltas, samples, np.random.default_rng(seed), profile
        )
    want = sequential_sweep(
        rs, consequence, sampler, deltas, samples, np.random.default_rng(seed), profile
    )
    assert [(d, v.hex()) for d, v in got] == [(d, v.hex()) for d, v in want]


def test_sweep_chunks_stay_within_the_byte_budget(monkeypatch):
    # 200 samples of 32 x 32 at one delta: chunks of 16, none of whose stacks
    # exceeds the budget, and the sampler drawn once per sample, in order
    rs = parse(QC_RELATION_SOURCE)
    consequence = parse_expression(SHARED, rs.variables)
    sampler = perturbation_sampler(16)
    drawn, stack_bytes = [], []

    def recording(delta, gen):
        drawn.append(sampler(delta, gen))
        return drawn[-1]

    evaluate_ = relations.evaluate

    def measured(e, env, profile=DEFAULT_PROFILE):
        stack_bytes.append(max(np.asarray(m).nbytes for m in env.values()))
        return evaluate_(e, env, profile)

    monkeypatch.setattr(relations, "evaluate", measured)
    table = delta_eps_sweep(rs, consequence, recording, [1e-3], 200, np.random.default_rng(5))
    assert max(stack_bytes) <= linalg._BLOCK_BYTES
    # 13 chunks, each with four relation bodies and the consequence
    assert len(stack_bytes) == 13 * 5
    gen = np.random.default_rng(5)
    assert len(drawn) == 200
    for env in drawn:
        again = sampler(1e-3, gen)
        assert all(env[v].tobytes() == again[v].tobytes() for v in "hxk")
    replay = iter(drawn)
    monkeypatch.undo()
    want = sequential_sweep(
        rs, consequence, lambda d, g: next(replay), [1e-3], 200, None, DEFAULT_PROFILE
    )
    assert table == want


def test_sweep_gate_fails_closed_on_a_nan_delta(rng):
    rs = parse(QC_RELATION_SOURCE)
    exact = env_of(canonical_generators(2))
    with pytest.raises(SamplerExhausted, match="sample residual"):
        delta_eps_sweep(rs, rs.relations[0][1], lambda d, g: exact, [float("nan")], 1, rng)


class TestRegistry:
    def test_stock_functions_vanish_at_zero(self):
        # every function of the table gives 0 at 0, as relations over
        # non-unital algebras need, so a relation may apply each one but the
        # step, which it rejects for its smoothness alone
        for name, fn in FUNCTIONS.items():
            assert fn(np.array([0.0]))[0] == 0.0, name
            if fn.smoothness == "step":
                with pytest.raises(ValidationError, match="not continuous"):
                    parse_expression(f"{name}(sym(h))", ("h",))
            else:
                parse_expression(f"{name}(sym(h))", ("h",))

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            FUNCTIONS["shift"] = FUNCTIONS["pos"]

    def test_cutoff_parameterization(self):
        # the stock cutoffs have width theta = 0.25: g+ is the identity from
        # theta/2 on, q+ is 1 from theta^2/4 on
        g, q = FUNCTIONS["gplus"], FUNCTIONS["qplus"]
        assert g(np.array([-1.0]))[0] == 0.0
        assert g(np.array([0.125]))[0] == 0.125
        assert 0.0 < g(np.array([0.0625]))[0] < 0.0625
        assert q(np.array([0.015625]))[0] == 1.0
        assert 0.0 < q(np.array([0.0078]))[0] < 1.0


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
