"""Every certificate in ``src/qcwb`` compares its defect with its bound through ``linalg._gate``.

Two AST checks keep it that way: the norm and gate internals of ``linalg``
stay in ``linalg``, and no certificate exception is raised straight from an ``if``
that tests a comparison, apart from the checks listed in ``ALLOWED``, which do
not compare a measured defect with a stated bound.  A third keeps every gate
on a norm bound-first: outside ``linalg``, no ``_gate`` call takes an
``op_norm(...)`` or ``_max_op_norm(...)`` call among its arguments, and no
``if`` test calls ``_max_norm_above``, apart from the sites listed in
``HAND_GATED``; the others go through ``linalg._norm_gate``, so a run on
data that passes takes no exact norm, which one test checks; the Hermitian
precondition's callers are checked against the gate that measures both
norms.  A fourth keeps
every failed winding certificate propagating: no function catches
``WindingIllConditioned`` or its subclasses, apart from the CLI's handler
that reports it with its exit code.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcwb import linalg
from qcwb.boundary import (
    IntervalModel,
    builtin_scenario,
    homotopy_collapse,
    lift_T,
    run_scenario,
)
from qcwb.qc_model import QcTriple, _weak_defects, canonical_generators, factor_x
from qcwb.relations import FnApp, NotHermitianAtFnApp, Var, evaluate
from qcwb.smoothing import SmoothingParams, auto_theta, smooth_representation
from qcwb.structures import homotopy_theta, make_corner_system, random_corner_quad

from conftest import outcome, perturbed_generators, random_hermitian

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcwb"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {p.name: ast.parse(p.read_text()) for p in MODULES}

# linalg's norm and gate internals, which no other module reaches into
GATE_INTERNALS = {"_norms", "_parts_top", "_gram_power_bounds", "_powers_of_two", "_not_finite"}

# exceptions for malformed input, not for a failed certificate
INPUT_ERRORS = {
    "DimMismatch",
    "FormatError",
    "RelationSyntaxError",
    "ValidationError",
    "UnboundVariable",
}

# (module, function, exception) raised from a comparison on purpose
ALLOWED = {
    # convergence: a norm past the float range, not a defect against a bound
    ("linalg.py", "_norms", "NoConvergence"),
    # determinant: a vanishing determinant has no phase to bound
    ("boundary.py", "winding_number", "WindingIllConditioned"),
    # spectral window: eigenvalues within _GAP of 1/2, not a defect
    ("boundary.py", "exact_projection_lift", "NoSpectralGap"),
}


# the bases each class the package defines names
BASES = {
    n.name: {b.id for b in n.bases if isinstance(b, ast.Name)}
    for tree in TREES.values()
    for n in ast.walk(tree)
    if isinstance(n, ast.ClassDef)
}


def _subclasses(roots: set[str]) -> set[str]:
    """Every class the package defines that derives from one of ``roots``,
    through any chain of bases."""
    found: set[str] = set()
    grew = True
    while grew:
        grown = found | {name for name, bases in BASES.items() if bases & (roots | found)}
        grew, found = grown != found, grown
    return found


CERTIFICATE_ERRORS = _subclasses({"Exception", "ValueError", "RuntimeError", "KeyError"}) - INPUT_ERRORS


def _has_compare(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Compare) for n in ast.walk(node))


def _raised_class(stmt: ast.Raise) -> str | None:
    exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _raises_from_comparisons(tree: ast.Module) -> set[tuple[str, str, int]]:
    """(function, exception, line) of each certificate exception raised directly
    under an ``if`` whose test holds a comparison, or a name the function
    assigns from one (``fails = ~(x <= tol)``; ``if fails.any(): raise``)."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tainted = {
            t.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _has_compare(node.value)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.If):
                continue
            names = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
            if not (_has_compare(node.test) or names & tainted):
                continue
            for stmt in node.body + node.orelse:
                if isinstance(stmt, ast.Raise) and _raised_class(stmt) in CERTIFICATE_ERRORS:
                    found.add((func.name, _raised_class(stmt), stmt.lineno))
    return found


def test_certificate_errors_are_found():
    assert {"NotHermitian", "GapTooSmall", "SupportViolation", "LiftResidual"} <= CERTIFICATE_ERRORS
    assert not CERTIFICATE_ERRORS & INPUT_ERRORS


@pytest.mark.parametrize("name", [n for n in TREES if n != "linalg.py"])
def test_gate_internals_stay_in_linalg(name):
    used = {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(TREES[name])
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }
    assert not used & GATE_INTERNALS, f"{name} uses {sorted(used & GATE_INTERNALS)}"


def test_every_gate_internal_exists():
    # a name linalg does not define would check nothing
    defined = {n.name for n in ast.walk(TREES["linalg.py"]) if isinstance(n, ast.FunctionDef)}
    assert GATE_INTERNALS <= defined, f"no such linalg function: {sorted(GATE_INTERNALS - defined)}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_certificates_go_through_the_gate(name):
    hand_written = {
        (func, exc, line)
        for func, exc, line in _raises_from_comparisons(TREES[name])
        if (name, func, exc) not in ALLOWED
    }
    assert not hand_written, (
        f"{name} raises a certificate error from a hand-written comparison "
        f"(function, exception, line): {sorted(hand_written)}; use linalg._gate"
    )


def test_every_allowed_site_exists():
    # a stale entry would let a new hand-written check in under its name
    seen = {
        (name, func, exc)
        for name, tree in TREES.items()
        for func, exc, _ in _raises_from_comparisons(tree)
    }
    assert ALLOWED <= seen, f"allowlist entries with no such site: {sorted(ALLOWED - seen)}"


# (module, function) that gate a norm by hand on purpose, beside linalg._norm_gate
HAND_GATED = {
    # one _max_norm_above call gates a whole stacked chunk of samples; a gate
    # per relation takes more Gram-power passes than the sweep's counts allow,
    # and its message would name a fiber of the chunk
    ("relations.py", "_check_sample"),
    # the spectral residuals are exact per-fiber values, not norms: as 1 x 1
    # defects a NaN spectrum would raise NoConvergence, not ValueError
    ("qc_model.py", "factor_x"),
}

NORM_CALLS = {"op_norm", "_max_op_norm"}


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _calls(node: ast.AST, names: set[str]) -> bool:
    return any(isinstance(n, ast.Call) and _callee(n) in names for n in ast.walk(node))


def _hand_gated(tree: ast.Module) -> set[tuple[str, int]]:
    """(function, line) of each gate that is not bound-first: a ``_gate`` call
    with an ``op_norm(...)`` or ``_max_op_norm(...)`` call among its arguments,
    or an ``if`` whose test calls ``_max_norm_above``.  Either counts too when
    it reads a name the function assigns from such a call (``defect =
    op_norm(d)``; ``_gate(name, defect, ...)``)."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue

        def assigned(calls: set[str]) -> set[str]:
            return {
                t.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _calls(node.value, calls)
                for t in node.targets
                if isinstance(t, ast.Name)
            }

        def reads(node: ast.AST, calls: set[str], names: set[str]) -> bool:
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            return _calls(node, calls) or bool(read & names)

        measured, decided = assigned(NORM_CALLS), assigned({"_max_norm_above"})
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _callee(node) == "_gate":
                args = [*node.args, *(k.value for k in node.keywords)]
                if any(reads(a, NORM_CALLS, measured) for a in args):
                    found.add((func.name, node.lineno))
            elif isinstance(node, ast.If) and reads(node.test, {"_max_norm_above"}, decided):
                found.add((func.name, node.lineno))
    return found


def test_hand_gated_sites_are_found():
    code = ast.parse(
        "def measured(m, x):\n"
        "    _gate('a', op_norm(m), 1.0, E)\n"
        "    _gate('b', m, bound=1e-10 * np.maximum(1.0, linalg._max_op_norm(x)), error=E)\n"
        "def paired(m):\n"
        "    if _max_norm_above(m, [1.0])[0]:\n        _gate('c', 2.0, 1.0, E)\n"
        "def tainted(m):\n"
        "    above = _max_norm_above(m, [1.0])\n"
        "    if above[0]:\n        _gate('d', 2.0, 1.0, E)\n"
        "def named(m):\n"
        "    defect = op_norm(m)\n"
        "    _gate('e', defect, 1.0, E)\n"
        "def bound_first(m):\n"
        "    _norm_gate('f', m, 1.0, E, profile)\n"
    )
    expected = {("measured", 2), ("measured", 3), ("paired", 5), ("tainted", 9), ("named", 13)}
    assert _hand_gated(code) == expected


@pytest.mark.parametrize("name", [n for n in TREES if n != "linalg.py"])
def test_norm_gates_are_bound_first(name):
    hand = {(func, line) for func, line in _hand_gated(TREES[name]) if (name, func) not in HAND_GATED}
    assert not hand, (
        f"{name} gates a norm by hand (function, line): {sorted(hand)}; use linalg._norm_gate"
    )


def test_every_hand_gated_site_exists():
    seen = {(name, func) for name, tree in TREES.items() for func, _ in _hand_gated(tree)}
    assert HAND_GATED <= seen, f"allowlist entries with no such site: {sorted(HAND_GATED - seen)}"


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_passing_data_takes_no_exact_norm(name, monkeypatch):
    # every gate these runs pass through is decided from bounds, so with the
    # exact norm switched off each one still passes (factor_x and
    # exact_projection_lift have their own such tests)
    profile, trip = linalg.PROFILES[name], canonical_generators(4)
    noisy, _ = perturbed_generators(np.random.default_rng(8), m=8, size=1e-4)
    quad = random_corner_quad(make_corner_system(trip.h, trip.k, profile), np.random.default_rng(0))

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact norm was taken on a pass")

    monkeypatch.setattr(linalg, "_norms", forbidden)
    assert run_scenario("doubled", profile=profile)[0].winding == 2
    lift = lift_T(builtin_scenario("doubled"), IntervalModel(64), profile=profile)
    assert homotopy_collapse(lift)[1:] == (2, 2)
    corners = make_corner_system(trip.h, trip.k, profile)
    for s in (0.0, 0.5, 1.0):
        homotopy_theta(quad, s, corners, profile)
    assert auto_theta(noisy, epsilon=0.1, profile=profile)[2].success
    params = SmoothingParams(epsilon=0.1, theta=0.05, profile=profile)
    assert np.isfinite(params.delta)
    assert smooth_representation(noisy, params)[1].success


# each caller of the Hermitian gate: how it runs on a, the quantity it names
# and the class it raises
HERMITIAN_CALLERS = {
    "herm_eig": (linalg.herm_eig, "hermitian defect", linalg.NotHermitian),
    "weak h": (
        lambda a, p: _weak_defects(QcTriple(a, np.zeros_like(a), np.zeros_like(a)), p),
        "hermitian defect of h",
        linalg.NotHermitian,
    ),
    "weak k": (
        lambda a, p: _weak_defects(QcTriple(np.zeros_like(a), np.zeros_like(a), a), p),
        "hermitian defect of k",
        linalg.NotHermitian,
    ),
    "fnapp": (
        lambda a, p: evaluate(FnApp("pos", Var("h")), {"h": a}, p),
        "hermitian defect of the argument of pos",
        NotHermitianAtFnApp,
    ),
}


@pytest.mark.parametrize("name", ["default", "jacobi"])
def test_hermitian_gate_settles_a_frobenius_excess_from_bounds(name, monkeypatch):
    # a - a* has operator norm 0.9e-10, below hermitian_tol = 1e-10, but
    # Frobenius norm 1.27e-10 above it; with ||a|| = 1 the Gram-power bounds
    # settle the gate, and no caller takes an exact norm
    profile, trip = linalg.PROFILES[name], canonical_generators(2)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = skew[1, 0] = 0.45e-10j
    a = np.diag([1.0, 0.5, 0.25, 0.0]) + skew

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact norm was taken on a pass")

    monkeypatch.setattr(linalg, "_norms", forbidden)
    linalg.herm_eig(a, profile)
    evaluate(FnApp("pos", Var("h")), {"h": a}, profile)
    factor_x(QcTriple(trip.h + skew, trip.x, trip.k), profile)


@settings(max_examples=140, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(HERMITIAN_CALLERS)),
    st.sampled_from(["default", "strict", "jacobi"]),
    st.integers(min_value=1, max_value=8),
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from([0.999, 1.001]),
                st.floats(min_value=-1.0, max_value=1.0).map(lambda d: 2.0 * 10.0**d),
            ),
            st.floats(min_value=-3.0, max_value=6.0),
        ),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
def test_hermitian_gate_decides_as_the_measured_gate_property(caller, name, n, fibers, stacked, seed):
    # each fiber is h plus a skew part whose a - a* has norm level * tol *
    # max(1, ||h||), with ||h|| from 1e-3 to 1e6 and level 0.999 or 1.001,
    # or from 0.2 to 20 (a skew part 0.1 to 10 times the bound); each caller
    # passes or raises as the gate that measures both norms, with its class
    # and message
    run, quantity, error = HERMITIAN_CALLERS[caller]
    profile, gen = linalg.PROFILES[name], np.random.default_rng(seed)
    tol = profile.hermitian_tol
    stack = []
    for level, log_norm in fibers:
        h = random_hermitian(gen, n)
        h *= 10.0**log_norm / np.linalg.norm(h, 2)
        skew = 1j * random_hermitian(gen, n)
        skew /= np.linalg.norm(skew, 2)
        stack.append(h + 0.5 * level * tol * max(1.0, 10.0**log_norm) * skew)
    a = np.stack(stack) if stacked or len(stack) > 1 else stack[0]
    defect = linalg.op_norm(a - linalg.adjoint(a), profile)
    bound = tol * np.maximum(1.0, linalg.op_norm(a, profile))
    got = outcome(lambda: run(a, profile))
    assert got == outcome(lambda: linalg._gate(quantity, defect, bound, error))
    assert got is None or got[0] is error, got


@pytest.mark.parametrize("name", ["default", "jacobi"])
@pytest.mark.parametrize("caller", sorted(HERMITIAN_CALLERS))
@pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
def test_hermitian_gate_fails_a_fiber_that_is_not_finite(bad, caller, name):
    # fibers 1 and 2 of three hold a NaN, an inf, or parts whose a - a*
    # overflows; the gate fails closed and names fiber 1
    run, quantity, error = HERMITIAN_CALLERS[caller]
    a = np.stack([np.eye(3, dtype=complex)] * 3)
    if bad == "overflow":
        a[1:, 0, 1], a[1:, 1, 0] = 1.5e308, -1.5e308
    else:
        a[1:, 2, 2] = float(bad)
    with pytest.raises(error, match=f"^{quantity} = nan at fiber 1 exceeds the bound"):
        run(a, linalg.PROFILES[name])


# the handler that reports every failure with its exit code, and returns it
CATCH_ALLOWED = {("cli.py", "main")}


# WindingIllConditioned, its subclasses and its bases: a handler naming any
# of them would swallow a failed winding certificate
WINDING_CATCHERS = (
    {"WindingIllConditioned", "Exception", "BaseException"}
    | _subclasses({"WindingIllConditioned"})
    | BASES["WindingIllConditioned"]
)


def _catches_winding(tree: ast.Module) -> set[tuple[str, int]]:
    """(function, line) of each handler that could catch a WindingIllConditioned:
    a bare ``except:`` or one naming a class in ``WINDING_CATCHERS``."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in caught}
            if node.type is None or names & WINDING_CATCHERS:
                found.add((func.name, node.lineno))
    return found


def test_winding_catchers_are_found():
    assert {"WindingIllConditioned", "PhaseStepTooLarge", "WindingIndexMismatch"} <= WINDING_CATCHERS
    # a refinement loop that retries on a failed certificate is caught
    retry = ast.parse(
        "def run():\n"
        "    try:\n        certify()\n"
        "    except (PhaseStepTooLarge, WindingIndexMismatch):\n        refine()\n"
    )
    assert _catches_winding(retry) == {("run", 4)}


@pytest.mark.parametrize("name", sorted(TREES))
def test_winding_certificates_fail_closed(name):
    caught = {
        (func, line) for func, line in _catches_winding(TREES[name]) if (name, func) not in CATCH_ALLOWED
    }
    assert not caught, (
        f"{name} catches a winding certificate failure (function, line): {sorted(caught)}"
    )


def test_every_allowed_catch_exists():
    seen = {(name, func) for name, tree in TREES.items() for func, _ in _catches_winding(tree)}
    assert CATCH_ALLOWED <= seen
