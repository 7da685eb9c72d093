"""Every certificate in ``src/qcwb`` compares its defect with its bound through ``linalg._gate``.

Two AST checks keep it that way: the fiber-naming internals of the gate stay
in ``linalg``, and no certificate exception is raised straight from an ``if``
that tests a comparison, apart from the checks listed in ``ALLOWED``, which do
not compare a measured defect with a stated bound.  A third keeps every
failed winding certificate propagating: no function catches
``WindingIllConditioned`` or its subclasses, apart from the CLI's handler
that reports it with its exit code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcwb"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {p.name: ast.parse(p.read_text()) for p in MODULES}

GATE_INTERNALS = {"_first_fiber", "_at_fiber"}

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
