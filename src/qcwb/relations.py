"""A small language for matrix relation systems.

Relations are star-polynomials in noncommuting variables, optionally composed
with named continuous scalar functions, each declared equal to zero:

    vars h x k;
    rel h_quadratic:  h'*h + x'*x - h = 0;
    rel orthogonality: h*k = 0;

Tokens: identifiers ``[a-z][a-z0-9_]*``; postfix adjoint ``'``; operators
``+ - *``; complex scalar literals ``(re,im)``; function application
``name(expr)``; parentheses; ``#`` starts a line comment.  ``sym(e)`` is
sugar for ``(0.5,0)*(e + e')``.

Expressions must have no constant term (every relation vanishes on the zero
assignment), and a function may only be applied where the argument is
formally self-adjoint (syntactically fixed by the adjoint) and the function
is continuous with f(0) = 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    CLAMP01,
    DEFAULT_PROFILE,
    NEG,
    POS,
    SQRT0,
    STEP_HALF,
    EigenSystem,
    RealFunction,
    ToleranceProfile,
    _calc,
    _gate,
    _hermitian_defect,
    _max_norm_above,
    _max_op_norm,
    herm_eig,
    op_norm,
)
from .qc_model import QcTriple, _low_level_defects, canonical_generators
from .smoothing import make_gminus, make_gplus, make_qminus, make_qplus

__all__ = [
    "RelationSyntaxError",
    "ValidationError",
    "UnboundVariable",
    "NotHermitianAtFnApp",
    "SamplerExhausted",
    "Var",
    "Adj",
    "Sum",
    "Diff",
    "Prod",
    "Scale",
    "FnApp",
    "RelationSet",
    "default_registry",
    "is_formally_self_adjoint",
    "parse",
    "parse_expression",
    "pretty",
    "evaluate",
    "residuals",
    "delta_eps_sweep",
    "perturbation_sampler",
    "QC_RELATION_SOURCE",
]


class RelationSyntaxError(ValueError):
    """Lexical or grammatical error, carrying line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Structurally valid parse that breaks the relation discipline."""


class UnboundVariable(KeyError):
    """Evaluation environment lacks a declared variable."""


class NotHermitianAtFnApp(ValueError):
    """A function application received a non-Hermitian matrix argument."""


class SamplerExhausted(RuntimeError):
    """No sample meeting the residual budget was found within the trial limit."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Adj:
    arg: "Expr"


@dataclass(frozen=True)
class Sum:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Diff:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Prod:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Scale:
    factor: complex
    arg: "Expr"


@dataclass(frozen=True)
class FnApp:
    fname: str
    arg: "Expr"


Expr = Var | Adj | Sum | Diff | Prod | Scale | FnApp


@dataclass(frozen=True)
class _Lit:
    # parse-time only: scalar literal waiting to be folded into Scale
    value: complex


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def default_registry(theta: float = 0.25, ramp_width: float | None = None) -> dict[str, RealFunction]:
    """The stock scalar functions, smooth cutoffs instantiated at ``theta``."""
    if ramp_width is None:
        ramp_width = theta * theta / 4.0
    fns = [
        POS,
        NEG,
        CLAMP01,
        STEP_HALF,
        SQRT0,
        make_gplus(theta),
        make_gminus(theta),
        make_qplus(theta, ramp_width),
        make_qminus(theta, ramp_width),
    ]
    registry = {f.name: f for f in fns}
    for f in registry.values():
        if not f.unital_only and not _vanishes_at_zero(f):
            raise ValueError(f"registry function {f.name} must vanish at 0")
    return registry


def _vanishes_at_zero(f: RealFunction) -> bool:
    """f(0) = 0, measured: the discipline relations over non-unital inputs need."""
    return float(f(np.array([0.0]))[0]) == 0.0


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[a-z][a-z0-9_]*")
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SCALAR = re.compile(r"\(\s*(" + _NUMBER + r")\s*,\s*(" + _NUMBER + r")\s*\)")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int
    value: complex = 0j


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "(":
            m = _SCALAR.match(source, i)
            if m:
                value = complex(float(m.group(1)), float(m.group(2)))
                tokens.append(_Token("scalar", m.group(0), line, col, value))
                col += m.end() - i
                i = m.end()
                continue
            tokens.append(_Token("lparen", ch, line, col))
            i += 1
            col += 1
            continue
        simple = {
            ")": "rparen",
            "+": "plus",
            "-": "minus",
            "*": "star",
            "'": "prime",
            ";": "semi",
            ":": "colon",
            "=": "eq",
        }
        if ch in simple:
            tokens.append(_Token(simple[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "0" and not (i + 1 < n and (source[i + 1].isdigit() or source[i + 1] == ".")):
            tokens.append(_Token("zero", ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise RelationSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise RelationSyntaxError(
                f"expected {what}, found {tok.text!r}", tok.line, tok.column
            )
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise RelationSyntaxError(
                f"expected '{word}', found {tok.text!r}", tok.line, tok.column
            )
        return self.next()

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek().kind in ("plus", "minus"):
            op = self.next()
            rhs = self.term()
            node = Sum(node, rhs) if op.kind == "plus" else Diff(node, rhs)
        return node

    # term := factor ('*' factor)*
    def term(self):
        node = self.factor()
        while self.peek().kind == "star":
            self.next()
            node = Prod(node, self.factor())
        return node

    # factor := atom "'"*
    def factor(self):
        node = self.atom()
        while self.peek().kind == "prime":
            self.next()
            node = Adj(node)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "scalar":
            self.next()
            return _Lit(tok.value)
        if tok.kind == "zero":
            self.next()
            return _Lit(0j)
        if tok.kind == "lparen":
            self.next()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "lparen":
                self.next()
                arg = self.expr()
                self.expect("rparen", "')'")
                if tok.text == "sym":
                    return Scale(0.5 + 0j, Sum(arg, Adj(arg)))
                return FnApp(tok.text, arg)
            return Var(tok.text)
        raise RelationSyntaxError(
            f"expected an expression, found {tok.text!r}", tok.line, tok.column
        )


# ---------------------------------------------------------------------------
# literal folding and validation
# ---------------------------------------------------------------------------


def _fold(node):
    """Fold scalar literals into Scale nodes; bare constants are invalid."""
    if isinstance(node, (_Lit, Var)):
        return node
    if isinstance(node, Adj):
        inner = _fold(node.arg)
        if isinstance(inner, _Lit):
            return _Lit(np.conj(inner.value))
        return Adj(inner)
    if isinstance(node, (Sum, Diff)):
        cls = type(node)
        return cls(_fold(node.left), _fold(node.right))
    if isinstance(node, Prod):
        left = _fold(node.left)
        right = _fold(node.right)
        if isinstance(left, _Lit) and isinstance(right, _Lit):
            return _Lit(left.value * right.value)
        if isinstance(left, _Lit):
            return _make_scale(left.value, right)
        if isinstance(right, _Lit):
            return _make_scale(right.value, left)
        return Prod(left, right)
    if isinstance(node, Scale):
        inner = _fold(node.arg)
        if isinstance(inner, _Lit):
            return _Lit(node.factor * inner.value)
        return _make_scale(node.factor, inner)
    if isinstance(node, FnApp):
        inner = _fold(node.arg)
        if isinstance(inner, _Lit):
            raise ValidationError(
                f"function {node.fname} applied to a constant"
            )
        return FnApp(node.fname, inner)
    raise TypeError(f"unknown node {node!r}")


def _make_scale(factor: complex, arg):
    if isinstance(arg, Scale):
        return Scale(factor * arg.factor, arg.arg)
    return Scale(factor, arg)


def _normal(node, adjoint: bool = False) -> Expr:
    """Normal form of ``node``, or of its adjoint, with adjoints applied only to variables."""
    if isinstance(node, Var):
        return Adj(node) if adjoint else node
    if isinstance(node, Adj):
        return _normal(node.arg, not adjoint)
    if isinstance(node, (Sum, Diff)):
        return type(node)(_normal(node.left, adjoint), _normal(node.right, adjoint))
    if isinstance(node, Prod):
        left, right = (node.right, node.left) if adjoint else (node.left, node.right)
        return Prod(_normal(left, adjoint), _normal(right, adjoint))
    if isinstance(node, Scale):
        factor = np.conj(node.factor) if adjoint else node.factor
        return Scale(factor, _normal(node.arg, adjoint))
    if isinstance(node, FnApp):
        # registry functions are real-valued, so f(a)* = f(a*)
        return FnApp(node.fname, _normal(node.arg, adjoint))
    raise TypeError(f"unknown node {node!r}")


def _equal_mod_sum(a: Expr, b: Expr) -> bool:
    """Structural equality, allowing the two operands of a Sum to swap."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Adj):
        return _equal_mod_sum(a.arg, b.arg)
    if isinstance(a, Sum):
        return (
            _equal_mod_sum(a.left, b.left) and _equal_mod_sum(a.right, b.right)
        ) or (_equal_mod_sum(a.left, b.right) and _equal_mod_sum(a.right, b.left))
    if isinstance(a, (Diff, Prod)):
        return _equal_mod_sum(a.left, b.left) and _equal_mod_sum(a.right, b.right)
    if isinstance(a, Scale):
        return a.factor == b.factor and _equal_mod_sum(a.arg, b.arg)
    if isinstance(a, FnApp):
        return a.fname == b.fname and _equal_mod_sum(a.arg, b.arg)
    return False


def is_formally_self_adjoint(e: Expr) -> bool:
    return _equal_mod_sum(_normal(e), _normal(e, adjoint=True))


def _validate(e, variables: set[str], registry: Mapping[str, RealFunction]) -> None:
    if isinstance(e, _Lit):
        raise ValidationError("constant term (relations must vanish at zero)")
    if isinstance(e, Var):
        if e.name not in variables:
            raise ValidationError(f"variable {e.name!r} is not declared")
        return
    if isinstance(e, Adj):
        _validate(e.arg, variables, registry)
        return
    if isinstance(e, (Sum, Diff, Prod)):
        _validate(e.left, variables, registry)
        _validate(e.right, variables, registry)
        return
    if isinstance(e, Scale):
        _validate(e.arg, variables, registry)
        return
    if isinstance(e, FnApp):
        _validate(e.arg, variables, registry)
        fn = registry.get(e.fname)
        if fn is None:
            raise ValidationError(f"function {e.fname!r} is not registered")
        if is_formally_self_adjoint(e.arg):
            if fn.smoothness not in ("continuous", "smooth"):
                raise ValidationError(
                    f"function {e.fname!r} is not continuous; it cannot appear in relations"
                )
            if not _vanishes_at_zero(fn):
                raise ValidationError(
                    f"function {e.fname!r} does not vanish at 0"
                )
        else:
            # entire-function calculus on non-self-adjoint arguments is an
            # extension point; the stock registry has no analytic entries
            raise ValidationError(
                f"argument of {e.fname!r} is not formally self-adjoint; "
                "wrap it in sym(...) or supply an analytic function"
            )
        return
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# relation sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationSet:
    """Named relations over declared variables, tied to a function registry."""

    variables: tuple[str, ...]
    relations: tuple[tuple[str, Expr], ...]
    registry: Mapping[str, RealFunction]

    def labels(self) -> list[str]:
        return [label for label, _ in self.relations]


def parse(
    source: str, registry: Mapping[str, RealFunction] | None = None
) -> RelationSet:
    """Parse and validate a relation file."""
    if registry is None:
        registry = default_registry()
    tokens = _tokenize(source)
    p = _Parser(tokens)
    p.expect_keyword("vars")
    names: list[str] = []
    while p.peek().kind == "ident":
        names.append(p.next().text)
    if not names:
        tok = p.peek()
        raise RelationSyntaxError("'vars' declares at least one name", tok.line, tok.column)
    p.expect("semi", "';'")
    variables = set(names)
    relations: list[tuple[str, Expr]] = []
    seen: set[str] = set()
    while p.peek().kind != "eof":
        p.expect_keyword("rel")
        label_tok = p.expect("ident", "a relation label")
        if label_tok.text in seen:
            raise ValidationError(f"duplicate relation label {label_tok.text!r}")
        seen.add(label_tok.text)
        p.expect("colon", "':'")
        body = p.expr()
        p.expect("eq", "'='")
        p.expect("zero", "'0'")
        p.expect("semi", "';'")
        folded = _fold(body)
        _validate(folded, variables, registry)
        relations.append((label_tok.text, folded))
    return RelationSet(tuple(names), tuple(relations), registry)


def parse_expression(
    source: str,
    variables: tuple[str, ...],
    registry: Mapping[str, RealFunction] | None = None,
) -> Expr:
    """Parse a single expression in an existing variable context."""
    if registry is None:
        registry = default_registry()
    tokens = _tokenize(source)
    p = _Parser(tokens)
    body = p.expr()
    tok = p.peek()
    if tok.kind != "eof":
        raise RelationSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    folded = _fold(body)
    _validate(folded, set(variables), registry)
    return folded


# ---------------------------------------------------------------------------
# pretty printer
# ---------------------------------------------------------------------------

_PREC = {"sum": 1, "prod": 2, "unary": 3}


def _pretty(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Adj):
        return _pretty(e.arg, _PREC["unary"]) + "'"
    if isinstance(e, Sum):
        s = f"{_pretty(e.left, _PREC['sum'])} + {_pretty(e.right, _PREC['sum'] + 1)}"
        return f"({s})" if parent_prec > _PREC["sum"] else s
    if isinstance(e, Diff):
        s = f"{_pretty(e.left, _PREC['sum'])} - {_pretty(e.right, _PREC['sum'] + 1)}"
        return f"({s})" if parent_prec > _PREC["sum"] else s
    if isinstance(e, Prod):
        s = f"{_pretty(e.left, _PREC['prod'])}*{_pretty(e.right, _PREC['prod'] + 1)}"
        return f"({s})" if parent_prec > _PREC["prod"] else s
    if isinstance(e, Scale):
        lit = f"({e.factor.real:.17g},{e.factor.imag:.17g})"
        s = f"{lit}*{_pretty(e.arg, _PREC['prod'] + 1)}"
        return f"({s})" if parent_prec > _PREC["prod"] else s
    if isinstance(e, FnApp):
        return f"{e.fname}({_pretty(e.arg, 0)})"
    raise TypeError(f"unknown node {e!r}")


def pretty(rs: RelationSet) -> str:
    lines = ["vars " + " ".join(rs.variables) + ";"]
    for label, body in rs.relations:
        lines.append(f"rel {label}: {_pretty(body, 0)} = 0;")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    e: Expr,
    env: Mapping[str, np.ndarray],
    registry: Mapping[str, RealFunction] | None = None,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Evaluate an expression in an environment of matrices.

    A function argument that appears more than once, as in
    ``pos(sym(e)) - neg(sym(e))``, is built, checked for its Hermitian
    defect and decomposed once per call.
    """
    if registry is None:
        registry = default_registry()
    return _evaluate(e, env, registry, profile, {})


def _evaluate(e, env, registry, profile, spectra: dict[Expr, EigenSystem]) -> np.ndarray:
    """:func:`evaluate`, with the decompositions of the function arguments met so far."""
    if isinstance(e, Var):
        try:
            return np.asarray(env[e.name], dtype=complex)
        except KeyError as exc:
            raise UnboundVariable(e.name) from exc
    if isinstance(e, Adj):
        return _evaluate(e.arg, env, registry, profile, spectra).conj().T
    if isinstance(e, Sum):
        return _evaluate(e.left, env, registry, profile, spectra) + _evaluate(
            e.right, env, registry, profile, spectra
        )
    if isinstance(e, Diff):
        return _evaluate(e.left, env, registry, profile, spectra) - _evaluate(
            e.right, env, registry, profile, spectra
        )
    if isinstance(e, Prod):
        return _evaluate(e.left, env, registry, profile, spectra) @ _evaluate(
            e.right, env, registry, profile, spectra
        )
    if isinstance(e, Scale):
        return e.factor * _evaluate(e.arg, env, registry, profile, spectra)
    if isinstance(e, FnApp):
        es = spectra.get(e.arg)
        if es is None:
            arg = _evaluate(e.arg, env, registry, profile, spectra)
            defect, bound = _hermitian_defect(arg, 1e-8, profile)
            _gate(f"hermitian defect of the argument of {e.fname}", defect, bound, NotHermitianAtFnApp)
        fn = registry.get(e.fname)
        if fn is None:
            raise ValidationError(f"function {e.fname!r} is not registered")
        if es is None:
            es = spectra[e.arg] = herm_eig(arg, profile)
        return _calc(es, fn)
    raise TypeError(f"unknown node {e!r}")


def residuals(
    rs: RelationSet,
    env: Mapping[str, np.ndarray],
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> dict[str, float]:
    """Operator norm of every relation body under the environment."""
    return {
        label: op_norm(evaluate(body, env, rs.registry, profile), profile)
        for label, body in rs.relations
    }


# ---------------------------------------------------------------------------
# the qc relation file and the delta-epsilon sweep
# ---------------------------------------------------------------------------

QC_RELATION_SOURCE = """\
vars h x k;
rel h_quadratic: h'*h + x'*x - h = 0;
rel k_quadratic: k'*k + x*x' - k = 0;
rel intertwiner: k*x - x*h = 0;
rel orthogonality: h*k = 0;
"""


_MAX_BISECTION = 60


def perturbation_sampler(
    m: int = 4,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> Callable[[float, np.random.Generator], dict[str, np.ndarray]]:
    """Sampler producing environments within a target residual of exactness.

    Starts from the canonical block representation on an m-point grid, draws
    a random perturbation direction (Hermitian for h and k, arbitrary for x),
    and bisects its amplitude until the worst relation residual lands in
    (delta/2, delta].  A zero-amplitude fallback keeps the residual <= delta
    even for extreme targets.  Norms and residuals are taken under ``profile``.
    """
    base = canonical_generators(m)

    def sample(delta: float, rng: np.random.Generator) -> dict[str, np.ndarray]:
        n = base.dim

        def rnd():
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        dh = rnd()
        dh = 0.5 * (dh + dh.conj().T)
        dk = rnd()
        dk = 0.5 * (dk + dk.conj().T)
        dx = rnd()
        scale = _max_op_norm(np.stack([dh, dk, dx]), profile)
        dh, dk, dx = dh / scale, dk / scale, dx / scale

        def defects(amp: float) -> np.ndarray:
            trip = QcTriple(base.h + amp * dh, base.x + amp * dx, base.k + amp * dk)
            stack = np.empty((4, n, n), dtype=complex)
            for out, defect in zip(stack, _low_level_defects(trip)):
                out[...] = defect
            return stack

        @cache
        def exceeds(amp: float) -> tuple[bool, bool]:
            # whether max(low_level_residuals(...).values()) at amp exceeds
            # delta and delta / 2, mostly without an SVD; the defects are
            # formed once per amplitude and let go on return.  Above a
            # delta >= 0 is above delta / 2.
            stack = defects(amp)
            if _max_norm_above(stack, delta, profile):
                return True, delta >= 0.0 or _max_norm_above(stack, 0.5 * delta, profile)
            return False, _max_norm_above(stack, 0.5 * delta, profile)

        lo, hi = 0.0, delta
        for _ in range(_MAX_BISECTION):
            if exceeds(hi)[0]:
                break
            hi *= 2.0
            if hi > 4.0:
                break
        else:
            raise SamplerExhausted(f"no amplitude exceeds residual {delta:.3e}")
        for _ in range(_MAX_BISECTION):
            mid = 0.5 * (lo + hi)
            if not exceeds(mid)[0]:
                lo = mid
            else:
                hi = mid
            if exceeds(lo)[1]:
                break
        amp = lo
        return {
            "h": base.h + amp * dh,
            "x": base.x + amp * dx,
            "k": base.k + amp * dk,
        }

    return sample


def delta_eps_sweep(
    rs: RelationSet,
    consequence: Expr,
    sampler: Callable[[float, np.random.Generator], Mapping[str, np.ndarray]],
    deltas: list[float],
    samples_per_delta: int = 10,
    rng: np.random.Generator | None = None,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> list[tuple[float, float]]:
    """Observed maximum of a consequence relation as the residual budget shrinks.

    For each delta (given in descending order), draws environments whose
    relation residuals are at most delta and records the largest norm of the
    consequence expression.  Only the observed trend is reported; nothing is
    asserted about limits.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    table: list[tuple[float, float]] = []
    for delta in deltas:
        worst_s = 0.0
        for _ in range(samples_per_delta):
            env = sampler(delta, rng)
            _check_sample(rs, env, delta, profile)
            value = op_norm(evaluate(consequence, env, rs.registry, profile), profile)
            worst_s = max(worst_s, value)
        table.append((delta, worst_s))
    return table


def _check_sample(
    rs: RelationSet, env: Mapping[str, np.ndarray], delta: float, profile: ToleranceProfile
) -> None:
    """:class:`SamplerExhausted` unless every relation residual of ``env`` is
    at most ``delta``.  The largest is measured exactly only to report a
    failure, and a NaN ``delta`` fails."""
    if rs.relations:
        stack = np.stack([evaluate(body, env, rs.registry, profile) for _, body in rs.relations])
    else:
        stack = np.zeros((1, 0, 0))  # one empty matrix, of norm 0
    if _max_norm_above(stack, delta, profile) or math.isnan(delta):
        _gate("sample residual", _max_op_norm(stack, profile), delta, SamplerExhausted)
