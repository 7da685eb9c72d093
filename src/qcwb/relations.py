"""A small language for matrix relation systems.

Relations are star-polynomials in noncommuting variables, optionally composed
with named continuous scalar functions, each declared equal to zero:

    vars h x k;
    rel h_quadratic:  h'*h + x'*x - h = 0;
    rel orthogonality: h*k = 0;

Tokens: identifiers ``[a-z][a-z0-9_]*``; postfix adjoint ``'``; operators
``+ - *``; complex scalar literals ``(re,im)``; the bare zero ``0``; function
application ``name(expr)``; parentheses; ``: = ;``; ``#`` starts a line
comment.  ``sym(e)`` is sugar for ``(0.5,0)*(e + e')``.  Literals are folded
into :class:`Scale` factors as the parser builds each node.

Expressions must have no constant term (every relation vanishes on the zero
assignment), and a function may only be applied where the argument is
formally self-adjoint (syntactically fixed by the adjoint) and the function
is continuous.  The functions are the fixed table :data:`FUNCTIONS`, each
with f(0) = 0, as relations over non-unital algebras need.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
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
    _as_square,
    _calc,
    _eigh_raw,
    _gate,
    _hermitian_defect,
    _max_norm_above,
    _max_op_norm,
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
    "FUNCTIONS",
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

    def __str__(self) -> str:
        # a KeyError would print only the repr of the name
        return f"environment lacks variable {self.args[0]!r}"


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


# ---------------------------------------------------------------------------
# the scalar functions a relation may apply
# ---------------------------------------------------------------------------

# read-only; every entry has f(0) = 0, and the smooth cutoffs have width 0.25
_CUTOFFS = [make(0.25) for make in (make_gplus, make_gminus, make_qplus, make_qminus)]
FUNCTIONS: Mapping[str, RealFunction] = MappingProxyType(
    {f.name: f for f in (POS, NEG, CLAMP01, STEP_HALF, SQRT0, *_CUTOFFS)}
)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_PUNCTUATION = {
    "(": "lparen",
    ")": "rparen",
    "+": "plus",
    "-": "minus",
    "*": "star",
    "'": "prime",
    ";": "semi",
    ":": "colon",
    "=": "eq",
}
# one alternative per token kind, tried in this order: a scalar literal
# before a bare '(', and '0' only where no digit or '.' follows
_TOKEN = re.compile(
    "|".join(
        [
            r"(?P<space>(?:[ \t\r\n]|#[^\n]*)+)",
            rf"(?P<scalar>\(\s*(?P<re>{_NUMBER})\s*,\s*(?P<im>{_NUMBER})\s*\))",
            *(f"(?P<{kind}>{re.escape(ch)})" for ch, kind in _PUNCTUATION.items()),
            r"(?P<zero>0(?![\d.]))",
            r"(?P<ident>[a-z][a-z0-9_]*)",
        ]
    )
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int
    value: complex = 0j  # of a scalar or zero token


def _syntax_error(message: str, source: str, offset: int) -> RelationSyntaxError:
    """The error at ``offset`` in ``source``, located by line and column."""
    line = source.count("\n", 0, offset) + 1
    return RelationSyntaxError(message, line, offset - source.rfind("\n", 0, offset))


def _tokenize(source: str) -> list[_Token]:
    """The tokens of ``source``, with the offsets where they start, ending in ``eof``."""
    tokens: list[_Token] = []
    i = 0
    while i < len(source):
        m = _TOKEN.match(source, i)
        # str.isdigit, unlike \d, also takes superscript and other digits
        if m is None or (m.lastgroup == "zero" and source[i + 1 : i + 2].isdigit()):
            raise _syntax_error(f"unexpected character {source[i]!r}", source, i)
        if m.lastgroup == "scalar":
            tokens.append(_Token("scalar", m[0], i, complex(float(m["re"]), float(m["im"]))))
        elif m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m[0], i))
        i = m.end()
    tokens.append(_Token("eof", "", i))
    return tokens


# ---------------------------------------------------------------------------
# parser (recursive descent), folding scalar literals as it builds nodes
# ---------------------------------------------------------------------------
#
# A scalar literal is a bare complex number until it is folded into a Scale;
# one left in a parsed body is a constant term, which validation rejects.


def _times(left, right):
    """``left*right`` with its scalar literals folded: two literals multiply,
    and a literal on either side scales the other, merging with a Scale
    there (the literal first in the product)."""
    if isinstance(left, complex) and isinstance(right, complex):
        return left * right
    if isinstance(right, complex):
        left, right = right, left
    if not isinstance(left, complex):
        return Prod(left, right)
    if isinstance(right, Scale):
        return Scale(left * right.factor, right.arg)
    return Scale(left, right)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        # the first function met with a constant argument: reported once
        # the body has parsed, ahead of every other validation error
        self.constant_fn: str | None = None

    def error(self, message: str, tok: _Token) -> RelationSyntaxError:
        return _syntax_error(message, self.source, tok.offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str, text: str | None = None) -> _Token:
        """The next token, which must be of ``kind`` (and read ``text``, if given)."""
        tok = self.peek()
        if tok.kind != kind or text not in (None, tok.text):
            raise self.error(f"expected {what}, found {tok.text!r}", tok)
        return self.next()

    def validated(self, body, variables: set[str]) -> Expr:
        """``body``, once it passes validation: a function met with a
        constant argument fails first, then :func:`_validate` runs."""
        if self.constant_fn is not None:
            raise ValidationError(f"function {self.constant_fn} applied to a constant")
        _validate(body, variables)
        return body

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
            node = _times(node, self.factor())
        return node

    # factor := atom "'"*
    def factor(self):
        node = self.atom()
        while self.peek().kind == "prime":
            self.next()
            node = np.conj(node) if isinstance(node, complex) else Adj(node)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind in ("scalar", "zero"):
            self.next()
            return tok.value
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
                    # a Sum is never a literal, so this Scale is folded
                    return Scale(0.5 + 0j, Sum(arg, Adj(arg)))
                if isinstance(arg, complex) and self.constant_fn is None:
                    self.constant_fn = tok.text
                return FnApp(tok.text, arg)
            return Var(tok.text)
        raise self.error(f"expected an expression, found {tok.text!r}", tok)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


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
        # the functions are real-valued, so f(a)* = f(a*)
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


def _validate(e, variables: set[str]) -> None:
    if isinstance(e, complex):
        raise ValidationError("constant term (relations must vanish at zero)")
    if isinstance(e, Var):
        if e.name not in variables:
            raise ValidationError(f"variable {e.name!r} is not declared")
        return
    if isinstance(e, (Adj, Scale)):
        _validate(e.arg, variables)
        return
    if isinstance(e, (Sum, Diff, Prod)):
        _validate(e.left, variables)
        _validate(e.right, variables)
        return
    if isinstance(e, FnApp):
        _validate(e.arg, variables)
        fn = FUNCTIONS.get(e.fname)
        if fn is None:
            raise ValidationError(f"function {e.fname!r} is not registered")
        if not is_formally_self_adjoint(e.arg):
            raise ValidationError(
                f"argument of {e.fname!r} is not formally self-adjoint; wrap it in sym(...)"
            )
        if fn.smoothness not in ("continuous", "smooth"):
            raise ValidationError(
                f"function {e.fname!r} is not continuous; it cannot appear in relations"
            )
        return
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# relation sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationSet:
    """Named relations over declared variables."""

    variables: tuple[str, ...]
    relations: tuple[tuple[str, Expr], ...]

    def labels(self) -> list[str]:
        return [label for label, _ in self.relations]


def parse(source: str) -> RelationSet:
    """Parse and validate a relation file."""
    p = _Parser(source)
    p.expect("ident", "'vars'", "vars")
    names: list[str] = []
    while p.peek().kind == "ident":
        names.append(p.next().text)
    if not names:
        raise p.error("'vars' declares at least one name", p.peek())
    p.expect("semi", "';'")
    variables = set(names)
    relations: dict[str, Expr] = {}
    while p.peek().kind != "eof":
        p.expect("ident", "'rel'", "rel")
        label = p.expect("ident", "a relation label").text
        if label in relations:
            raise ValidationError(f"duplicate relation label {label!r}")
        p.expect("colon", "':'")
        body = p.expr()
        p.expect("eq", "'='")
        p.expect("zero", "'0'")
        p.expect("semi", "';'")
        relations[label] = p.validated(body, variables)
    return RelationSet(tuple(names), tuple(relations.items()))


def parse_expression(source: str, variables: tuple[str, ...]) -> Expr:
    """Parse a single expression in an existing variable context."""
    p = _Parser(source)
    body = p.expr()
    tok = p.peek()
    if tok.kind != "eof":
        raise p.error(f"trailing input {tok.text!r}", tok)
    return p.validated(body, set(variables))


# ---------------------------------------------------------------------------
# pretty printer
# ---------------------------------------------------------------------------

# the operator and precedence of each infix node; a Scale prints as a
# product, and the postfix adjoint binds tighter than both
_INFIX = {Sum: (" + ", 1), Diff: (" - ", 1), Prod: ("*", 2)}
_UNARY = 3


def _pretty(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Adj):
        return _pretty(e.arg, _UNARY) + "'"
    if isinstance(e, FnApp):
        return f"{e.fname}({_pretty(e.arg, 0)})"
    if isinstance(e, Scale):
        prec = _INFIX[Prod][1]
        s = f"({e.factor.real:.17g},{e.factor.imag:.17g})*{_pretty(e.arg, prec + 1)}"
    elif type(e) in _INFIX:
        op, prec = _INFIX[type(e)]
        s = f"{_pretty(e.left, prec)}{op}{_pretty(e.right, prec + 1)}"
    else:
        raise TypeError(f"unknown node {e!r}")
    return f"({s})" if parent_prec > prec else s


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
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> np.ndarray:
    """Evaluate an expression in an environment of matrices.

    A function argument that appears more than once, as in
    ``pos(sym(e)) - neg(sym(e))``, is built, checked for its Hermitian
    defect and decomposed once per call.  An argument whose defect exceeds
    ``hermitian_tol`` raises :class:`NotHermitianAtFnApp`.
    """
    return _evaluate(e, env, profile, {})


# the matrix operation of each binary node
_BINARY = {Sum: operator.add, Diff: operator.sub, Prod: operator.matmul}


def _evaluate(e, env, profile, spectra: dict[Expr, EigenSystem]) -> np.ndarray:
    """:func:`evaluate`, with the decompositions of the function arguments met so far."""
    if isinstance(e, Var):
        try:
            return np.asarray(env[e.name], dtype=complex)
        except KeyError as exc:
            raise UnboundVariable(e.name) from exc
    if isinstance(e, Adj):
        return _evaluate(e.arg, env, profile, spectra).conj().T
    if type(e) in _BINARY:
        left = _evaluate(e.left, env, profile, spectra)
        return _BINARY[type(e)](left, _evaluate(e.right, env, profile, spectra))
    if isinstance(e, Scale):
        return e.factor * _evaluate(e.arg, env, profile, spectra)
    if isinstance(e, FnApp):
        es = spectra.get(e.arg)
        if es is None:
            arg = _as_square(_evaluate(e.arg, env, profile, spectra), "function argument")
            defect, bound = _hermitian_defect(arg, profile.hermitian_tol, profile)
            _gate(f"hermitian defect of the argument of {e.fname}", defect, bound, NotHermitianAtFnApp)
        fn = FUNCTIONS.get(e.fname)
        if fn is None:
            raise ValidationError(f"function {e.fname!r} is not registered")
        if es is None:
            es = spectra[e.arg] = _eigh_raw(arg, profile)
        return _calc(es, fn)
    raise TypeError(f"unknown node {e!r}")


def residuals(
    rs: RelationSet,
    env: Mapping[str, np.ndarray],
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> dict[str, float]:
    """Operator norm of every relation body under the environment."""
    return {
        label: op_norm(evaluate(body, env, profile), profile)
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
    m: int,
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
            # formed once per amplitude and let go on return
            return tuple(_max_norm_above(defects(amp), (delta, 0.5 * delta), profile))

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
    samples_per_delta: int,
    rng: np.random.Generator,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> list[tuple[float, float]]:
    """Observed maximum of a consequence relation as the residual budget shrinks.

    For each delta (given in descending order), draws environments whose
    relation residuals are at most delta and records the largest norm of the
    consequence expression.  Only the observed trend is reported; nothing is
    asserted about limits.
    """
    table: list[tuple[float, float]] = []
    for delta in deltas:
        worst_s = 0.0
        for _ in range(samples_per_delta):
            env = sampler(delta, rng)
            _check_sample(rs, env, delta, profile)
            value = op_norm(evaluate(consequence, env, profile), profile)
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
        stack = np.stack([evaluate(body, env, profile) for _, body in rs.relations])
    else:
        stack = np.zeros((1, 0, 0))  # one empty matrix, of norm 0
    if _max_norm_above(stack, [delta], profile)[0] or math.isnan(delta):
        _gate("sample residual", _max_op_norm(stack, profile), delta, SamplerExhausted)
