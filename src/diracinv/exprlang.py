"""Closed-form complex scalar expressions: parser, exact differentiator, evaluator.

Grammar (conventional precedence climbing)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, tighter than unary minus
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Exponents must constant-fold to integers.  Variables are exactly x0..x3;
``i``, ``pi`` and ``e`` are built-in constants; any other name is a user
parameter bound at evaluation time.  Functions: sin cos tan exp log sqrt
sinh cosh (principal branches).

One node kind is internal and never produced by the parser: ``Conj``
(componentwise complex conjugate; its partial derivatives along the real
coordinates are the conjugated partials).  It prints in a debug form the
parser rejects.

Differentiation is exact on the AST.  There is one evaluator, `evaluate`:
it walks the tree once for an (N, 4) batch of points in IEEE double complex
numpy arithmetic and gives an (N,) array; a row's bits do not depend on
the other rows.  One point is evaluated as a batch of one.
A node whose value is non-finite at any point raises ``EvaluationError``
with the message "<op> produced a non-finite value in '<expr>'": literals,
constants and parameters are checked when resolved, arithmetic, division,
powers and functions after they apply (negation and conjugation keep
finite values finite).

`path_integral` integrates an expression along the x0 axis, from a fixed
lower limit to each point's x0, at all points at once by a composite
Gauss-Legendre rule: 7 against 15 nodes on each of 1, 2, 4, ... 64 equal
panels, until the per-panel differences summed over a point's panels are
at most ``QUADRATURE_TOL`` * max(1, |integral|).  A point still open at 64
panels, or an evaluation error of the integrand, raises ``QuadratureError``.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import EvaluationError, ParseError, QuadratureError

VARIABLES = ("x0", "x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
BUILTIN_CONSTANTS = {"i": 1j, "pi": complex(math.pi), "e": complex(math.e)}

QUADRATURE_TOL = 1e-11


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Div:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class Conj:
    arg: "Expr"


Expr = Union[Num, Name, Neg, Add, Sub, Mul, Div, Pow, Call, Conj]

ZERO = Num(0j)
ONE = Num(1 + 0j)


def _is_num(e: Expr, value: complex | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


# Smart constructors: fold literal arithmetic and prune algebraic identities so
# derivative trees stay small.  Division keeps a literal zero denominator
# unfolded; the error belongs to evaluation.

def add(lhs: Expr, rhs: Expr) -> Expr:
    if _is_num(lhs) and _is_num(rhs):
        return Num(lhs.value + rhs.value)
    if _is_num(lhs, 0j):
        return rhs
    if _is_num(rhs, 0j):
        return lhs
    return Add(lhs, rhs)


def sub(lhs: Expr, rhs: Expr) -> Expr:
    if _is_num(lhs) and _is_num(rhs):
        return Num(lhs.value - rhs.value)
    if _is_num(rhs, 0j):
        return lhs
    if _is_num(lhs, 0j):
        return neg(rhs)
    return Sub(lhs, rhs)


def neg(arg: Expr) -> Expr:
    if _is_num(arg):
        return Num(-arg.value)
    if isinstance(arg, Neg):
        return arg.arg
    return Neg(arg)


def mul(lhs: Expr, rhs: Expr) -> Expr:
    if _is_num(lhs) and _is_num(rhs):
        return Num(lhs.value * rhs.value)
    if _is_num(lhs, 0j) or _is_num(rhs, 0j):
        return ZERO
    if _is_num(lhs, 1 + 0j):
        return rhs
    if _is_num(rhs, 1 + 0j):
        return lhs
    return Mul(lhs, rhs)


def div(lhs: Expr, rhs: Expr) -> Expr:
    if _is_num(lhs) and _is_num(rhs) and rhs.value != 0:
        return Num(lhs.value / rhs.value)
    if _is_num(lhs, 0j) and not _is_num(rhs):
        return ZERO
    if _is_num(rhs, 1 + 0j):
        return lhs
    return Div(lhs, rhs)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_num(base) and (base.value != 0 or exponent > 0):
        return Num(base.value ** exponent)
    return Pow(base, exponent)


def call(func: str, arg: Expr) -> Expr:
    return Call(func, arg)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | one of "+-*/^(),", or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offset,
                             ("number", "name", "operator"))
        if match.lastgroup == "op":
            tokens.append(_Token(match.group("op"), match.group("op"), match.start("op")))
        elif match.lastgroup == "num":
            tokens.append(_Token("num", match.group("num"), match.start("num")))
        else:
            tokens.append(_Token("name", match.group("name"), match.start("name")))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"unexpected {self._describe(self.current)}",
                             self.current.pos, (kind,))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else f"token {tok.text!r}"

    def parse(self) -> Expr:
        expr = self.expr()
        if self.current.kind != "end":
            raise ParseError(f"unexpected {self._describe(self.current)}",
                             self.current.pos, ("operator", "end of input"))
        return expr

    @staticmethod
    def _finite(node: Expr, pos: int) -> Expr:  # to_text prints inf as a parameter name
        if isinstance(node, Num) and not cmath.isfinite(node.value):
            raise ParseError("number is not finite", pos, ("finite number",))
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = self._finite(add(node, rhs) if op.kind == "+" else sub(node, rhs), op.pos)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.current.kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            node = self._finite(mul(node, rhs) if op.kind == "*" else div(node, rhs), op.pos)
        return node

    def unary(self) -> Expr:
        if self.current.kind == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.current.kind == "^":
            caret = self.advance()
            exponent = self.unary()
            if not isinstance(exponent, Num) or exponent.value.imag != 0 \
                    or exponent.value.real != int(exponent.value.real):
                raise ParseError("exponent must be an integer constant", caret.pos,
                                 ("integer",))
            try:
                return self._finite(powi(base, int(exponent.value.real)), caret.pos)
            except (OverflowError, ZeroDivisionError):
                raise ParseError("number is not finite", caret.pos, ("finite number",)) from None
        return base

    def atom(self) -> Expr:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return self._finite(Num(complex(float(tok.text))), tok.pos)
        if tok.kind == "name":
            self.advance()
            if self.current.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return call(tok.text, arg)
            return Name(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {self._describe(tok)}", tok.pos,
                         ("number", "name", "(", "-"))


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError with offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    return _PREC.get(type(e), _ATOM_PREC)


def _num_text(value: complex) -> str:
    def real_text(x: float) -> str:
        if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    if value.imag == 0:
        x = value.real
        return real_text(x) if x >= 0 else f"(0-{real_text(-x)})"
    if value.real == 0:
        im = value.imag
        return f"({real_text(im)}*i)" if im >= 0 else f"(0-{real_text(-im)}*i)"
    sign = "+" if value.imag >= 0 else "-"
    return f"({real_text(value.real) if value.real >= 0 else '0-' + real_text(-value.real)}" \
           f"{sign}{real_text(abs(value.imag))}*i)"


def to_text(e: Expr) -> str:
    """Render an AST as parseable text (internal nodes use a debug form)."""
    if isinstance(e, Num):
        return _num_text(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
        my = _prec(e)
        lhs = to_text(e.lhs)
        if _prec(e.lhs) < my:
            lhs = f"({lhs})"
        rhs = to_text(e.rhs)
        # -, / are left-associative: parenthesize an equal-precedence rhs.
        if _prec(e.rhs) < my or (_prec(e.rhs) == my and op in ("-", "/")):
            rhs = f"({rhs})"
        return f"{lhs}{op}{rhs}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) <= _PREC[Pow]:
            base = f"({base})"
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{base}^{exp}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    if isinstance(e, Conj):
        return f"conj({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expr, axis: int) -> Expr:
    """Exact symbolic partial derivative along coordinate axis 0..3."""
    if axis not in (0, 1, 2, 3):
        raise ValueError(f"axis must be in 0..3, got {axis!r}")
    return _diff(e, axis)


def _diff(e: Expr, axis: int) -> Expr:
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Name):
        return ONE if e.ident == VARIABLES[axis] else ZERO
    if isinstance(e, Neg):
        return neg(_diff(e.arg, axis))
    if isinstance(e, Add):
        return add(_diff(e.lhs, axis), _diff(e.rhs, axis))
    if isinstance(e, Sub):
        return sub(_diff(e.lhs, axis), _diff(e.rhs, axis))
    if isinstance(e, Mul):
        return add(mul(_diff(e.lhs, axis), e.rhs), mul(e.lhs, _diff(e.rhs, axis)))
    if isinstance(e, Div):
        num = sub(mul(_diff(e.lhs, axis), e.rhs), mul(e.lhs, _diff(e.rhs, axis)))
        return div(num, powi(e.rhs, 2))
    if isinstance(e, Pow):
        inner = _diff(e.base, axis)
        return mul(mul(Num(complex(e.exponent)), powi(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        inner = _diff(e.arg, axis)
        rules = {
            "sin": lambda a: call("cos", a),
            "cos": lambda a: neg(call("sin", a)),
            "tan": lambda a: div(ONE, powi(call("cos", a), 2)),
            "exp": lambda a: call("exp", a),
            "log": lambda a: div(ONE, a),
            "sqrt": lambda a: div(ONE, mul(Num(2 + 0j), call("sqrt", a))),
            "sinh": lambda a: call("cosh", a),
            "cosh": lambda a: call("sinh", a),
        }
        return mul(rules[e.func](e.arg), inner)
    if isinstance(e, Conj):
        # Partials are along real coordinates, so they commute with conjugation.
        return conjugate(_diff(e.arg, axis))
    raise TypeError(f"not an expression node: {e!r}")


def conjugate(e: Expr) -> Expr:
    """Complex conjugate of an expression (internal node; not parseable)."""
    if isinstance(e, Num):
        return Num(e.value.conjugate())
    if isinstance(e, Conj):
        return e.arg
    return Conj(e)


# ---------------------------------------------------------------------------
# Evaluation

_NPFUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh,
}
_ARITHMETIC = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}

# Path quadrature: composite Gauss-Legendre, 7 against 15 nodes per panel.
# Both counts are odd, so each panel midpoint is a node of both rules.
_GL_LOW = np.polynomial.legendre.leggauss(7)
_GL_HIGH = np.polynomial.legendre.leggauss(15)
_GL_NODES = np.concatenate([_GL_LOW[0], _GL_HIGH[0]])
_MAX_PANELS = 64


def _non_finite(e: Expr, op: str) -> EvaluationError:
    return EvaluationError(f"{op} produced a non-finite value in {to_text(e)!r}")


def _check_finite(value: np.ndarray, e: Expr, op: str) -> np.ndarray:
    if not np.isfinite(value).all():
        raise _non_finite(e, op)
    return value


def _leaf(value: complex, e: Expr, op: str, shape) -> np.ndarray:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _non_finite(e, op)
    return np.broadcast_to(np.complex128(value), shape)


def _resolve(e: Name, cols, params: Mapping[str, complex] | None) -> np.ndarray:
    if e.ident in VARIABLES:
        return cols[VARIABLES.index(e.ident)]
    if e.ident in BUILTIN_CONSTANTS:
        return _leaf(BUILTIN_CONSTANTS[e.ident], e, "constant", cols[0].shape)
    if params is not None and e.ident in params:
        return _leaf(complex(params[e.ident]), e, "parameter", cols[0].shape)
    raise EvaluationError(f"unbound name {e.ident!r}")


def _columns(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four complex coordinate columns of finite (N, 4) points."""
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return tuple(pts[:, k].astype(complex) for k in range(4))


def _eval_array(e: Expr, cols, params) -> np.ndarray:
    if isinstance(e, Num):
        return _leaf(e.value, e, "number", cols[0].shape)
    if isinstance(e, Name):
        return _resolve(e, cols, params)
    # Negation and conjugation of finite values are finite.
    if isinstance(e, Neg):
        return -_eval_array(e.arg, cols, params)
    if isinstance(e, Conj):
        return np.conj(_eval_array(e.arg, cols, params))
    if isinstance(e, (Add, Sub, Mul, Div)):
        lhs = _eval_array(e.lhs, cols, params)
        rhs = _eval_array(e.rhs, cols, params)
        with np.errstate(all="ignore"):
            value = _ARITHMETIC[type(e)](lhs, rhs)
        return _check_finite(value, e, "division" if isinstance(e, Div) else "arithmetic")
    if isinstance(e, Pow):
        base = _eval_array(e.base, cols, params)
        with np.errstate(all="ignore"):
            value = base ** e.exponent
        return _check_finite(value, e, "power")
    if isinstance(e, Call):
        arg = _eval_array(e.arg, cols, params)
        with np.errstate(all="ignore"):
            value = _NPFUNCS[e.func](arg)
        return _check_finite(value, e, e.func)
    raise TypeError(f"not an expression node: {e!r}")


def path_integral(integrand: Expr, lower: float, points: np.ndarray,
                  params: Mapping[str, complex] | None = None) -> np.ndarray:
    """The (N,) integrals of `integrand` along x0 from `lower` to each (N, 4) point.

    The other coordinates stay at the point's.  All points are integrated at
    once, doubling the panels of those still open.  A point converges when
    the per-panel differences between the 7- and the 15-node rules sum to at
    most QUADRATURE_TOL * max(1, |integral|); the 15-node sums are returned.
    Points still open after _MAX_PANELS panels, and any evaluation error of
    the integrand, raise QuadratureError.
    """
    cols = _columns(np.asarray(points, dtype=float))
    upper = cols[0].real
    out = np.empty(upper.shape, dtype=complex)
    todo = np.arange(upper.size)
    panels = 1
    while todo.size:
        if panels > _MAX_PANELS:
            raise QuadratureError(
                f"path quadrature failed: no convergence to {QUADRATURE_TOL:.0e} with "
                f"{_MAX_PANELS} panels at {todo.size} of {upper.size} points")
        half = (upper[todo] - lower) / (2 * panels)                   # (m,)
        mids = lower + half[:, None] * (2 * np.arange(panels) + 1)    # (m, panels)
        nodes = mids[..., None] + half[:, None, None] * _GL_NODES     # (m, panels, 22)
        per_point = panels * _GL_NODES.size
        sub = (nodes.reshape(-1).astype(complex),
               *(np.repeat(c[todo], per_point) for c in cols[1:]))
        try:
            f = _eval_array(integrand, sub, params).reshape(nodes.shape)
        except EvaluationError as exc:
            raise QuadratureError(f"path quadrature failed: {exc}") from exc
        low = (f[..., :_GL_LOW[1].size] * _GL_LOW[1]).sum(axis=-1)
        high = (f[..., _GL_LOW[1].size:] * _GL_HIGH[1]).sum(axis=-1)
        total = high.sum(axis=-1) * half
        error = np.abs(high - low).sum(axis=-1) * np.abs(half)
        done = error <= QUADRATURE_TOL * np.maximum(1.0, np.abs(total))
        out[todo[done]] = total[done]
        todo = todo[~done]
        panels *= 2
    return out


def evaluate(e: Expr, points, params: Mapping[str, complex] | None = None) -> np.ndarray:
    """Evaluate at N points (N, 4) to an (N,) complex array.

    Coordinates must be finite.  Any node whose value is non-finite at some
    point raises EvaluationError.
    """
    return _eval_array(e, _columns(np.asarray(points, dtype=float)), params).astype(complex)


def evaluate_many(e: Expr, points: np.ndarray,
                  params: Mapping[str, complex] | None = None) -> np.ndarray:
    """Vectorized evaluation over an (N, 4) array of points."""
    return evaluate(e, points, params)
