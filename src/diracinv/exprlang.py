"""Closed-form complex scalar expressions: parser, exact differentiator, evaluator.

Grammar (conventional precedence climbing)::

    expr   := unary (BINOP unary)*       # '+' '-' (1) below '*' '/' (2), left-associative
    unary  := '-' unary | atom ('^' unary)?   # '^' is right-associative, tighter than '-'
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

The front end makes one regex pass over the text into ``(kind, text,
offset)`` tuples, then one precedence loop folds the binary operators.  A
literal or folded constant that is not finite is a ``ParseError`` at its
token.

One node, ``Binary(op, lhs, rhs)``, stands for all four binary operators;
``Neg``, ``Pow`` and ``Call`` are the other inner nodes.  One ``_BINARY``
row per operator holds its precedence, smart constructor, numpy ufunc and
derivative rule, and one ``_FUNCTIONS`` row per function its ufunc and
derivative; the parser, the printer (`to_text`), the differentiator and the
evaluator read those rows, with one branch for every binary node and one
lookup for every call.  A printed tree parses back to itself, every
literal's bits included: ``-x`` gives a literal with imaginary part -0.0
and ``0-x`` one with +0.0, so each prints as the text that gives it, and an
equal-precedence right operand keeps its parentheses.

Exponents must constant-fold to integers.  Variables are exactly x0..x3;
``i``, ``pi`` and ``e`` are built-in constants; any other name is a user
parameter bound at evaluation time.  Functions: sin cos tan exp log sqrt
sinh cosh (principal branches).

Differentiation is exact on the AST, and a derivative reuses its operand's
nodes.  There is one evaluator, `evaluate`: it walks one tree, or a sequence
of K trees, for an (N, 4) batch of points in IEEE double complex numpy
arithmetic, evaluates each node object once per call, and gives an (N,) or
(K, N) array whose row bits do not depend on the other rows or trees.
A node whose value is non-finite at any point raises ``EvaluationError``
with the message "<op> produced a non-finite value in '<expr>'", and the
node it names is the first non-finite one in walk order.  Literals,
constants and parameters are checked when resolved.  The values of
arithmetic, division, powers and functions are added into one running sum
as they apply, and a call checks that sum once, after the walk; a
non-finite value makes the sum non-finite.  Only when that check fails, or
the walk raises, does the call scan its memo, which holds the nodes in the
order the walk finished them, for the first non-finite value (a sum of
finite values that overflows finds none, and passes).  Negation keeps
finite values finite.  These checks replace numpy's floating-point
warnings, which are off (one ``np.errstate``) for the whole walk.  A
constant leaf is a zero-stride read-only view of one value.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import EvaluationError, ParseError

VARIABLES = ("x0", "x1", "x2", "x3")
BUILTIN_CONSTANTS = {"i": 1j, "pi": complex(math.pi), "e": complex(math.e)}


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
class Binary:
    op: str  # a key of _BINARY
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


Expr = Union[Num, Name, Neg, Binary, Pow, Call]

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
    return Binary("+", lhs, rhs)


def sub(lhs: Expr, rhs: Expr) -> Expr:
    if _is_num(lhs) and _is_num(rhs):
        return Num(lhs.value - rhs.value)
    if _is_num(rhs, 0j):
        return lhs
    if _is_num(lhs, 0j):
        return neg(rhs)
    return Binary("-", lhs, rhs)


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
    return Binary("*", lhs, rhs)


def div(lhs: Expr, rhs: Expr) -> Expr:
    if _is_num(lhs) and _is_num(rhs) and rhs.value != 0:
        return Num(lhs.value / rhs.value)
    if _is_num(lhs, 0j) and not _is_num(rhs):
        return ZERO
    if _is_num(rhs, 1 + 0j):
        return lhs
    return Binary("/", lhs, rhs)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_num(base) and (base.value != 0 or exponent > 0):
        return Num(base.value ** exponent)
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# Operators and functions

# Each binary operator's precedence, smart constructor, ufunc and derivative
# rule, which maps (lhs, rhs, d lhs, d rhs) to a tree; all four are
# left-associative.
_BINARY = {
    "+": (1, add, np.add, lambda l, r, dl, dr: add(dl, dr)),
    "-": (1, sub, np.subtract, lambda l, r, dl, dr: sub(dl, dr)),
    "*": (2, mul, np.multiply, lambda l, r, dl, dr: add(mul(dl, r), mul(l, dr))),
    "/": (2, div, np.divide,
          lambda l, r, dl, dr: div(sub(mul(dl, r), mul(l, dr)), powi(r, 2))),
}

# Each function's ufunc and its derivative at its call c; exp and sqrt reuse
# c itself.  + 0.0 maps the imaginary -0.0 negation leaves to +0.0: the
# principal branch.
_FUNCTIONS = {
    "sin": (np.sin, lambda c: Call("cos", c.arg)),
    "cos": (np.cos, lambda c: neg(Call("sin", c.arg))),
    "tan": (np.tan, lambda c: div(ONE, powi(Call("cos", c.arg), 2))),
    "exp": (np.exp, lambda c: c),
    "log": (lambda a: np.log(a + 0.0), lambda c: div(ONE, c.arg)),
    "sqrt": (lambda a: np.sqrt(a + 0.0), lambda c: div(ONE, mul(Num(2 + 0j), c))),
    "sinh": (np.sinh, lambda c: Call("cosh", c.arg)),
    "cosh": (np.cosh, lambda c: Call("sinh", c.arg)),
}
FUNCTIONS = tuple(_FUNCTIONS)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, kind "num", "name" or the operator itself, then "end"."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):  # whitespace matches nothing and is skipped
        kind, token, offset = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}", offset,
                             ("number", "name", "operator"))
        tokens.append((token if kind == "op" else kind, token, offset))
    tokens.append(("end", "", len(text)))
    return tokens


def _unexpected(token: tuple[str, str, int], expected: tuple[str, ...]) -> ParseError:
    kind, text, offset = token
    found = "end of input" if kind == "end" else f"token {text!r}"
    return ParseError(f"unexpected {found}", offset, expected)


def _finite(node: Expr, offset: int) -> Expr:  # to_text prints inf as a parameter name
    if isinstance(node, Num) and not cmath.isfinite(node.value):
        raise ParseError("number is not finite", offset, ("finite number",))
    return node


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError with offset."""
    tokens = _tokenize(text)
    node, i = _binary(tokens, 0, 1)
    if tokens[i][0] != "end":
        raise _unexpected(tokens[i], ("operator", "end of input"))
    return node


def _binary(tokens: list, i: int, min_prec: int) -> tuple[Expr, int]:
    """Operands from tokens[i] joined by operators of precedence >= min_prec, folded left."""
    node, i = _unary(tokens, i)
    while (row := _BINARY.get(tokens[i][0])) is not None and row[0] >= min_prec:
        offset = tokens[i][2]
        rhs, i = _binary(tokens, i + 1, row[0] + 1)
        node = _finite(row[1](node, rhs), offset)
    return node, i


def _unary(tokens: list, i: int) -> tuple[Expr, int]:
    """'-' unary | atom ('^' unary)?: '^' is right-associative and tighter than minus."""
    if tokens[i][0] == "-":
        node, i = _unary(tokens, i + 1)
        return neg(node), i
    base, i = _atom(tokens, i)
    if tokens[i][0] != "^":
        return base, i
    offset = tokens[i][2]
    exponent, i = _unary(tokens, i + 1)
    if not isinstance(exponent, Num) or exponent.value.imag != 0 \
            or exponent.value.real != int(exponent.value.real):
        raise ParseError("exponent must be an integer constant", offset, ("integer",))
    try:
        return _finite(powi(base, int(exponent.value.real)), offset), i
    except (OverflowError, ZeroDivisionError):
        raise ParseError("number is not finite", offset, ("finite number",)) from None


def _atom(tokens: list, i: int) -> tuple[Expr, int]:
    kind, text, offset = tokens[i]
    if kind == "num":
        return _finite(Num(complex(float(text))), offset), i + 1
    if kind == "name":
        if tokens[i + 1][0] != "(":
            return Name(text), i + 1
        if text not in FUNCTIONS:
            raise ParseError(f"unknown function {text!r}", offset, FUNCTIONS)
        arg, i = _group(tokens, i + 2)
        return Call(text, arg), i
    if kind == "(":
        return _group(tokens, i + 1)
    raise _unexpected(tokens[i], ("number", "name", "(", "-"))


def _group(tokens: list, i: int) -> tuple[Expr, int]:
    """The expression after an opening parenthesis, and the index past its ')'."""
    node, i = _binary(tokens, i, 1)
    if tokens[i][0] != ")":
        raise _unexpected(tokens[i], (")",))
    return node, i + 1


# ---------------------------------------------------------------------------
# Printing

def _prec(e: Expr) -> int:
    """Binary operators as in `_BINARY`, then Neg 3, Pow 4 and atoms 5.

    A number printed with a leading minus binds as a negation.
    """
    if isinstance(e, Binary):
        return _BINARY[e.op][0]
    if isinstance(e, Num):
        return 3 if _num_text(e.value).startswith("-") else 5
    return 3 if isinstance(e, Neg) else 4 if isinstance(e, Pow) else 5


def _real_text(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _signed_text(x: float, zero: float) -> str:
    """Text that parses to exactly x + zero*j, for zero = +-0.0, signed zeros included.

    The parser gives x + 0j for a literal x, negation flips both signs, and
    0 - (x + 0j) is -x + 0j; a zero real part of the other sign than the
    imaginary zero's comes from the folded product 0 * -0 = 0 - 0j.
    """
    text = _real_text(abs(x))
    if math.copysign(1.0, zero) > 0:
        if math.copysign(1.0, x) > 0:
            return text
        return f"(0-{text})" if x else "-(0*-0)"
    if math.copysign(1.0, x) < 0:
        return f"-{text}"
    return f"-(0-{text})" if x else "(0*-0)"


def _num_text(value: complex) -> str:
    if value.imag == 0:
        return _signed_text(value.real, value.imag)
    if value.real == 0:
        im = value.imag
        return f"({_real_text(im)}*i)" if im >= 0 else f"(0-{_real_text(-im)}*i)"
    sign = "+" if value.imag >= 0 else "-"
    real = _real_text(value.real) if value.real >= 0 else "0-" + _real_text(-value.real)
    return f"({real}{sign}{_real_text(abs(value.imag))}*i)"


def to_text(e: Expr) -> str:
    """Render an AST as parseable text."""
    if isinstance(e, Num):
        return _num_text(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _prec(e):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Binary):
        my = _prec(e)
        lhs = to_text(e.lhs)
        if _prec(e.lhs) < my:
            lhs = f"({lhs})"
        rhs = to_text(e.rhs)
        # All four fold left, and floating point does not reassociate: an
        # equal-precedence rhs keeps its parentheses, so the text parses back
        # to this tree.
        if _prec(e.rhs) <= my:
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) <= _prec(e):
            base = f"({base})"
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{base}^{exp}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
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
    if isinstance(e, Binary):
        return _BINARY[e.op][3](e.lhs, e.rhs, _diff(e.lhs, axis), _diff(e.rhs, axis))
    if isinstance(e, Pow):
        inner = _diff(e.base, axis)
        return mul(mul(Num(complex(e.exponent)), powi(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        return mul(_FUNCTIONS[e.func][1](e), _diff(e.arg, axis))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

def _non_finite(e: Expr, op: str) -> EvaluationError:
    return EvaluationError(f"{op} produced a non-finite value in {to_text(e)!r}")


def _leaf(value: complex, e: Expr, op: str, shape) -> np.ndarray:
    """The constant as a zero-stride view of one complex128 scalar: read-only, no N copies."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise _non_finite(e, op)
    return np.ndarray(shape, dtype=complex, buffer=np.complex128(value), strides=(0,))


def _resolve(e: Name, cols, params: Mapping[str, complex] | None) -> np.ndarray:
    if e.ident in VARIABLES:
        return cols[VARIABLES.index(e.ident)]
    if e.ident in BUILTIN_CONSTANTS:
        return _leaf(BUILTIN_CONSTANTS[e.ident], e, "constant", cols[0].shape)
    if params is not None and e.ident in params:
        return _leaf(complex(params[e.ident]), e, "parameter", cols[0].shape)
    raise EvaluationError(f"unbound name {e.ident!r}")


def _columns(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four complex coordinate columns of finite (N, 4) points, converted in one pass."""
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return tuple(pts.T.astype(complex, order="C"))


def _eval_array(e: Expr, cols, params, memo: dict, total: np.ndarray) -> np.ndarray:
    """The (N,) value of e, memoized by node identity as (e, value) in walk order.

    The value of every arithmetic, power and call node is added into
    `total`, whose finiteness `evaluate` checks once; callers hold
    np.errstate.
    """
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    kind = type(e)
    if kind is Binary:
        value = _BINARY[e.op][2](_eval_array(e.lhs, cols, params, memo, total),
                                 _eval_array(e.rhs, cols, params, memo, total))
        total += value
    elif kind is Name:
        value = _resolve(e, cols, params)
    elif kind is Num:
        value = _leaf(e.value, e, "number", cols[0].shape)
    elif kind is Call:
        value = _FUNCTIONS[e.func][0](_eval_array(e.arg, cols, params, memo, total))
        total += value
    elif kind is Pow:
        value = _eval_array(e.base, cols, params, memo, total) ** e.exponent
        total += value
    elif kind is Neg:  # negation of finite values is finite
        value = -_eval_array(e.arg, cols, params, memo, total)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = e, value
    return value


def _first_non_finite(memo: dict) -> EvaluationError | None:
    """The error of the first arithmetic, power or call node, in memo order, that is not finite."""
    for e, value in memo.values():
        kind = type(e)
        if kind in (Binary, Pow, Call) and not np.isfinite(value).all():
            op = ("division" if e.op == "/" else "arithmetic") if kind is Binary \
                else "power" if kind is Pow else e.func
            return _non_finite(e, op)
    return None


def evaluate(e: Expr | Sequence[Expr], points,
             params: Mapping[str, complex] | None = None) -> np.ndarray:
    """One tree at N points (N, 4) to an (N,) complex array, or K trees to (K, N).

    Coordinates must be finite.  Trees are walked in order, depth first; the
    first node whose value is non-finite at some point raises EvaluationError.
    """
    cols = _columns(np.asarray(points, dtype=float))
    trees, memo = (e if isinstance(e, (list, tuple)) else [e]), {}
    total = np.zeros(cols[0].shape, dtype=complex)  # a non-finite term makes it non-finite
    with np.errstate(all="ignore"):
        try:
            values = [_eval_array(tree, cols, params, memo, total) for tree in trees]
        except Exception:  # a node walked before the one that raised may be non-finite
            error = _first_non_finite(memo)
            if error is None:
                raise
            raise error from None
        # A finite sum can overflow; then the scan finds no non-finite node.
        if not np.isfinite(total).all() and (error := _first_non_finite(memo)) is not None:
            raise error
        out = np.array(values, dtype=complex)  # copies each row out of the memo
    return out if trees is e else out[0]


def evaluate_many(e: Expr | Sequence[Expr], points: np.ndarray,
                  params: Mapping[str, complex] | None = None) -> np.ndarray:
    """Vectorized evaluation of one tree or a sequence of trees over an (N, 4) array of points."""
    return evaluate(e, points, params)
