"""Closed-form complex scalar expressions: parser, exact differentiator, evaluator.

Grammar (conventional precedence climbing)::

    expr   := unary (BINOP unary)*       # '+' '-' (1) below '*' '/' (2), left-associative
    unary  := '-' unary | atom ('^' unary)?   # '^' is right-associative, tighter than '-'
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

The front end makes one regex pass over the text into ``(kind, text,
offset)`` tuples, then one precedence loop folds the binary operators.  One
table, ``_BINARY``, holds each binary operator's precedence, node class,
smart constructor and numpy ufunc; the parser, the printer (`to_text`) and
the evaluator all read it.  A literal or folded constant that is not finite
is a ``ParseError`` at its token.

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
with the message "<op> produced a non-finite value in '<expr>'": literals,
constants and parameters are checked when resolved, arithmetic, division,
powers and functions after they apply (negation keeps finite values
finite).  Those checks replace numpy's floating-point warnings, which are
off (one ``np.errstate``) for the whole walk.  A constant leaf is a
zero-stride read-only view of one value.
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
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
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


Expr = Union[Num, Name, Neg, Add, Sub, Mul, Div, Pow, Call]

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


# ---------------------------------------------------------------------------
# Parsing

# Each binary operator's precedence, node class, smart constructor and ufunc;
# all four are left-associative.
_BINARY = {
    "+": (1, Add, add, np.add),
    "-": (1, Sub, sub, np.subtract),
    "*": (2, Mul, mul, np.multiply),
    "/": (2, Div, div, np.divide),
}
_SYMBOL = {row[1]: symbol for symbol, row in _BINARY.items()}

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
        node = _finite(row[2](node, rhs), offset)
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
    """Binary operators as in `_BINARY`, then Neg 3, Pow 4 and atoms 5."""
    symbol = _SYMBOL.get(type(e))
    if symbol is not None:
        return _BINARY[symbol][0]
    return 3 if isinstance(e, Neg) else 4 if isinstance(e, Pow) else 5


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
    op = _SYMBOL.get(type(e))
    if op is not None:
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


# The derivative of each function at its call c; exp and sqrt reuse c itself.
_DERIVATIVES = {
    "sin": lambda c: Call("cos", c.arg),
    "cos": lambda c: neg(Call("sin", c.arg)),
    "tan": lambda c: div(ONE, powi(Call("cos", c.arg), 2)),
    "exp": lambda c: c,
    "log": lambda c: div(ONE, c.arg),
    "sqrt": lambda c: div(ONE, mul(Num(2 + 0j), c)),
    "sinh": lambda c: Call("cosh", c.arg),
    "cosh": lambda c: Call("sinh", c.arg),
}


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
        return mul(_DERIVATIVES[e.func](e), _diff(e.arg, axis))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation

# + 0.0 maps the imaginary -0.0 negation leaves to +0.0: the principal branch.
_NPFUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": lambda a: np.log(a + 0.0), "sqrt": lambda a: np.sqrt(a + 0.0),
    "sinh": np.sinh, "cosh": np.cosh,
}


def _non_finite(e: Expr, op: str) -> EvaluationError:
    return EvaluationError(f"{op} produced a non-finite value in {to_text(e)!r}")


def _check_finite(value: np.ndarray, e: Expr, op: str) -> np.ndarray:
    if not np.isfinite(value).all():
        raise _non_finite(e, op)
    return value


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
    """The four complex coordinate columns of finite (N, 4) points."""
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return tuple(pts[:, k].astype(complex) for k in range(4))


def _eval_array(e: Expr, cols, params, memo: dict) -> np.ndarray:
    """The (N,) value of e, memoized by node identity; callers hold np.errstate."""
    value = memo.get(id(e))
    if value is not None:
        return value
    if isinstance(e, Num):
        value = _leaf(e.value, e, "number", cols[0].shape)
    elif isinstance(e, Name):
        value = _resolve(e, cols, params)
    elif isinstance(e, Neg):  # negation of finite values is finite
        value = -_eval_array(e.arg, cols, params, memo)
    elif type(e) in _SYMBOL:
        value = _BINARY[_SYMBOL[type(e)]][3](_eval_array(e.lhs, cols, params, memo),
                                             _eval_array(e.rhs, cols, params, memo))
        value = _check_finite(value, e, "division" if isinstance(e, Div) else "arithmetic")
    elif isinstance(e, Pow):
        value = _check_finite(_eval_array(e.base, cols, params, memo) ** e.exponent, e, "power")
    elif isinstance(e, Call):
        value = _check_finite(_NPFUNCS[e.func](_eval_array(e.arg, cols, params, memo)), e, e.func)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = value
    return value


def evaluate(e: Expr | Sequence[Expr], points,
             params: Mapping[str, complex] | None = None) -> np.ndarray:
    """One tree at N points (N, 4) to an (N,) complex array, or K trees to (K, N).

    Coordinates must be finite.  Trees are walked in order, depth first; the
    first node whose value is non-finite at some point raises EvaluationError.
    """
    cols = _columns(np.asarray(points, dtype=float))
    trees, memo = (e if isinstance(e, (list, tuple)) else [e]), {}
    with np.errstate(all="ignore"):  # np.array copies each row out of the memo
        out = np.array([_eval_array(tree, cols, params, memo) for tree in trees], dtype=complex)
    return out if trees is e else out[0]


def evaluate_many(e: Expr | Sequence[Expr], points: np.ndarray,
                  params: Mapping[str, complex] | None = None) -> np.ndarray:
    """Vectorized evaluation of one tree or a sequence of trees over an (N, 4) array of points."""
    return evaluate(e, points, params)
