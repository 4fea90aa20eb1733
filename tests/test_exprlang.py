"""Parser, differentiator and evaluator contracts."""

import cmath
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracinv import exprlang, selftest
from diracinv.errors import EvaluationError, ParseError
from diracinv.exprlang import (FUNCTIONS, Call, Expr, Name, Num, add, differentiate, div,
                               evaluate, evaluate_many, mul, neg, parse, powi, sub, to_text)

ORIGIN = (0.0, 0.0, 0.0, 0.0)


class TestParse:
    def test_polynomial_plus_sine_at_origin(self):
        assert evaluate(parse("x1^2 + sin(x0)"), [ORIGIN])[0] == 0

    def test_constant_folding_and_builtins(self):
        assert evaluate(parse("2*cos(pi)"), [ORIGIN])[0] == pytest.approx(-2)

    def test_euler_identity(self):
        value = evaluate(parse("exp(i*(x1-x0))"), [(0.0, math.pi, 0.0, 0.0)])[0]
        assert value == pytest.approx(-1)

    def test_power_is_right_associative_and_tighter_than_unary_minus(self):
        # -x^2 must be -(x^2); 2^3^2 must be 2^(3^2).
        assert evaluate(parse("-x1^2"), [(0, 3, 0, 0)])[0] == pytest.approx(-9)
        assert evaluate(parse("2^3^2"), [ORIGIN])[0] == pytest.approx(512)
        assert evaluate(parse("x1^-2"), [(0, 2, 0, 0)])[0] == pytest.approx(0.25)

    def test_syntax_error_carries_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse("sin(")
        assert err.value.offset == 4
        assert err.value.expected

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * 2")
        assert err.value.offset == 5
        with pytest.raises(ParseError) as err:
            parse("x1 $ 2")
        assert err.value.offset == 3

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("frob(x1)")
        assert "frob" in str(err.value)

    def test_non_integer_exponent_rejected(self):
        for text in ("x1^0.5", "x1^x2", "x1^(1/3)"):
            with pytest.raises(ParseError):
                parse(text)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("x1 x2")

    @pytest.mark.parametrize("text, offset", [
        ("1e999", 0), ("x0*1e999", 3), ("1e200*1e200", 5), ("1e308+1e308", 5),
        ("1/1e-320", 1), ("1e200^2", 5), ("1e-200^(-2)", 6),
    ])
    def test_non_finite_number_rejected_at_its_token(self, text, offset):
        # A non-finite literal or folded constant would print as "inf", which
        # parses back as a parameter name.
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert "not finite" in str(err.value)


class TestEvaluate:
    def test_parameter_binding(self):
        assert evaluate(parse("kappa*x2"), [(0, 0, 3, 0)], {"kappa": 2})[0] == pytest.approx(6)

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x1"), [ORIGIN])

    def test_imaginary_unit_squares_to_minus_one(self):
        assert evaluate(parse("i^2"), [ORIGIN])[0] == pytest.approx(-1)

    def test_unbound_name(self):
        with pytest.raises(EvaluationError, match="unbound"):
            evaluate(parse("zeta*x1"), [ORIGIN])

    def test_log_of_zero_is_an_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("log(x1)"), [ORIGIN])

    def test_principal_branches(self):
        assert evaluate(parse("sqrt(0-4)"), [ORIGIN])[0] == pytest.approx(2j)
        assert evaluate(parse("log(0-1)"), [ORIGIN])[0] == pytest.approx(1j * math.pi)

    def test_principal_branches_of_negated_literals_and_variables(self):
        # Negation leaves an imaginary -0.0, which must not pick the other branch.
        assert evaluate(parse("sqrt(-4)"), [ORIGIN])[0] == 2j
        assert evaluate(parse("log(-1)"), [ORIGIN])[0] == 1j * math.pi
        assert evaluate(parse(to_text(parse("sqrt(-4)"))), [ORIGIN])[0] == 2j
        pts = [(0.0, 0.5, 0.0, 0.0)]
        negated = evaluate(parse("sqrt(-x1)"), pts)
        assert negated.tobytes() == evaluate(parse("sqrt(0-x1)"), pts).tobytes()
        assert negated[0].imag > 0

    def test_overflow_is_an_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(x1)^3"), [(0, 500.0, 0, 0)])

    def test_vectorized_matches_scalar(self, rng):
        e = parse("sin(x0)*exp(i*x1) + kappa/(x2+3) - x3^2")
        pts = rng.uniform(-1, 1, size=(50, 4))
        grid = evaluate_many(e, pts, {"kappa": 1.5 + 0.5j})
        for k in range(50):
            assert grid[k] == pytest.approx(evaluate(e, [pts[k]], {"kappa": 1.5 + 0.5j})[0],
                                            rel=1e-14, abs=1e-14)

    def test_one_point_must_be_a_batch_of_one(self):
        with pytest.raises(ValueError, match=r"points must have shape \(N, 4\), got \(4,\)"):
            evaluate(parse("x0"), (0, 0, 0, 0))

    @pytest.mark.parametrize("points, message", [
        ([(0.0, 0.0, 0.0)], r"points must have shape \(N, 4\), got \(1, 3\)"),
        ([(math.nan, 0, 0, 0)], "point coordinates must be finite"),
    ])
    def test_rejects_bad_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            evaluate(parse("x0"), points)

    def test_vectorized_surfaces_nonfinite(self):
        pts = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(EvaluationError):
            evaluate_many(parse("1/x1"), pts)


class TestEvaluatorFloatingPointState:
    # One np.errstate covers a whole walk; a non-finite node still raises
    # the message naming it, and no RuntimeWarning escapes.
    POINTS = np.array([[0.0, 0.0, 0.3, 0.4], [1.0, 0.2, 0.3, 0.4]])

    @pytest.mark.parametrize("text, message", [
        ("1/x0", "division produced a non-finite value in '1/x0'"),
        ("log(x1)", "log produced a non-finite value in 'log(x1)'"),
        ("exp(1000*x0)", "exp produced a non-finite value in 'exp(1000*x0)'"),
    ])
    def test_non_finite_nodes_raise_without_warnings(self, text, message):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as info:
                evaluate(parse(text), self.POINTS)
        assert str(info.value) == message
        assert np.geterr() == before

    @pytest.mark.parametrize("text", ["2.5", "pi", "k1"])
    def test_constant_leaves_are_read_only_zero_stride_views(self, text):
        cols = exprlang._columns(np.zeros((100_000, 4)))
        leaf = exprlang._eval_array(parse(text), cols, {"k1": 0.5 + 1j}, {})
        assert leaf.shape == (100_000,) and leaf.strides == (0,)
        assert not leaf.flags.writeable
        assert leaf[0] == leaf[-1] == evaluate(parse(text), [ORIGIN], {"k1": 0.5 + 1j})[0]


class TestOneWalk:
    # A sequence of trees is one walk with one memo: each row has the bits of
    # its tree walked alone, and the first non-finite node is the same one.
    PARAMS = {"k1": 0.7 + 0.2j, "k2": 1.3 - 0.4j}

    @staticmethod
    def _alone(trees, pts, params):
        """Each tree walked alone, or the message of the first that fails."""
        try:
            return np.stack([evaluate(t, pts, params) for t in trees]), None
        except EvaluationError as exc:
            return None, str(exc)

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_a_tree_and_its_partials_have_the_bits_of_separate_walks(self, seed):
        rng = np.random.default_rng(seed)
        e = selftest._random_expr(rng, int(rng.integers(1, 5)))
        trees = [e, *(differentiate(e, axis) for axis in range(4))]
        pts = rng.uniform(-0.8, 0.8, (6, 4))
        want, message = self._alone(trees, pts, self.PARAMS)
        if message is not None:
            with pytest.raises(EvaluationError) as info:
                evaluate(trees, pts, self.PARAMS)
            assert str(info.value) == message
            return
        got = evaluate(trees, pts, self.PARAMS)
        assert got.shape == (5, 6) and got.flags.writeable
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.parametrize("text", ["exp(1/x1)", "sqrt(x1)", "log(x1)*x1"])
    def test_a_pole_shared_by_a_value_and_a_partial_raises_as_separate_walks(self, text):
        e = parse(text)
        trees = [e, differentiate(e, 1)]
        pts = np.array([[0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        for order in (trees, trees[::-1]):
            _, message = self._alone(order, pts, None)
            assert message is not None
            with pytest.raises(EvaluationError) as info:
                evaluate(order, pts)
            assert str(info.value) == message

    def test_rows_are_fresh_arrays_not_the_memo(self):
        x1 = parse("x1")
        pts = np.array([[0.0, 0.5, 0.0, 0.0]])
        rows = evaluate([x1, x1, parse("2")], pts)
        rows[0] = 7.0
        assert rows[1] == 0.5 and rows[2] == 2
        assert evaluate(x1, pts).flags.writeable


class TestDifferentiate:
    @pytest.mark.parametrize("text, axis, closed_form", [
        ("sin(x0)", 0, lambda p: np.cos(p[:, 0])),
        ("exp(0.3*x0)*x1", 0, lambda p: 0.3 * np.exp(0.3 * p[:, 0]) * p[:, 1]),
        ("exp(0.3*x0)*x1", 1, lambda p: np.exp(0.3 * p[:, 0])),
        ("log(x0 + 3)", 0, lambda p: 1 / (p[:, 0] + 3)),
    ])
    def test_closed_forms_at_fifty_points(self, rng, text, axis, closed_form):
        pts = rng.uniform(-1, 1, (50, 4))
        values = evaluate(differentiate(parse(text), axis), pts)
        assert np.abs(values - closed_form(pts)).max() <= 1e-14

    def test_exponential_phase(self):
        d = differentiate(parse("exp(i*x0)"), 0)
        assert evaluate(d, [ORIGIN])[0] == pytest.approx(1j)

    def test_uninvolved_axis_gives_zero_expression(self):
        assert differentiate(parse("x1*x2"), 3) == exprlang.ZERO

    def test_sine_squared_slope(self):
        d = differentiate(parse("sin(x2)^2"), 2)
        assert evaluate(d, [(0, 0, math.pi / 4, 0)])[0] == pytest.approx(1.0)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            differentiate(parse("x1"), 4)

    def test_linearity(self, rng):
        e1 = parse("sin(x0)*x1 + exp(i*x2)")
        e2 = parse("cosh(x3) - x0^3")
        alpha, beta = 1.7 - 0.3j, -0.8 + 1.1j
        combo = exprlang.add(exprlang.mul(exprlang.Num(alpha), e1),
                             exprlang.mul(exprlang.Num(beta), e2))
        for axis in range(4):
            d_combo = differentiate(combo, axis)
            d1, d2 = differentiate(e1, axis), differentiate(e2, axis)
            for _ in range(25):
                p = rng.uniform(-2, 2, 4)
                lhs = evaluate(d_combo, [p])[0]
                rhs = alpha * evaluate(d1, [p])[0] + beta * evaluate(d2, [p])[0]
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_mixed_partials_commute(self, rng):
        e = parse("exp(x0*x1)*sin(x2 - x3) + sqrt(x1^2 + 2)")
        for a1, a2 in ((0, 1), (1, 2), (2, 3), (0, 3)):
            d12 = differentiate(differentiate(e, a1), a2)
            d21 = differentiate(differentiate(e, a2), a1)
            for _ in range(25):
                p = rng.uniform(-1, 1, 4)
                v12, v21 = evaluate(d12, [p])[0], evaluate(d21, [p])[0]
                assert v12 == pytest.approx(v21, rel=1e-9, abs=1e-12)

    def test_every_function_slope_against_finite_differences(self, rng):
        h = 1e-5
        for fn in exprlang.FUNCTIONS:
            e = parse(f"{fn}(0.3 + x1/2)")
            d = differentiate(e, 1)
            for _ in range(10):
                p = rng.uniform(-0.5, 0.5, 4)
                hi, lo = p.copy(), p.copy()
                hi[1] += h
                lo[1] -= h
                fd = (evaluate(e, [hi])[0] - evaluate(e, [lo])[0]) / (2 * h)
                assert evaluate(d, [p])[0] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_one_row_batch_has_the_bits_of_its_row_in_a_larger_batch():
    rng = np.random.default_rng(5)
    compared = failed = 0
    for _ in range(800):
        e = selftest._random_expr(rng, depth=int(rng.integers(2, 5)))
        pts = rng.uniform(-0.8, 0.8, (5, 4))
        params = {"k1": complex(rng.uniform(0.5, 1.5)), "k2": complex(rng.uniform(0.5, 1.5))}
        singles = []
        for p in pts:
            try:
                singles.append(evaluate(e, [p], params)[0])
            except EvaluationError:
                singles.append(None)
        if None in singles:
            failed += 1
            with pytest.raises(EvaluationError):
                evaluate(e, pts, params)
            continue
        batch = evaluate(e, pts, params)
        assert np.array(singles).tobytes() == batch.tobytes()
        compared += len(pts)
    assert compared >= 3500 and failed > 0


def test_differentiate_agrees_with_sympy(rng):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")
    names = {f"x{k}": xs[k] for k in range(4)}
    names.update(i=sympy.I, pi=sympy.pi, e=sympy.E)
    texts = ("sin(x0)*exp(i*x1) + x2^3/(x3 + 4)", "log(2 + x1^2)*cosh(x0) - sqrt(3 + x2)",
             "tan(0.5*x3)^(-2) + sinh(x0*x1)", "exp(-i*(x0 - 0.3*x2))*(x1 + 2*i)^2")
    for text in texts:
        e = parse(text)
        reference = sympy.sympify(text.replace("^", "**"), locals=names)
        for axis in range(4):
            want = sympy.lambdify(xs, sympy.diff(reference, xs[axis]), "numpy")
            d = differentiate(e, axis)
            for p in rng.uniform(-0.9, 0.9, (5, 4)):
                assert evaluate(d, [p])[0] == pytest.approx(complex(want(*p)),
                                                          rel=1e-12, abs=1e-12)


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            exprlang.Num(complex(round(rng.uniform(-3, 3), 3))),
            exprlang.Num(complex(0, round(rng.uniform(-2, 2), 3))),
            exprlang.Num(complex(round(rng.uniform(-2, 2), 2),
                                 round(rng.uniform(-2, 2), 2))),
            exprlang.Name(f"x{rng.integers(0, 4)}"),
            exprlang.Name("pi"),
            exprlang.Name("mu"),
        ])
    kind = rng.integers(0, 7)
    if kind == 0:
        return exprlang.Neg(_random_ast(rng, depth - 1))
    if kind <= 4:
        cls = (exprlang.Add, exprlang.Sub, exprlang.Mul, exprlang.Div)[kind - 1]
        return cls(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 5:
        return exprlang.Pow(_random_ast(rng, depth - 1), int(rng.choice([-2, 2, 3])))
    fn = str(rng.choice(exprlang.FUNCTIONS))
    return exprlang.Call(fn, _random_ast(rng, depth - 1))


def test_print_parse_roundtrip_evaluates_identically(rng):
    params = {"mu": 0.75 - 0.25j}
    accepted = 0
    trials = 0
    while accepted < 100 and trials < 3000:
        trials += 1
        e = _random_ast(rng, depth=int(rng.integers(1, 4)))
        points = rng.uniform(-0.9, 0.9, (5, 4))
        try:
            expected = [evaluate(e, [p], params)[0] for p in points]
        except EvaluationError:
            continue
        back = parse(to_text(e))
        for p, want in zip(points, expected):
            assert evaluate(back, [p], params)[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
        accepted += 1
    assert accepted == 100


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_number_literals_roundtrip(re, im):
    text = exprlang.to_text(exprlang.Num(complex(re, im)))
    assert evaluate(parse(text), [ORIGIN])[0] == complex(re, im)


# ---------------------------------------------------------------------------
# The recursive-descent parser that the one-pass parser replaced, kept verbatim
# as the reference: the same text must give the same tree or the same error.

_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | one of "+-*/^(),", or "end"
    text: str
    pos: int


def _old_tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _OLD_TOKEN_RE.match(text, pos)
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


class _OldParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _old_tokenize(text)
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
                return Call(tok.text, arg)
            return Name(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {self._describe(tok)}", tok.pos,
                         ("number", "name", "(", "-"))


def _outcome(parser, text):
    """The tree's repr (signed zeros count), the ParseError's parts, or another error's type."""
    try:
        return "tree", repr(parser(text))
    except ParseError as exc:
        return "ParseError", str(exc), exc.offset, exc.expected
    except Exception as exc:  # the type is what is compared
        return "raised", type(exc)


def _assert_parsed_as_before(text):
    assert _outcome(parse, text) == _outcome(lambda t: _OldParser(t).parse(), text), text


_SPACE = st.sampled_from(["", "", " ", "\t", "\n"])
_LEAVES = st.sampled_from([
    "0", "-0", "0.0", "2", ".5", "3.", "1.5e3", "1e200", "1e-200", "1e308", "1e-320", "1e999",
    "x0", "x1", "x2", "x3", "i", "pi", "e", "kappa", "_k2"])
_EXPONENTS = st.sampled_from(["2", "0", "-2", "(-2)", "-1", "3^2", "0.5", "x1", "(1/3)", "400",
                              "i", "(2*i)"])
_FUNCTION_NAMES = st.sampled_from(FUNCTIONS + ("frob",))


def _spaced(*parts):
    """Text of the parts, with drawn whitespace between them."""
    return st.tuples(*(part if isinstance(part, st.SearchStrategy) else st.just(part)
                       for part in parts), *(_SPACE for _ in parts)).map(
        lambda drawn: "".join(a + b for a, b in zip(drawn[:len(parts)], drawn[len(parts):])))


_GRAMMAR_TEXT = st.recursive(_LEAVES, lambda inner: st.one_of(
    _spaced(inner, st.sampled_from("+-*/"), inner),
    _spaced("-", inner),
    _spaced(inner, "^", _EXPONENTS),
    _spaced(_FUNCTION_NAMES, "(", inner, ")"),
    _spaced("(", inner, ")"),
), max_leaves=10)

_SOUP_TOKENS = st.sampled_from([
    "+", "-", "*", "/", "^", "(", ")", ",", "x1", "kappa", "2", "0", "1e200", "1e999", "1e-320",
    ".", "1.", "1e", "1.2.3", "x1x2", "sin(", "frob(", "^0.5", "^-2", "$", "#", "=", "[", "\u00e9",
    "\u0663", "\u00b2", "'", "\\"])
_SOUP_SEPARATORS = st.sampled_from(["", "", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\u00a0",
                                    "\u2028", "\u200b"])
_TOKEN_SOUP = st.lists(st.tuples(_SOUP_TOKENS, _SOUP_SEPARATORS), max_size=10).map(
    lambda pairs: "".join(a + b for a, b in pairs))


class TestOnePassParserMatchesRecursiveDescent:
    @pytest.mark.parametrize("text", [
        "1e200*1e200", "1e-200^(-2)", "1e308+1e308", "1e200^2", "1e999", "x0*1e999",
        "1/1e-320", "x1 $ 2", "x1 + * 2", "sin(", "sin(x1,)", "x1,", "sin(x1),",
        "x1\t+\nsin(\tx2 )", "\n-x1 ^\t2\n", "", "   ", "-0", "- -0", "2^3^2", "x1^-2",
        "-x1^2", "x1^-2^2", "frob(x1)", "x1 x2", "x1^0.5", "x1^x2", "0^-1", "(x1", "x1)",
        "sin x1", "2*-3", "x1 - x2 - x3", "x1/x2/x3", "1 - 2*3/4 + 5", "\u0663*x1",
    ])
    def test_pinned_inputs(self, text):
        _assert_parsed_as_before(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_GRAMMAR_TEXT, _TOKEN_SOUP))
    def test_drawn_grammar_text_and_token_soup(self, text):
        _assert_parsed_as_before(text)
