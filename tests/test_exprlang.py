"""Parser, differentiator and evaluator contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracinv import exprlang, selftest
from diracinv.errors import EvaluationError, ParseError, QuadratureError
from diracinv.exprlang import (differentiate, evaluate, evaluate_many, parse,
                               to_text)

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

    def test_vectorized_surfaces_nonfinite(self):
        pts = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(EvaluationError):
            evaluate_many(parse("1/x1"), pts)


class TestDifferentiate:
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

    def test_conjugate_derivative_commutes(self, rng):
        e = parse("exp(i*x0) * (x1 + 2*i)")
        d = differentiate(exprlang.conjugate(e), 0)
        for _ in range(10):
            p = rng.uniform(-1, 1, 4)
            expected = complex(evaluate(differentiate(e, 0), [p])[0]).conjugate()
            assert evaluate(d, [p])[0] == pytest.approx(expected, rel=1e-14)


class TestPathIntegral:
    def test_zero_integrand_gives_zeros(self, rng):
        pts = rng.uniform(-1, 1, (5, 4))
        assert np.array_equal(exprlang.path_integral(exprlang.ZERO, 0.0, pts), np.zeros(5))

    def test_constant_integrand(self):
        values = exprlang.path_integral(parse("0.7"), 0.0, [(0.4, 0, 0, 0)])
        assert values.shape == (1,)
        assert values[0] == pytest.approx(0.28, rel=1e-10)

    def test_parameters_bind_in_the_integrand(self):
        values = exprlang.path_integral(parse("k*x1"), 0.0, [(0.5, 2.0, 0, 0)], {"k": 3.0})
        assert values[0] == pytest.approx(3.0, rel=1e-12)

    def test_lower_limit_and_reversed_paths(self):
        pts = [(0.2, 0, 0, 0), (-0.6, 0, 0, 0), (0.5, 0, 0, 0)]
        values = exprlang.path_integral(parse("2*x0"), 0.5, pts)
        assert np.abs(values - np.array([0.04 - 0.25, 0.36 - 0.25, 0.0])).max() <= 1e-15

    def test_partials_of_the_integral(self, rng):
        # d/dx0 gives the integrand back; d/dx1 is the integral of its x1 partial.
        e = parse("sin(x0)*x1^2")
        p = rng.uniform(-1, 1, 4)
        h = 1e-5
        shifted = np.repeat(p[None, :], 4, axis=0)
        shifted[:, :2] += [[h, 0], [-h, 0], [0, h], [0, -h]]
        f = exprlang.path_integral(e, 0.0, shifted)
        spatial = exprlang.path_integral(differentiate(e, 1), 0.0, [p])[0]
        assert (f[0] - f[1]) / (2 * h) == pytest.approx(evaluate(e, [p])[0], rel=1e-7, abs=1e-9)
        assert (f[2] - f[3]) / (2 * h) == pytest.approx(spatial, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("text, closed_form", [
        ("sin(x0)", lambda p: 1 - np.cos(p[:, 0])),
        ("exp(0.3*x0)*x1", lambda p: (np.exp(0.3 * p[:, 0]) - 1) / 0.3 * p[:, 1]),
        ("1/(x0+3)", lambda p: np.log((p[:, 0] + 3) / 3)),
    ])
    def test_closed_forms_at_fifty_points(self, rng, text, closed_form):
        pts = rng.uniform(-1, 1, (50, 4))
        values = exprlang.path_integral(parse(text), 0.0, pts)
        assert np.abs(values - closed_form(pts)).max() <= 1e-12

    def test_unresolved_integrand_fails_at_the_panel_cap(self):
        # A peak of width 1e-6 on the path is beyond 64 panels of 15 nodes.
        with pytest.raises(QuadratureError, match="no convergence"):
            exprlang.path_integral(parse("1/((x0 - 0.3)^2 + 1e-12)"), 0.0, [(1.0, 0, 0, 0)])

    def test_integrand_evaluation_error_is_a_quadrature_error(self):
        with pytest.raises(QuadratureError, match="path quadrature failed: division"):
            exprlang.path_integral(parse("1/x1"), 0.0, [(1.0, 0, 0, 0)])

    @pytest.mark.parametrize("points", [[(0.0, 0.0, 0.0)], [(math.nan, 0, 0, 0)]])
    def test_rejects_bad_points(self, points):
        with pytest.raises(ValueError):
            exprlang.path_integral(parse("x0"), 0.0, points)


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
