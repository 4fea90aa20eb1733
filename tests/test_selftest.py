"""The fuzz suites draw in blocks the numbers the per-trial draws gave; the
coverage templates span the grammar; the derivative suite draws each axis
among the variables its tree reads, evaluates and builds trees only for the
trees that read one, and fails a wrong derivative rule."""

import dataclasses
import math
import typing
import warnings

import numpy as np
import pytest

from diracinv import cli, degeneracy, exprlang, selftest


def _old_random_expr(rng, depth):
    """The generator as it drew with rng.choice, kept as the stream's reference."""
    if depth <= 0 or rng.random() < 0.28:
        kind = rng.choice(("number", "variable", "variable", "constant", "parameter"))
        if kind == "number":
            return exprlang.Num(complex(round(rng.uniform(-3, 3), 3)))
        if kind == "variable":
            return exprlang.Name(f"x{rng.integers(0, 4)}")
        if kind == "constant":
            return exprlang.Name(str(rng.choice(("pi", "e", "i"))))
        return exprlang.Name(str(rng.choice(("k1", "k2"))))

    kind = str(rng.choice(("negate", "add", "sub", "mul", "div", "pow", "call")))
    if kind == "negate":
        return exprlang.Neg(_old_random_expr(rng, depth - 1))
    if kind in ("add", "sub", "mul", "div"):
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        return exprlang.Binary(op, _old_random_expr(rng, depth - 1),
                               _old_random_expr(rng, depth - 1))
    if kind == "pow":
        return exprlang.Pow(_old_random_expr(rng, depth - 1), int(rng.choice((-2, -1, 2, 3))))
    return exprlang.Call(str(rng.choice(exprlang.FUNCTIONS)), _old_random_expr(rng, depth - 1))


def _old_symmetry_vectors(rng):
    xs = []
    for trial in range(1000):
        kind = trial % 4
        if kind == 0:
            xs.append(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        elif kind == 1:
            u, v, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            xs.append(degeneracy.compose_values(u, v, w))
        elif kind == 2:
            p1, p2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xs.append(np.array([p1, p2, p1, p2]))
        else:
            p1, p2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xs.append(np.array([p1, p2, -p1, -p2]))
    return np.array(xs)


def _bits(x) -> np.ndarray:
    return np.atleast_1d(x).view(np.uint64)


@pytest.mark.parametrize("seed", range(5))
def test_random_expressions_follow_the_choice_stream(seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(500):
        a = selftest._build(selftest._draw_recipe(new, depth=int(new.integers(2, 4))))
        b = _old_random_expr(old, depth=int(old.integers(2, 4)))
        assert exprlang.to_text(a) == exprlang.to_text(b)
        assert a == b
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_symmetry_vectors_drawn_in_one_block_equal_the_per_trial_draws(seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    xs = selftest._symmetry_vectors(new)
    assert xs.shape == (1000, 4)
    assert np.array_equal(_bits(xs), _bits(_old_symmetry_vectors(old)))
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("n, k", [(1000, 2), (100, 3)])
def test_complex_normal_blocks_equal_the_per_trial_draws(n, k):
    new, old = np.random.default_rng(7), np.random.default_rng(7)
    block = selftest._complex_normals(new.standard_normal((n, 2 * k)))
    trials = np.array([old.standard_normal(k) + 1j * old.standard_normal(k) for _ in range(n)])
    assert np.array_equal(_bits(block), _bits(trials))
    assert new.bit_generator.state == old.bit_generator.state


def _old_zero_mass_system_det(psi1: complex, psi2: complex) -> float:
    k1, l1 = psi1.real, psi1.imag
    k2, l2 = psi2.real, psi2.imag
    m = np.array([
        [-k1, -k2, -l2, -k1],
        [-l1, -l2, k2, -l1],
        [-k2, -k1, l1, k2],
        [-l2, -l1, -k1, l2],
    ])
    return float(abs(np.linalg.det(m)))


def test_batched_zero_mass_determinant_has_the_bits_of_each_pair():
    rng = np.random.default_rng(3)
    psi1, psi2 = selftest._complex_normals(rng.standard_normal((1000, 4))).T
    batched = degeneracy.zero_mass_system_det(psi1, psi2)
    singles = [_old_zero_mass_system_det(p1, p2) for p1, p2 in zip(psi1, psi2)]
    assert batched.shape == (1000,)
    assert np.array_equal(_bits(batched), _bits(np.array(singles)))
    assert degeneracy.zero_mass_system_det(psi1[7], psi2[7]) == singles[7]


def _node_types(e) -> set[type]:
    """The node classes of a tree."""
    children = [getattr(e, f.name) for f in dataclasses.fields(e)]
    return {type(e)}.union(*(_node_types(c) for c in children
                             if isinstance(c, typing.get_args(exprlang.Expr))))


def test_the_coverage_templates_use_every_node_and_print_back_to_themselves():
    trees = [exprlang.parse(text) for text in selftest._COVERAGE_TEMPLATES.values()]
    assert set().union(*map(_node_types, trees)) == set(typing.get_args(exprlang.Expr))
    for tree in trees:
        assert exprlang.parse(exprlang.to_text(tree)) == tree


# Ranges of `integers`: one value (no draw), small ones, and 3 * 2**30 and
# 2**31 + 1, where Lemire's method rejects about one u32 in four and in two.
_RANGES = [(0, 1), (5, 6), (0, 2), (0, 4), (2, 4), (0, 7), (-2 ** 20, 2 ** 20),
           (0, 3 * 2 ** 30), (-1, 3 * 2 ** 30 + 2), (0, 2 ** 31 + 1)]


def _draw(rng, op: int):
    """One call, picked by `op`: random, a uniform over one of three intervals, or integers."""
    if op == 0:
        return rng.random().hex()
    if op <= 3:
        lo, hi = ((-3, 3), (-0.8, 0.8), (0.5, 1.5))[op - 1]
        return rng.uniform(lo, hi).hex()
    return int(rng.integers(*_RANGES[op - 4]))


@pytest.mark.parametrize("seed", [0, 1, 42, 109300515])
def test_the_raw_reader_draws_what_the_generator_draws(seed):
    # 3 000 interleaved calls take more than one 1 024-draw block.
    ops = np.random.default_rng([seed, 1]).integers(0, 4 + len(_RANGES), size=3000).tolist()
    reader, generator = selftest._RawDraws(seed), np.random.default_rng(seed)
    assert [_draw(reader, op) for op in ops] == [_draw(generator, op) for op in ops]
    # Then the next 64 draws of each kind.
    for op in [0] * 64 + [2] * 64 + [7] * 64 + [11] * 64:
        assert _draw(reader, op) == _draw(generator, op)


class _CountingDraws(selftest._RawDraws):
    u64s = 0

    def _u64(self) -> int:
        self.u64s += 1
        return super()._u64()


def test_the_wide_range_takes_lemire_rejections_and_still_matches():
    # With n = 3 * 2**30, a u32 is rejected when the low word of u32 * n is
    # below 2**30, about one time in four.
    reader, generator = _CountingDraws(3), np.random.default_rng(3)
    values = [reader.integers(0, 3 * 2 ** 30) for _ in range(2000)]
    assert values == [int(generator.integers(0, 3 * 2 ** 30)) for _ in range(2000)]
    u32s = 2 * reader.u64s - (reader._half is not None)
    assert 2500 < u32s < 2850


@pytest.mark.parametrize("seed", [0, 42, 109300515])
def test_selftest_sections_equal_with_the_generator_in_place_of_the_reader(seed,
                                                                           monkeypatch):
    with_reader = selftest.run_selftest(seed, 100)
    monkeypatch.setattr(selftest, "_RawDraws", np.random.default_rng)
    assert selftest.run_selftest(seed, 100) == with_reader


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_zeta_integers_drawn_in_one_block_equal_the_per_iteration_draws(seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    block = new.integers(-2 ** 20, 2 ** 20, size=(100, 2, 2, 4))
    turns = [[[old.integers(-2 ** 20, 2 ** 20, size=4) for _ in "ri"] for _ in "xz"]
             for _ in range(100)]
    assert np.array_equal(block, np.array(turns))
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_scales_from_python_scalars_have_the_bits_of_the_numpy_scalar_ones(seed):
    rng = np.random.default_rng(seed)
    rng.standard_normal((250, 22))  # the symmetry check's block comes first
    psi1, psi2 = selftest._complex_normals(rng.standard_normal((1000, 4))).T
    old = [max(np.hypot(abs(p1), abs(p2)), 1e-9) ** 4 for p1, p2 in zip(psi1, psi2)]
    assert np.array_equal(_bits(selftest._scales(psi1, psi2)), _bits(np.array(old)))


def _old_fd_values(e, point, axis, params):
    """The value and the central differences with step and step/2, from one batch."""
    pts = np.repeat(point[None, :], len(selftest._FD_OFFSETS), axis=0)
    pts[:, axis] += selftest._FD_OFFSETS
    value, hi, lo, hi_half, lo_half = exprlang.evaluate(e, pts, params)
    return (complex(value), complex((hi - lo) / (2 * selftest._FD_STEP)),
            complex((hi_half - lo_half) / (2 * (selftest._FD_STEP / 2))))


def _old_derivative_fd_pairs(seed):
    """The pairs as the two-call path drew them, kept as the reference.

    Every attempt builds its tree; one that reads a variable draws its point,
    an axis among the variables it reads and its parameters, evaluates the
    tree at its five points, and an accepted one then its partial at the
    point alone.
    """
    rng = selftest._RawDraws(seed)
    pending = list(selftest._coverage_trees())
    accepted, covered, attempts = [], set(), 0
    while len(accepted) < selftest._FD_PAIRS and attempts < selftest._FD_PAIRS * 300:
        attempts += 1
        from_template = bool(pending)
        if from_template:
            e, variables = pending[0]
        else:
            variables = set()
            e = selftest._build(selftest._draw_recipe(rng, int(rng.integers(2, 4)), variables))
        read = [k for k in range(4) if exprlang.VARIABLES[k] in variables]
        if not read:
            continue
        coords = [rng.uniform(-0.8, 0.8) for _ in range(4)]
        axis = read[rng.integers(0, len(read))]
        ks = [rng.uniform(0.5, 1.5) for _ in selftest._PARAM_NAMES]
        point = np.array(coords)
        params = {name: complex(k) for name, k in zip(selftest._PARAM_NAMES, ks)}
        try:
            value, fd, fd_half = _old_fd_values(e, point, axis, params)
        except exprlang.EvaluationError:
            continue
        if not (1e-3 <= abs(fd) <= 1e4 and abs(value) <= 1e6):
            continue
        if abs(fd - fd_half) > 3e-7 * abs(fd_half):
            continue
        if 16 * selftest._EPS * abs(value) / (selftest._FD_STEP / 2) > 1e-7 * abs(fd_half):
            continue
        if from_template:
            pending.pop(0)
        sym = exprlang.evaluate(exprlang.differentiate(e, axis), point[None], params)[0]
        accepted.append((e, point, axis, params, sym, fd_half))
        covered |= selftest._productions_of(e)
    return accepted, covered, set(selftest._COVERAGE_TEMPLATES) - covered


def _pair_bits(pair):
    e, point, axis, params, sym, fd = pair
    return (e, _bits(point).tolist(), int(axis), params, _bits(sym).tolist(),
            _bits(fd).tolist())


@pytest.mark.parametrize("seed", [0, 1, 42, 369, 109300515, 1161092498, 1510276717])
def test_one_walk_per_attempt_gives_the_pairs_of_the_two_call_path(seed):
    new_pairs, new_covered, new_missing = selftest.derivative_fd_pairs(seed)
    old_pairs, old_covered, old_missing = _old_derivative_fd_pairs(seed)
    assert [_pair_bits(p) for p in new_pairs] == [_pair_bits(p) for p in old_pairs]
    assert (new_covered, new_missing) == (old_covered, old_missing)


def _node_count(e) -> int:
    children = [getattr(e, f.name) for f in dataclasses.fields(e)]
    return 1 + sum(_node_count(c) for c in children
                   if isinstance(c, typing.get_args(exprlang.Expr)))


def test_evaluate_runs_and_trees_are_built_only_past_the_axis_check(monkeypatch):
    trees, built = [], [0]
    evaluate, build = exprlang.evaluate, selftest._build

    def counting_evaluate(e, *args, **kwargs):
        trees.append(e)
        return evaluate(e, *args, **kwargs)

    def counting_build(recipe):
        built[0] += 1
        return build(recipe)

    monkeypatch.setattr(exprlang, "evaluate", counting_evaluate)
    monkeypatch.setattr(selftest, "_build", counting_build)
    old_pairs, _, _ = _old_derivative_fd_pairs(42)
    old_calls, old_nodes = len(trees), built[0]
    trees.clear()
    built[0] = 0
    pairs, _, _ = selftest.derivative_fd_pairs(42)
    # One call per attempt whose tree reads a variable, on the tree and its partial;
    # the two-call path made those and one more per accepted pair.
    assert all(isinstance(e, list) and len(e) == 2 for e in trees)
    assert len(trees) == old_calls - len(old_pairs) == 104
    assert old_calls == 204
    # The random trees built are exactly the ones evaluated; templates are parsed.
    templates = [t for t, _ in selftest._coverage_trees()]
    evaluated = [e for e, _ in trees if not any(e is t for t in templates)]
    assert built[0] == sum(map(_node_count, evaluated)) == 442
    assert old_nodes == 637


def _old_compose_values(u, v, w):
    wbar = np.conj(w)
    return np.array([u * wbar + v, u - v * w, u * wbar - v, u + v * w], dtype=complex)


@pytest.mark.parametrize("shape", [(), (7,), (5, 9)])
def test_compose_values_on_arrays_has_the_bits_of_each_scalar_call(shape):
    normals = np.random.default_rng(11).standard_normal(shape + (6,))
    u, v, w = np.moveaxis(selftest._complex_normals(normals), -1, 0)
    x = degeneracy.compose_values(u, v, w)
    assert x.shape == shape + (4,)
    singles = [_old_compose_values(*t) for t in zip(u.ravel(), v.ravel(), w.ravel())]
    assert np.array_equal(_bits(x), _bits(np.reshape(singles, shape + (4,))))


def test_an_attempt_whose_partial_is_non_finite_off_the_point_is_skipped(monkeypatch):
    # One pair more than the suite takes, so the stream past the skip shows.
    monkeypatch.setattr(selftest, "_FD_PAIRS", selftest._FD_PAIRS + 1)
    baseline, _, _ = selftest.derivative_fd_pairs(42)
    monkeypatch.setattr(selftest, "_FD_PAIRS", selftest._FD_PAIRS - 1)
    k = len(selftest._COVERAGE_TEMPLATES) + 10  # an accepted random tree
    target_e, target_point, target_axis, target_params, _, _ = baseline[k]
    pole = exprlang.Num(complex(target_point[target_axis] + selftest._FD_STEP))
    differentiate = exprlang.differentiate

    def with_pole(e, axis):
        # The partial plus 1/(x - pole) - 1/(x - pole): exactly 0 off the pole,
        # which only the target's +step point sits on.
        x = exprlang.Name(exprlang.VARIABLES[axis])
        r = exprlang.Binary("/", exprlang.ONE, exprlang.Binary("-", x, pole))
        return exprlang.Binary("+", differentiate(e, axis), exprlang.Binary("-", r, r))

    # At the point itself the partial is finite, so the two-call path kept the pair.
    at_point = exprlang.evaluate(with_pole(target_e, target_axis), target_point[None],
                                 target_params)
    assert np.isfinite(at_point).all()
    monkeypatch.setattr(exprlang, "differentiate", with_pole)
    pairs, _, missing = selftest.derivative_fd_pairs(42)
    assert not missing
    expected = baseline[:k] + baseline[k + 1:]
    assert [_pair_bits(p)[:4] + _pair_bits(p)[5:] for p in pairs] == \
        [_pair_bits(p)[:4] + _pair_bits(p)[5:] for p in expected]
    assert [p[4] for p in pairs] == [p[4] for p in expected]


def test_a_zero_partial_fails_the_comparison_with_a_finite_value(monkeypatch, capsys):
    monkeypatch.setattr(exprlang, "differentiate", lambda e, axis: exprlang.ZERO)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        suite = selftest.derivative_suite(3)
    assert len(suite.checks) == 3
    comparison = suite.checks[2]
    assert comparison["name"] == "symbolic matches central differences"
    assert not comparison["passed"] and math.isfinite(comparison["value"])
    assert [c["passed"] for c in suite.checks[:2]] == [True, True]
    # The CLI reports the failed check (exit 1) instead of a rendering error (exit 2).
    assert cli.main(["selftest", "--seed", "3"]) == 1
    assert "not JSON compliant" not in capsys.readouterr().err


def test_the_recipe_gathers_the_productions_and_variables_its_tree_holds():
    # 400 (seed, depth) draws; together they reach every production.
    union = set()
    for seed in range(100):
        for depth in range(4):
            seen = set()
            recipe = selftest._draw_recipe(np.random.default_rng([seed, depth]), depth, seen)
            assert seen == selftest._productions_of(selftest._build(recipe))
            union |= seen
    assert union == set(selftest._COVERAGE_TEMPLATES) | set(exprlang.VARIABLES)


def test_each_attempt_draws_its_axis_among_the_variables_its_tree_reads(monkeypatch):
    log, depth, axes = [], [0], []

    class LoggingDraws(selftest._RawDraws):
        def uniform(self, lo, hi):
            log.append(("uniform", lo, hi))
            return super().uniform(lo, hi)

        def integers(self, lo, hi):
            log.append(("integers", lo, hi))
            return super().integers(lo, hi)

    draw_recipe, differentiate = selftest._draw_recipe, exprlang.differentiate

    def logging_draw_recipe(rng, d, seen=None):
        # The recursion comes back through this wrapper; mark the outermost call.
        if depth[0] == 0:
            log.append(("start",))
        depth[0] += 1
        try:
            return draw_recipe(rng, d, seen)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                log.append(("read", sorted(set(seen) & set(exprlang.VARIABLES))))

    def logging_differentiate(e, axis):
        axes.append(exprlang.VARIABLES[axis] in selftest._productions_of(e))
        return differentiate(e, axis)

    monkeypatch.setattr(selftest, "_RawDraws", LoggingDraws)
    monkeypatch.setattr(selftest, "_draw_recipe", logging_draw_recipe)
    monkeypatch.setattr(exprlang, "differentiate", logging_differentiate)
    pairs, _, missing = selftest.derivative_fd_pairs(42)
    assert len(pairs) == selftest._FD_PAIRS and not missing
    # Every evaluated attempt is differentiated along a variable its tree reads.
    assert all(axes)

    # The draws before the first recipe and after each one, up to the next
    # recipe's depth draw: the templates' attempts, then each recipe's.
    starts = [k for k, entry in enumerate(log) if entry == ("start",)]
    assert all(log[k - 1] == ("integers", 2, 4) for k in starts)
    segments = [(None, log[:starts[0] - 1])]
    for k, nxt in zip(starts, starts[1:] + [len(log) + 1]):
        end = next(j for j in range(k, nxt) if log[j][0] == "read")
        segments.append((log[end][1], log[end + 1:nxt - 1]))
    assert any(read == [] for read, _ in segments)
    evaluated = 0
    for read, scalars in segments:
        if read == []:
            assert scalars == []  # a tree that reads no variable draws nothing more
            continue
        attempts = len(scalars) // 7
        assert attempts >= 1 and len(scalars) == 7 * attempts
        for a in range(attempts):
            group = scalars[7 * a:7 * a + 7]
            assert group[:4] == [("uniform", -0.8, 0.8)] * 4
            assert group[4][:2] == ("integers", 0) and group[5:] == [("uniform", 0.5, 1.5)] * 2
            if read is not None:
                assert attempts == 1 and group[4][2] == len(read)
        evaluated += attempts
    assert evaluated == len(axes)


def _mutant_diff(node_type, rule):
    """A `_diff` that takes `rule(e, axis, d)` for `node_type` nodes, d the mutant itself."""
    diff = exprlang._diff

    def mutant(e, axis):
        return rule(e, axis, mutant) if isinstance(e, node_type) else diff(e, axis)
    return mutant


_MUTANTS = {
    "cos' = +sin": ("_FUNCTIONS", "cos", lambda c: exprlang.Call("sin", c.arg)),
    "log' = 1/(2x)": ("_FUNCTIONS", "log", lambda c: exprlang.div(
        exprlang.ONE, exprlang.mul(exprlang.Num(2 + 0j), c.arg))),
    "quotient rule with + for -": ("_BINARY", "/", lambda l, r, dl, dr: exprlang.div(
        exprlang.add(exprlang.mul(dl, r), exprlang.mul(l, dr)), exprlang.powi(r, 2))),
    "product rule without l*dr": ("_BINARY", "*", lambda l, r, dl, dr: exprlang.mul(dl, r)),
    "power rule with exponent - 2": ("_diff", exprlang.Pow, lambda e, axis, d: exprlang.mul(
        exprlang.mul(exprlang.Num(complex(e.exponent)), exprlang.powi(e.base, e.exponent - 2)),
        d(e.base, axis))),
    "negation keeps the sign": ("_diff", exprlang.Neg, lambda e, axis, d: d(e.arg, axis)),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_the_derivative_suite_fails_a_wrong_derivative_rule_on_every_seed(mutant, monkeypatch):
    table, key, rule = _MUTANTS[mutant]
    if table == "_FUNCTIONS":
        monkeypatch.setitem(exprlang._FUNCTIONS, key, (exprlang._FUNCTIONS[key][0], rule))
    elif table == "_BINARY":
        monkeypatch.setitem(exprlang._BINARY, key, exprlang._BINARY[key][:3] + (rule,))
    else:
        monkeypatch.setattr(exprlang, "_diff", _mutant_diff(key, rule))
    for seed in range(10):
        checks = selftest.derivative_suite(seed).checks
        assert [c["passed"] for c in checks] == [True, True, False], (mutant, seed)
