"""The fuzz suites draw in blocks the numbers the per-trial draws gave; the
coverage templates span the grammar."""

import dataclasses
import typing

import numpy as np
import pytest

from diracinv import degeneracy, exprlang, selftest


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
        node_cls = {"add": exprlang.Add, "sub": exprlang.Sub,
                    "mul": exprlang.Mul, "div": exprlang.Div}[kind]
        return node_cls(_old_random_expr(rng, depth - 1), _old_random_expr(rng, depth - 1))
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
    return np.asarray(x).view(np.uint64)


@pytest.mark.parametrize("seed", range(5))
def test_random_expressions_follow_the_choice_stream(seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(500):
        a = selftest._random_expr(new, depth=int(new.integers(2, 4)))
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
