"""Invariant suites: structure checks, identity fuzzing, catalog verification.

Each suite returns a CheckSet; `run_selftest` turns them into the report
sections and their totals.  All randomness is seeded, so verdicts and
values are reproducible for a fixed (seed, sample count) pair.  The fuzz
suites draw in blocks from that same stream, so every number is the one the
per-trial `Generator` draws gave: the identity suite takes each check's
numbers in one call, and the derivative suite reads its scalar draws from
raw blocks of the bit generator through `_RawDraws`, which repeats
`Generator`'s arithmetic for `random`, `uniform` and `integers`.

The suites pay per check, not per draw.  A derivative attempt draws its
tree as a recipe of nested tuples that gathers the tree's productions and
variables; a tree that reads no variable draws nothing more.  Otherwise the
attempt draws its axis among those variables, builds the nodes, evaluates
the tree and its partial in one `exprlang.evaluate` call over the point and
its four offsets, and reads the symbolic partial from row 0.  The identity
suite composes each batch of null vectors in one elementwise
`degeneracy.compose_values` call.
"""

from __future__ import annotations

import functools

import numpy as np

from . import catalog, clifford, degeneracy, exprlang, fields, inversion, verify
from .exprlang import Expr
from .fields import HeldDomain, sample_support
from .report import CheckSet

_FD_STEP = 1e-5
_FD_REL_TOL = 1e-6
_FD_PAIRS = 100
_EPS = float(np.finfo(float).eps)

_PARAM_NAMES = ("k1", "k2")


def _pick(rng, options: tuple):
    """rng.choice(options) as Generator.choice draws it, without its array conversion."""
    return options[rng.integers(0, len(options))]


# The production name of each binary operator.
_PRODUCTIONS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def _draw_recipe(rng, depth: int, seen: set[str] | None = None) -> tuple:
    """The draws of a random tree, as nested (node class, *fields) tuples.

    `rng` is a Generator or a `_RawDraws`, which draw the same numbers.  The
    tree's productions and the variables x0..x3 it reads, named as
    `_productions_of` names them, are added to `seen` when it is given.
    """
    seen = set() if seen is None else seen
    if depth <= 0 or rng.random() < 0.28:
        kind = _pick(rng, ("number", "variable", "variable", "constant", "parameter"))
        seen.add(kind)
        if kind == "number":
            return exprlang.Num, complex(round(rng.uniform(-3, 3), 3))
        if kind == "variable":
            name = f"x{rng.integers(0, 4)}"
            seen.add(name)
            return exprlang.Name, name
        if kind == "constant":
            return exprlang.Name, _pick(rng, ("pi", "e", "i"))
        return exprlang.Name, _pick(rng, _PARAM_NAMES)

    kind = _pick(rng, ("negate", "+", "-", "*", "/", "pow", "call"))
    if kind == "negate":
        seen.add(kind)
        return exprlang.Neg, _draw_recipe(rng, depth - 1, seen)
    if kind in _PRODUCTIONS:
        seen.add(_PRODUCTIONS[kind])
        return (exprlang.Binary, kind, _draw_recipe(rng, depth - 1, seen),
                _draw_recipe(rng, depth - 1, seen))
    if kind == "pow":
        base, exponent = _draw_recipe(rng, depth - 1, seen), _pick(rng, (-2, -1, 2, 3))
        seen.add("pow_pos" if exponent > 0 else "pow_neg")
        return exprlang.Pow, base, exponent
    func = _pick(rng, exprlang.FUNCTIONS)
    seen.add(func)
    return exprlang.Call, func, _draw_recipe(rng, depth - 1, seen)


def _build(recipe: tuple) -> Expr:
    """The tree of a recipe, one node per tuple."""
    node_cls, *fields = recipe
    return node_cls(*(_build(f) if isinstance(f, tuple) else f for f in fields))


class _RawDraws:
    """Generator's scalar random, uniform and integers, read from raw PCG64 blocks.

    Each method repeats the arithmetic of `np.random.default_rng(seed)`'s
    own, so a sequence of calls returns the same numbers bit for bit,
    without a Generator call per number.  A double is the top 53 bits of a
    u64.  A bounded integer takes a u32 as PCG64's next_uint32 does (the low
    half of a fresh u64, keeping the high half for the next u32) and applies
    Lemire's method with its rejection loop, for ranges of at most 2**32
    values; a one-value range draws nothing.
    """

    _BLOCK = 1024

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._block = iter(())
        self._half: int | None = None

    def _u64(self) -> int:
        u = next(self._block, None)
        if u is None:
            self._block = iter(self._bits.random_raw(self._BLOCK).tolist())
            u = next(self._block)
        return u

    def random(self) -> float:
        return (self._u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if n == 1:
            return lo
        threshold = (2 ** 32 - n) % n
        while True:
            if self._half is None:
                u = self._u64()
                u32, self._half = u & 0xFFFFFFFF, u >> 32
            else:
                u32, self._half = self._half, None
            m = u32 * n
            if m & 0xFFFFFFFF >= threshold:
                return lo + (m >> 32)


def _productions_of(e: Expr) -> set[str]:
    """The grammar productions a tree uses, and the variables x0..x3 it reads."""
    if isinstance(e, exprlang.Num):
        return {"number"}
    if isinstance(e, exprlang.Name):
        if e.ident in exprlang.VARIABLES:
            return {"variable", e.ident}
        if e.ident in exprlang.BUILTIN_CONSTANTS:
            return {"constant"}
        return {"parameter"}
    if isinstance(e, exprlang.Neg):
        return {"negate"} | _productions_of(e.arg)
    if isinstance(e, exprlang.Binary):
        return {_PRODUCTIONS[e.op]} | _productions_of(e.lhs) | _productions_of(e.rhs)
    if isinstance(e, exprlang.Pow):
        tag = "pow_pos" if e.exponent > 0 else "pow_neg"
        return {tag} | _productions_of(e.base)
    if isinstance(e, exprlang.Call):
        return {e.func} | _productions_of(e.arg)
    raise TypeError(f"unexpected node {e!r}")


# One template per grammar production, keyed by the production's name.
_COVERAGE_TEMPLATES: dict[str, str] = {
    "number": "2.5*x1",
    "variable": "x2",
    "constant": "pi*x0 + e*x1 + i*x2",
    "parameter": "k1*x3",
    "negate": "-x0*x1",
    "add": "x0 + x1",
    "sub": "x2 - x3",
    "mul": "x0*x2",
    "div": "x0/(x1 + 4)",
    "pow_pos": "x1^3",
    "pow_neg": "(x2 + 4)^(-2)",
    "sin": "sin(x0 + 0.3)",
    "cos": "cos(x1 - 0.2)",
    "tan": "tan(0.4*x2)",
    "exp": "exp(0.5*x3)",
    "log": "log(2.5 + x1^2)",
    "sqrt": "sqrt(2.5 + x2^2)",
    "sinh": "sinh(0.5*x0)",
    "cosh": "cosh(0.5*x1)",
}


# Offsets along the differentiation axis of the five points one attempt
# evaluates: the point itself, then +-step and +-step/2.  _FD_SHIFTS[axis]
# adds them to that axis's column of five copies of the point.
_FD_OFFSETS = np.array([0.0, _FD_STEP, -_FD_STEP, _FD_STEP / 2, -_FD_STEP / 2])
_FD_SHIFTS = np.eye(4)[:, None, :] * _FD_OFFSETS[:, None]


@functools.cache
def _coverage_trees() -> tuple[tuple[Expr, frozenset[str]], ...]:
    """The coverage templates parsed, each with its productions, once per process."""
    trees = map(exprlang.parse, _COVERAGE_TEMPLATES.values())
    return tuple((e, frozenset(_productions_of(e))) for e in trees)


def derivative_fd_pairs(seed: int):
    """Accepted (expr, point, axis, params, sym, fd), and the productions covered and missing.

    The generator covers every grammar production over the accepted pairs,
    as their recipes (or the templates' parses) gathered them.  The axis is
    drawn among the variables the tree reads; a tree that reads none is
    skipped before its point, axis and parameters are drawn.  Suitability
    gating uses only finite-difference-side information (finite values,
    magnitude window, step-halving consistency), never the symbolic value,
    so the comparison stays an honest cross-check.  An attempt whose
    partial is non-finite at any of its five points is skipped.
    """
    rng = _RawDraws(seed)
    pending_templates = list(_coverage_trees())
    accepted = []
    covered: set[str] = set()
    attempts = 0
    while len(accepted) < _FD_PAIRS and attempts < _FD_PAIRS * 300:
        attempts += 1
        from_template = bool(pending_templates)
        if from_template:
            e, seen = pending_templates[0]
        else:
            seen = set()
            recipe = _draw_recipe(rng, int(rng.integers(2, 4)), seen)
        # Along an axis the tree does not read, fd is exactly 0, which the
        # window below rejects; so a tree that reads none draws nothing more.
        read = [k for k, x in enumerate(exprlang.VARIABLES) if x in seen]
        if not read:
            continue
        coords = [rng.uniform(-0.8, 0.8) for _ in range(4)]
        axis = read[rng.integers(0, len(read))]
        ks = [rng.uniform(0.5, 1.5) for _ in _PARAM_NAMES]
        if not from_template:
            e = _build(recipe)
        point = np.array(coords)
        pts = point + _FD_SHIFTS[axis]
        params = {name: complex(k) for name, k in zip(_PARAM_NAMES, ks)}
        # One walk: the partial shares e's nodes, so the memo evaluates each once.
        try:
            rows = exprlang.evaluate([e, exprlang.differentiate(e, axis)], pts, params)
        except exprlang.EvaluationError:
            continue
        value, hi, lo, hi_half, lo_half = rows[0]
        value = complex(value)
        fd = complex((hi - lo) / (2 * _FD_STEP))
        fd_half = complex((hi_half - lo_half) / (2 * (_FD_STEP / 2)))
        if not (1e-3 <= abs(fd) <= 1e4 and abs(value) <= 1e6):
            continue
        # Step-halving error estimate for the difference quotient itself: its
        # truncation error is ~4/3 of this gap, so the gate keeps only pairs
        # where the quotient is good to ~1e-7 relative, independent of the
        # symbolic value being tested.  Round-off in the quotient grows like
        # eps * |value| / step, so pairs where that is not far below the
        # same relative bound are rejected too.
        if abs(fd - fd_half) > 3e-7 * abs(fd_half):
            continue
        if 16 * _EPS * abs(value) / (_FD_STEP / 2) > 1e-7 * abs(fd_half):
            continue
        if from_template:
            pending_templates.pop(0)
        accepted.append((e, point, axis, params, rows[1, 0], fd_half))
        covered |= seen
    missing = set(_COVERAGE_TEMPLATES) - covered
    return accepted, covered, missing


def derivative_suite(seed: int) -> CheckSet:
    suite = CheckSet("expression-derivatives")
    pairs, covered, missing = derivative_fd_pairs(seed)
    suite.add("generated enough pairs", len(pairs) == _FD_PAIRS, value=float(len(pairs)))
    suite.add("all grammar productions covered", not missing,
              detail=("missing: " + ", ".join(sorted(missing))) if missing else "")
    worst = 0.0
    for _, _, _, _, sym, fd in pairs:
        # A zero partial takes fd's scale; the gate keeps |fd| >= 1e-3.
        worst = max(worst, abs(sym - fd) / (abs(sym) or abs(fd)))
    suite.add("symbolic matches central differences", worst < _FD_REL_TOL, value=worst)
    return suite


def gamma_structure_suite() -> CheckSet:
    suite = CheckSet("gamma-structure")
    for name, passed in clifford.structure_selftest():
        suite.add(name, passed)
    return suite


def _complex_normals(normals: np.ndarray) -> np.ndarray:
    """normals[..., :k] + i normals[..., k:] for 2k columns.

    A row of rng.standard_normal((n, 2k)) holds the numbers that
    rng.standard_normal(k) + 1j * rng.standard_normal(k) draws next, so one
    block call gives n such vectors, in turn, from the same stream.
    """
    k = normals.shape[-1] // 2
    return normals[..., :k] + 1j * normals[..., k:]


def _symmetry_vectors(rng: np.random.Generator) -> np.ndarray:
    """The 1000 vectors (1000, 4) of the symmetry check, in turns of four kinds.

    Random; composed null; [p1, p2, p1, p2]; [p1, p2, -p1, -p2].  A turn
    takes 8 + 6 + 4 + 4 = 22 normals, drawn as one row of a (250, 22) block.
    """
    free, uvw, same, flip = (_complex_normals(b) for b in
                             np.split(rng.standard_normal((250, 22)), [8, 14, 18], axis=1))
    composed = degeneracy.compose_values(*uvw.T)
    turns = (free, composed, np.hstack([same, same]), np.hstack([flip, -flip]))
    return np.stack(turns, axis=1).reshape(-1, 4)


def _scales(psi1: np.ndarray, psi2: np.ndarray) -> list[float]:
    """max(hypot(|p1|, |p2|), 1e-9) ** 4 per pair, from Python scalars."""
    return [max(abs(complex(abs(p1), abs(p2))), 1e-9) ** 4
            for p1, p2 in zip(psi1.tolist(), psi2.tolist())]


def identity_suite(seed: int) -> CheckSet:
    """Fuzzed algebraic identities behind the classification machinery.

    Each check draws its sample as one block from the seeded stream.
    """
    suite = CheckSet("algebraic-identities")
    rng = np.random.default_rng(seed)

    # Pointwise equivalence of the symmetrized conditions and the product form,
    # over random and structured vectors; borderline cases are excluded and counted.
    cond = degeneracy.bilinear_symmetry_conditions(_symmetry_vectors(rng))
    borderline = (((0.1 < cond.lhs_margin) & (cond.lhs_margin < 10))
                  | ((0.1 < cond.rhs_margin) & (cond.rhs_margin < 10)))
    disagree = np.count_nonzero(~borderline & (cond.lhs != cond.rhs))
    suite.add("symmetry conditions equivalence (1000 vectors)", disagree == 0,
              value=float(disagree),
              detail=f"borderline excluded: {np.count_nonzero(borderline)}")

    # The scale stays a per-pair scalar expression: numpy's array abs, hypot
    # and power may differ from the scalar ones in the last bit.  Python's
    # complex abs is libm's hypot and its ** libm's pow, as for numpy scalars.
    psi1, psi2 = _complex_normals(rng.standard_normal((1000, 4))).T
    dets = degeneracy.zero_mass_system_det(psi1, psi2)
    scales = _scales(psi1, psi2)
    worst_det = float((dets / scales).max())
    suite.add("zero-mass system determinant vanishes (1000 pairs)",
              worst_det < 1e-12, value=worst_det)

    triples = _complex_normals(rng.standard_normal((100, 6)))
    x = degeneracy.compose_values(*triples.T)
    scale = np.maximum(fields.squared_norm(x), 1.0)
    worst_ind = float((np.abs(degeneracy.indicator(x)) / scale).max())
    suite.add("composed null form has zero indicator (100 triples)",
              worst_ind <= 1e-12, value=worst_ind)

    # 20 random (psi1, psi2) per shape, drawn as the points (Re psi1, Im psi1,
    # Re psi2, Im psi2), where x0 + i*x1 and x2 + i*x3 evaluate exactly.
    g2 = clifford.gamma(2)
    worst_shape = 0.0
    shapes = _null_shapes()
    for shape, pts in zip(shapes, rng.standard_normal((len(shapes), 20, 4))):
        v = shape.values(pts)
        worst_shape = max(worst_shape, float(np.abs(fields.bilinear(v, g2, v)).max()))
    suite.add("all six null shapes annihilate the transpose bilinear",
              worst_shape == 0.0, value=worst_shape)

    # Dyadic rationals keep the half-sum arithmetic exact.  The four bounded
    # draws per turn share one range, so one block call draws the same numbers.
    ints = rng.integers(-2 ** 20, 2 ** 20, size=(100, 2, 2, 4))
    x, z = np.moveaxis((ints[:, :, 0] + 1j * ints[:, :, 1]) / 256.0, 1, 0)
    exact = (np.array_equal(degeneracy.unzeta(degeneracy.zeta(x)), x)
             and np.array_equal(degeneracy.zeta(degeneracy.unzeta(z)), z))
    suite.add("zeta round-trip exact on dyadic vectors (100 each way)", exact)
    return suite


@functools.cache
def _null_shapes() -> tuple:
    """The six null shapes of psi1 = x0 + i*x1 and psi2 = x2 + i*x3, once per process."""
    return tuple(catalog.gamma2_null_shapes(exprlang.parse("x0 + i*x1"),
                                            exprlang.parse("x2 + i*x3")))


_FAMILY_FUNCTIONS = ("1", "x0", "sin(x0+x1)")


def catalog_suite(seed: int, samples: int = 100) -> CheckSet:
    """Certify the built-in solutions and the degenerate family machinery."""
    suite = CheckSet("catalog")
    domain = HeldDomain(count=samples, seed=seed)  # both spinors sample the same points

    rest = catalog.build("rest_plane_wave", {"kappa": 1.0})
    sample = sample_support(rest.spinor, domain)
    report = verify.residual_norm(sample, rest.base_potential, rest.kappa)
    suite.add("rest wave residual", report.max_norm < 1e-12, value=report.max_norm)
    cls = degeneracy.classify(sample)
    suite.add("rest wave classified non-degenerate", cls.verdict == "non-degenerate",
              detail=cls.verdict)
    estimate = inversion.extract_mass(inversion.mass_table(sample.frame), None)
    suite.add("rest wave mass recovered", abs(estimate.kappa - 1.0) < 1e-9,
              value=abs(estimate.kappa - 1.0))

    deg = catalog.build("degenerate_example")
    sample = sample_support(deg.spinor, domain)
    report = verify.residual_norm(sample, deg.base_potential, deg.kappa)
    suite.add("degenerate example force-free residual", report.max_norm < 1e-10,
              value=report.max_norm)
    cls = degeneracy.classify(sample)
    suite.add("degenerate example classified degenerate", cls.verdict == "degenerate",
              detail=cls.verdict)

    expected = np.array(deg.thetas)
    worst_ratio = float(np.abs(degeneracy.transpose_theta(sample.values) - expected).max())
    suite.add("transpose-bilinear ratios match closed form", worst_ratio < 1e-9,
              value=worst_ratio)
    t = degeneracy.theta(sample.frame)
    worst_theta = float(np.abs(t - expected).max())
    worst_norm = float(np.abs((t ** 2).sum(axis=1) - 1.0).max())
    suite.add("theta matches closed form", worst_theta < 1e-9, value=worst_theta)
    suite.add("theta has unit norm", worst_norm < 1e-9, value=worst_norm)

    # deg.base_potential is zero, so a member's a0 is f, as the member evaluated it.
    base = fields.zero_frame(sample.support)
    table = inversion.mass_table(sample.frame)
    members = []
    for text in _FAMILY_FUNCTIONS:
        member = degeneracy.potential_family(sample.frame, base, exprlang.parse(text), cls)
        members.append(member)
        report = verify.residual_norm(sample, member.value, deg.kappa)
        suite.add(f"family member f={text} residual", report.max_norm < 1e-9,
                  value=report.max_norm)
        estimate = inversion.extract_mass(table, member.f_value)
        suite.add(f"family member f={text} mass", abs(estimate.kappa - deg.kappa) < 1e-9,
                  value=abs(estimate.kappa - deg.kappa))

    # Only the f = 1 and f = x0 members' field tensors are read.
    const, linear = (verify.field_tensor(degeneracy.member_frame(sample.frame, base, m))
                     for m in (members[0], members[1]))
    base_tensor = verify.field_tensor(base)
    gap_const = verify.tensor_gap(const, base_tensor)
    suite.add("constant family member is gauge-equivalent to base",
              gap_const < 1e-12, value=gap_const)
    gap_linear = verify.tensor_gap(linear, base_tensor)
    floor = 0.5 * float(np.abs(expected).min())
    suite.add("linear family member is gauge-inequivalent to base",
              gap_linear >= max(floor, 1e-3), value=gap_linear)

    worst_gap = max(verify.lightlike_gap_max(m, base) for m in members)
    worst_gap = max(worst_gap, verify.lightlike_gap_max(members[1], members[0]))
    suite.add("potential pairs are light-like separated", worst_gap < 1e-8,
              value=worst_gap)
    return suite


def run_selftest(seed: int, samples: int) -> tuple[list[dict], int, int]:
    """Run every suite; returns the report sections, the number of checks and of failures."""
    builders = (
        ("gamma-structure", gamma_structure_suite),
        ("expression-derivatives", lambda: derivative_suite(seed)),
        ("algebraic-identities", lambda: identity_suite(seed)),
        ("catalog", lambda: catalog_suite(seed, samples)),
    )
    suites = []
    for name, build in builders:
        try:
            suites.append(build())
        except Exception as exc:  # a crashed suite is a failed suite, not a crash
            failed = CheckSet(name)
            failed.add("suite completed", False, detail=f"{type(exc).__name__}: {exc}")
            suites.append(failed)
    return ([s.as_dict() for s in suites], sum(len(s.checks) for s in suites),
            sum(s.n_failed for s in suites))
