"""Invariant suites: structure checks, identity fuzzing, catalog verification.

Each suite returns a CheckSet; `run_selftest` turns them into the report
sections and their totals.  All randomness is seeded, so verdicts and
values are reproducible for a fixed (seed, sample count) pair.
"""

from __future__ import annotations

import numpy as np

from . import catalog, clifford, degeneracy, exprlang, fields, inversion, verify
from .exprlang import Expr
from .fields import SampleDomain, sample_support
from .report import CheckSet

_FD_STEP = 1e-5
_FD_REL_TOL = 1e-6
_FD_PAIRS = 100
_EPS = float(np.finfo(float).eps)

PRODUCTIONS = (
    "number", "variable", "constant", "parameter",
    "negate", "add", "sub", "mul", "div", "pow_pos", "pow_neg",
    "sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh",
)

_PARAM_NAMES = ("k1", "k2")


def _random_expr(rng: np.random.Generator, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.28:
        kind = rng.choice(("number", "variable", "variable", "constant", "parameter"))
        if kind == "number":
            return exprlang.Num(complex(round(rng.uniform(-3, 3), 3)))
        if kind == "variable":
            return exprlang.Name(f"x{rng.integers(0, 4)}")
        if kind == "constant":
            return exprlang.Name(str(rng.choice(("pi", "e", "i"))))
        return exprlang.Name(str(rng.choice(_PARAM_NAMES)))

    kind = str(rng.choice(("negate", "add", "sub", "mul", "div", "pow", "call")))
    if kind == "negate":
        return exprlang.Neg(_random_expr(rng, depth - 1))
    if kind in ("add", "sub", "mul", "div"):
        node_cls = {"add": exprlang.Add, "sub": exprlang.Sub,
                    "mul": exprlang.Mul, "div": exprlang.Div}[kind]
        return node_cls(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "pow":
        return exprlang.Pow(_random_expr(rng, depth - 1), int(rng.choice((-2, -1, 2, 3))))
    return exprlang.Call(str(rng.choice(exprlang.FUNCTIONS)), _random_expr(rng, depth - 1))


def _productions_of(e: Expr) -> set[str]:
    if isinstance(e, exprlang.Num):
        return {"number"}
    if isinstance(e, exprlang.Name):
        if e.ident in exprlang.VARIABLES:
            return {"variable"}
        if e.ident in exprlang.BUILTIN_CONSTANTS:
            return {"constant"}
        return {"parameter"}
    if isinstance(e, exprlang.Neg):
        return {"negate"} | _productions_of(e.arg)
    if isinstance(e, (exprlang.Add, exprlang.Sub, exprlang.Mul, exprlang.Div)):
        tag = {exprlang.Add: "add", exprlang.Sub: "sub",
               exprlang.Mul: "mul", exprlang.Div: "div"}[type(e)]
        return {tag} | _productions_of(e.lhs) | _productions_of(e.rhs)
    if isinstance(e, exprlang.Pow):
        tag = "pow_pos" if e.exponent > 0 else "pow_neg"
        return {tag} | _productions_of(e.base)
    if isinstance(e, exprlang.Call):
        return {e.func} | _productions_of(e.arg)
    raise TypeError(f"unexpected node {e!r}")


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
# evaluates: the point itself, then +-step and +-step/2.
_FD_OFFSETS = np.array([0.0, _FD_STEP, -_FD_STEP, _FD_STEP / 2, -_FD_STEP / 2])


def _fd_values(e: Expr, point: np.ndarray, axis: int,
               params) -> tuple[complex, complex, complex]:
    """The value and the central differences with step and step/2, from one batch."""
    pts = np.repeat(point[None, :], len(_FD_OFFSETS), axis=0)
    pts[:, axis] += _FD_OFFSETS
    value, hi, lo, hi_half, lo_half = exprlang.evaluate(e, pts, params)
    return (complex(value), complex((hi - lo) / (2 * _FD_STEP)),
            complex((hi_half - lo_half) / (2 * (_FD_STEP / 2))))


def derivative_fd_pairs(seed: int):
    """Yield (expr, point, axis, params, sym, fd) with symbolic vs central differences.

    The generator covers every grammar production over the accepted pairs.
    Suitability gating uses only finite-difference-side information (finite
    values, magnitude window, step-halving consistency), never the symbolic
    value, so the comparison stays an honest cross-check.
    """
    rng = np.random.default_rng(seed)
    pending_templates = [exprlang.parse(t) for t in _COVERAGE_TEMPLATES.values()]
    accepted = []
    covered: set[str] = set()
    attempts = 0
    while len(accepted) < _FD_PAIRS and attempts < _FD_PAIRS * 300:
        attempts += 1
        from_template = bool(pending_templates)
        e = pending_templates[0] if from_template else _random_expr(
            rng, depth=int(rng.integers(2, 4)))
        point = rng.uniform(-0.8, 0.8, size=4)
        axis = int(rng.integers(0, 4))
        params = {name: complex(rng.uniform(0.5, 1.5)) for name in _PARAM_NAMES}
        try:
            value, fd, fd_half = _fd_values(e, point, axis, params)
        except exprlang.EvaluationError:
            continue
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
        sym = exprlang.evaluate(exprlang.differentiate(e, axis), point[None], params)[0]
        accepted.append((e, point, axis, params, sym, fd_half))
        covered |= _productions_of(e)
    missing = set(PRODUCTIONS) - covered
    return accepted, covered, missing


def derivative_suite(seed: int) -> CheckSet:
    suite = CheckSet("expression-derivatives")
    pairs, covered, missing = derivative_fd_pairs(seed)
    suite.add("generated enough pairs", len(pairs) == _FD_PAIRS, value=float(len(pairs)))
    suite.add("all grammar productions covered", not missing,
              detail=("missing: " + ", ".join(sorted(missing))) if missing else "")
    worst = 0.0
    for _, _, _, _, sym, fd in pairs:
        worst = max(worst, abs(sym - fd) / abs(sym))
    suite.add("symbolic matches central differences", worst < _FD_REL_TOL, value=worst)
    return suite


def gamma_structure_suite() -> CheckSet:
    suite = CheckSet("gamma-structure")
    suite.checks.extend(clifford.structure_selftest())
    return suite


def identity_suite(seed: int) -> CheckSet:
    """Fuzzed algebraic identities behind the classification machinery."""
    suite = CheckSet("algebraic-identities")
    rng = np.random.default_rng(seed)

    # Pointwise equivalence of the symmetrized conditions and the product form,
    # over random and structured vectors; borderline cases are excluded and counted.
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
    cond = degeneracy.bilinear_symmetry_conditions(np.array(xs))
    borderline = (((0.1 < cond.lhs_margin) & (cond.lhs_margin < 10))
                  | ((0.1 < cond.rhs_margin) & (cond.rhs_margin < 10)))
    disagree = np.count_nonzero(~borderline & (cond.lhs != cond.rhs))
    suite.add("symmetry conditions equivalence (1000 vectors)", disagree == 0,
              value=float(disagree),
              detail=f"borderline excluded: {np.count_nonzero(borderline)}")

    worst_det = 0.0
    for _ in range(1000):
        psi1, psi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scale = max(np.hypot(abs(psi1), abs(psi2)), 1e-9) ** 4
        worst_det = max(worst_det, degeneracy.zero_mass_system_det(psi1, psi2) / scale)
    suite.add("zero-mass system determinant vanishes (1000 pairs)",
              worst_det < 1e-12, value=worst_det)

    triples = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(100)]
    x = np.array([degeneracy.compose_values(*uvw) for uvw in triples])
    scale = np.maximum(fields.squared_norm(x), 1.0)
    worst_ind = float((np.abs(degeneracy.indicator(x)) / scale).max())
    suite.add("composed null form has zero indicator (100 triples)",
              worst_ind <= 1e-12, value=worst_ind)

    # 20 random (psi1, psi2) per shape, drawn as the points (Re psi1, Im psi1,
    # Re psi2, Im psi2), where x0 + i*x1 and x2 + i*x3 evaluate exactly.
    g2 = clifford.gamma(2)
    worst_shape = 0.0
    shapes = catalog.gamma2_null_shapes(exprlang.parse("x0 + i*x1"), exprlang.parse("x2 + i*x3"))
    for shape, pts in zip(shapes, rng.standard_normal((len(shapes), 20, 4))):
        v = shape.values(pts)
        worst_shape = max(worst_shape, float(np.abs(fields.bilinear(v, g2, v)).max()))
    suite.add("all six null shapes annihilate the transpose bilinear",
              worst_shape == 0.0, value=worst_shape)

    # Dyadic rationals keep the half-sum arithmetic exact.
    exact = True
    for _ in range(100):
        x = (rng.integers(-2 ** 20, 2 ** 20, size=4)
             + 1j * rng.integers(-2 ** 20, 2 ** 20, size=4)) / 256.0
        exact = exact and np.array_equal(degeneracy.unzeta(degeneracy.zeta(x)), x)
        z = (rng.integers(-2 ** 20, 2 ** 20, size=4)
             + 1j * rng.integers(-2 ** 20, 2 ** 20, size=4)) / 256.0
        exact = exact and np.array_equal(degeneracy.zeta(degeneracy.unzeta(z)), z)
    suite.add("zeta round-trip exact on dyadic vectors (100 each way)", exact)
    return suite


_FAMILY_FUNCTIONS = ("1", "x0", "sin(x0+x1)")


def catalog_suite(seed: int, samples: int = 100) -> CheckSet:
    """Certify the built-in solutions and the degenerate family machinery."""
    suite = CheckSet("catalog")
    domain = SampleDomain(count=samples, seed=seed)

    rest = catalog.build("rest_plane_wave", {"kappa": 1.0})
    sample = sample_support(rest.spinor, domain)
    report = verify.residual_norm(sample, rest.base_potential, rest.kappa)
    suite.add("rest wave residual", report.max_norm < 1e-12, value=report.max_norm)
    cls = degeneracy.classify(sample, kappa=rest.kappa)
    suite.add("rest wave classified non-degenerate", cls.verdict == "non-degenerate",
              detail=cls.verdict)
    estimate = inversion.extract_mass(sample, None)
    suite.add("rest wave mass recovered", abs(estimate.kappa - 1.0) < 1e-9,
              value=abs(estimate.kappa - 1.0))

    deg = catalog.build("degenerate_example")
    sample = sample_support(deg.spinor, domain)
    report = verify.residual_norm(sample, deg.base_potential, deg.kappa)
    suite.add("degenerate example force-free residual", report.max_norm < 1e-10,
              value=report.max_norm)
    cls = degeneracy.classify(sample, kappa=deg.kappa)
    suite.add("degenerate example classified degenerate", cls.verdict == "degenerate",
              detail=cls.verdict)
    suite.add("transpose bilinear covers support",
              bool(cls.gamma2_covers_support),
              value=cls.gamma2_cover_fraction)

    expected = np.array(deg.thetas)
    t = degeneracy.theta(sample.frame)
    worst_theta = float(np.abs(t.values - expected).max())
    worst_norm = float(np.abs(t.norm_sq - 1.0).max())
    suite.add("theta matches closed form", worst_theta < 1e-9, value=worst_theta)
    suite.add("theta has unit norm", worst_norm < 1e-9, value=worst_norm)

    base = fields.frame(deg.base_potential, sample.support)
    members = []
    for text in _FAMILY_FUNCTIONS:
        f = exprlang.parse(text)
        member = degeneracy.potential_family(sample.frame, base, f, cls)
        members.append(member)
        report = verify.residual_norm(sample, member.value, deg.kappa)
        suite.add(f"family member f={text} residual", report.max_norm < 1e-9,
                  value=report.max_norm)
        a0 = exprlang.add(deg.base_potential.components[0], f)
        estimate = inversion.extract_mass(sample, a0, a0_params=member.params)
        suite.add(f"family member f={text} mass", abs(estimate.kappa - deg.kappa) < 1e-9,
                  value=abs(estimate.kappa - deg.kappa))

    gap_const = verify.tensor_gap(members[0], base)
    suite.add("constant family member is gauge-equivalent to base",
              gap_const < 1e-12, value=gap_const)
    gap_linear = verify.tensor_gap(members[1], base)
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
