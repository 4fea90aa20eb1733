"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line with the governing measured value,
so `pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
"""

import json

import numpy as np
import pytest
import solutions

from diracinv import (catalog, cli, clifford, degeneracy, exprlang, inversion, scenario,
                      selftest, verify)
from diracinv.fields import SampleDomain, SpinorField, bilinear, frame, sample_support

SEED = 42
TRIPLES = (
    (1.0, 0.3, 0.2, -0.1),
    (1.3, -0.4, 0.1, 0.35),
    (0.7, 0.8, -0.6, 0.5),
    (2.0, 0.5, -0.3, 0.2),
    (1.0, -0.9, 1.0, -0.8),
    (0.5, 0.2, 1.2, 0.9),
)
DOMAIN = SampleDomain(count=100, seed=SEED)
TENSOR_TOL = scenario.DEFAULT_TOLERANCES["tensor"]  # the family task's equality threshold
FAMILY_DIRECTIONS = ("1", "x0", "sin(x0+x1)")


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def degenerate_instances():
    return [catalog.build("degenerate_example",
                          {"kappa": k, "alpha": a, "phi1": p1, "phi2": p2})
            for k, a, p1, p2 in TRIPLES]


def test_criterion_1_gamma_structure():
    failures = [name for name, passed in clifford.structure_selftest() if not passed]
    ok = not failures
    for mu in range(1, 5):
        for nu in range(1, 5):
            expected = 2.0 * np.eye(4, dtype=complex) if mu == nu else np.zeros((4, 4))
            ok &= bool(np.array_equal(
                clifford.anticommutator(clifford.gamma(mu), clifford.gamma(nu)), expected))
    _verdict("criterion 1: gamma structure holds with exact equality", ok,
             f"failed checks: {failures}" if failures else "46/46 exact")


def test_criterion_2_degenerate_instances_are_force_free_and_null(degenerate_instances):
    worst_resid = 0.0
    worst_ind = 0.0
    pts = DOMAIN.points()
    for inst in degenerate_instances:
        report = verify.residual_norm(sample_support(inst.spinor, DOMAIN), None, inst.kappa)
        worst_resid = max(worst_resid, report.max_norm)
        values = inst.spinor.values(pts)
        norm_sq = np.einsum("ni,ni->n", values.conj(), values).real
        ind = np.abs(np.einsum("ni,ij,nj->n", values.conj(), clifford.delta(4), values))
        worst_ind = max(worst_ind, float((ind / norm_sq).max()))
    ok = worst_resid < 1e-10 and worst_ind < 1e-10
    _verdict("criterion 2: exponential family is force-free and indicator-null "
             f"({len(degenerate_instances)} triples x {DOMAIN.count} points)", ok,
             f"max residual {worst_resid:.2e} (tol 1e-10), "
             f"max indicator {worst_ind:.2e} (tol 1e-10 relative)")


def test_criterion_3_family_correctness(degenerate_instances):
    worst = 0.0
    for (kappa, alpha, phi1, phi2), inst in zip(TRIPLES, degenerate_instances):
        sample = sample_support(inst.spinor, DOMAIN)
        for text in FAMILY_DIRECTIONS:
            member = catalog.example_family(alpha, phi1, phi2,
                                            exprlang.parse(text))
            report = verify.residual_norm(sample, member, kappa)
            worst = max(worst, report.max_norm)
    # The general route must agree with the closed form on the first triple.
    inst = degenerate_instances[0]
    sample = sample_support(inst.spinor, DOMAIN)
    cls = degeneracy.classify(sample)
    base = frame(inversion.FourPotential.zero(), sample.support)
    for text in FAMILY_DIRECTIONS:
        member = degeneracy.potential_family(sample.frame, base, exprlang.parse(text), cls)
        report = verify.residual_norm(sample, member.value, inst.kappa)
        worst = max(worst, report.max_norm)
    _verdict("criterion 3: family members solve the system for f in {1, x0, sin(x0+x1)}",
             worst < 1e-9, f"max residual {worst:.2e} (tol 1e-9)")


def test_criterion_4_theta_real_and_unit_norm(degenerate_instances):
    worst_imag = 0.0
    worst_norm = 0.0
    for inst in degenerate_instances:
        sample = sample_support(inst.spinor, DOMAIN)
        ratios = degeneracy.transpose_theta(sample.values)
        worst_imag = max(worst_imag, float(np.abs(ratios.imag).max()))
        t = degeneracy.theta(sample.frame)
        worst_norm = max(worst_norm, float(np.abs((t ** 2).sum(axis=1) - 1.0).max()))
    ok = worst_imag < 1e-10 and worst_norm < 1e-9
    _verdict("criterion 4: theta ratios are real with unit norm on all support points",
             ok, f"max |Im| {worst_imag:.2e} (tol 1e-10), "
                 f"max |norm-1| {worst_norm:.2e} (tol 1e-9)")


def test_criterion_5_gauge_inequivalent_member_exists(degenerate_instances):
    ok = True
    details = []
    pts = DOMAIN.points()[:25]
    for (kappa, alpha, phi1, phi2), inst in zip(TRIPLES, degenerate_instances):
        base = inversion.FourPotential.zero()
        const = catalog.example_family(alpha, phi1, phi2, exprlang.ONE)
        linear = catalog.example_family(alpha, phi1, phi2, exprlang.Name("x0"))
        base_fr = frame(base, pts)
        base_tensor = verify.field_tensor(base_fr)
        gap_const = verify.tensor_gap(verify.field_tensor(frame(const, pts)), base_tensor)
        gap_linear = verify.tensor_gap(verify.field_tensor(frame(linear, pts)), base_tensor)
        floor = 0.5 * float(np.abs(np.array(inst.thetas)).min())
        ok &= gap_const < 1e-12
        ok &= gap_linear >= floor
        everywhere = DOMAIN.points()
        ok &= verify.tensor_gap(verify.field_tensor(frame(linear, everywhere)),
                                verify.field_tensor(frame(base, everywhere))) >= TENSOR_TOL
        details.append(f"{gap_linear:.3f}>={floor:.3f}")
    _verdict("criterion 5: f=1 member shares the base tensor, f=x0 member does not",
             ok, "linear gaps vs floors: " + ", ".join(details))


def test_criterion_6_inversion_round_trip():
    rng = np.random.default_rng(SEED)
    sample = SampleDomain(count=30, seed=SEED)
    worst_known = 0.0
    worst_agree = 0.0
    second_route_hits = 0
    pairs = [solutions.gauge_rest_pair(float(rng.uniform(0.5, 2.0)), rng)
             for _ in range(10)]
    pairs.append(solutions.gauge_superposition_pair(1.1, rng))
    pts = sample.points()
    for spinor, potential, kappa in pairs:
        fr = frame(spinor, pts)
        combined = inversion.invert_combined(fr, kappa)
        ok = combined.ok  # criterion covers guard-passing points only
        assert not combined.non_real().any()
        if ok.any():
            known = potential.values(pts[ok])
            worst_known = max(worst_known, float(np.abs(combined.a[ok] - known).max()))
        for route in (inversion.invert_gamma4, inversion.invert_gamma5gamma4):
            other = route(fr, kappa)
            both = ok & other.ok
            assert not other.non_real()[both].any()
            if route is inversion.invert_gamma5gamma4:
                second_route_hits += int(np.count_nonzero(both))
            if both.any():
                worst_agree = max(worst_agree, float(
                    np.abs(combined.a[both] - other.a[both]).max()))
    ok = worst_known < 1e-8 and worst_agree < 1e-8 and second_route_hits > 0
    _verdict("criterion 6: inversion recovers manufactured potentials, routes agree "
             f"({len(pairs)} pairs x {sample.count} points)", ok,
             f"max recovery error {worst_known:.2e}, max route gap {worst_agree:.2e} "
             f"(tol 1e-8), second-route points {second_route_hits}")


def test_criterion_7_mass_uniqueness(degenerate_instances):
    rng = np.random.default_rng(SEED)
    domain = SampleDomain(count=40, seed=SEED)
    worst_err = 0.0
    worst_spread = 0.0
    cases = [(catalog.build("rest_plane_wave", {"kappa": k}), None) for k in (1.0, 0.7)]
    cases += [(inst, None) for inst in degenerate_instances]
    for inst, _ in cases:
        estimate = inversion.extract_mass(
            inversion.mass_table(sample_support(inst.spinor, domain).frame), None)
        worst_err = max(worst_err, abs(estimate.kappa - inst.kappa))
        worst_spread = max(worst_spread, estimate.spread)
        # A gauge-transformed variant corresponds to the same mass.
        f, params = solutions.random_gauge_function(rng)
        variant, shift = inversion.gauge_transform(inst.spinor, f, params)
        pot = inversion.FourPotential.zero().plus(shift)
        sample = sample_support(variant, domain)
        estimate = inversion.extract_mass(
            inversion.mass_table(sample.frame),
            exprlang.evaluate(pot.components[0], sample.support, pot.params))
        worst_err = max(worst_err, abs(estimate.kappa - inst.kappa))
        worst_spread = max(worst_spread, estimate.spread)
    ok = worst_err < 1e-9 and worst_spread < 1e-9
    _verdict("criterion 7: every catalog solution and gauge variant returns its "
             "construction mass", ok,
             f"max |kappa error| {worst_err:.2e}, max spread {worst_spread:.2e} (tol 1e-9)")


def test_criterion_8_lightlike_gap(degenerate_instances):
    worst = 0.0
    checked_pairs = 0
    for (kappa, alpha, phi1, phi2), inst in zip(TRIPLES, degenerate_instances):
        members = [inversion.FourPotential.zero()]
        members += [catalog.example_family(alpha, phi1, phi2, exprlang.parse(t))
                    for t in FAMILY_DIRECTIONS]
        sample = sample_support(inst.spinor, DOMAIN)
        cls = degeneracy.classify(sample)
        verified = [m for m in members
                    if verify.residual_norm(sample, m, kappa).max_norm < 1e-9]
        assert len(verified) == 4
        frames = [frame(m, cls.support_points[:25]) for m in verified]
        for i in range(len(frames)):
            for j in range(i + 1, len(frames)):
                worst = max(worst, verify.lightlike_gap_max(frames[i], frames[j]))
                checked_pairs += 1
    _verdict("criterion 8: verified potential pairs are light-like separated",
             worst < 1e-8, f"max |gap| {worst:.2e} over {checked_pairs} pairs (tol 1e-8)")


def test_criterion_9_identity_suites():
    rng = np.random.default_rng(SEED)
    worst_det = 0.0
    for _ in range(1000):
        psi1, psi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scale = (abs(psi1) ** 2 + abs(psi2) ** 2) ** 2
        worst_det = max(worst_det,
                        degeneracy.zero_mass_system_det(psi1, psi2) / max(scale, 1e-20))
    disagree = 0
    borderline = 0
    for _ in range(1000):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cond = degeneracy.bilinear_symmetry_conditions(x)
        if 0.1 < cond.lhs_margin < 10 or 0.1 < cond.rhs_margin < 10:
            borderline += 1
        elif cond.lhs != cond.rhs:
            disagree += 1
    worst_ind = 0.0
    for _ in range(100):
        u, v, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = degeneracy.compose_values(u, v, w)
        scale = max(float(np.linalg.norm(x)) ** 2, 1.0)
        worst_ind = max(worst_ind, abs(np.vdot(x, clifford.delta(4) @ x)) / scale)
    worst_shape = 0.0
    shapes = catalog.gamma2_null_shapes(exprlang.Name("k1"), exprlang.Name("k2"))
    g2 = clifford.gamma(2)
    for shape in shapes:
        for _ in range(20):
            params = {"k1": complex(*rng.standard_normal(2)),
                      "k2": complex(*rng.standard_normal(2))}
            v = SpinorField(shape.components, params).values([(0, 0, 0, 0)])
            worst_shape = max(worst_shape, float(np.abs(bilinear(v, g2, v)).max()))
    ok = (worst_det < 1e-12 and disagree == 0 and worst_ind <= 1e-12
          and worst_shape == 0.0)
    _verdict("criterion 9: determinant, equivalence, null-form and null-shape suites",
             ok, f"det {worst_det:.2e} (tol 1e-12), equivalence disagreements {disagree} "
                 f"(borderline excluded: {borderline}), composed indicator {worst_ind:.2e}, "
                 f"shape bilinear {worst_shape:.2e}")


def test_criterion_10_derivatives_match_finite_differences():
    pairs, covered, missing = selftest.derivative_fd_pairs(SEED)
    worst = max(abs(sym - fd) / abs(sym) for _, _, _, _, sym, fd in pairs)
    ok = len(pairs) == 100 and not missing and worst < 1e-6
    _verdict("criterion 10: symbolic derivatives match central differences on a "
             "grammar-covering generator", ok,
             f"{len(pairs)} pairs, max rel err {worst:.2e} (tol 1e-6), "
             f"missing productions: {sorted(missing) if missing else 'none'}")


def test_criterion_11_selftest_determinism(capsys):
    code1 = cli.main(["selftest", "--seed", "42"])
    first = capsys.readouterr().out
    code2 = cli.main(["selftest", "--seed", "42"])
    second = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and first == second
    with capsys.disabled():
        _verdict("criterion 11: selftest reports are byte-identical for a fixed seed",
                 ok, f"{len(first)} bytes, exit codes {code1}/{code2}")
    json.loads(first)  # the report is well-formed machine-readable output
