"""Classification, theta ratios, family generation, null-form algebra."""

import numpy as np
import pytest

from test_acceptance import TRIPLES

from diracinv import catalog, degeneracy, exprlang, verify
from diracinv.clifford import delta, gamma
from diracinv.degeneracy import (bilinear_symmetry_conditions, classify, compose_values,
                                 indicator, potential_family, theta, unzeta,
                                 zero_mass_system_det, zeta)
from diracinv.errors import (GuardViolated, NoSupportPoints, NonRealPotential, NonRealTheta,
                             NotDegenerate)
from diracinv.exprlang import Expr
from diracinv.fields import SampleDomain, SpinorField, frame, merge_params, sample_support
from diracinv.inversion import FourPotential

POINT = (0.21, -0.33, 0.54, -0.18)
AT_POINT = [POINT]


# Degenerate but no Dirac solution: psi = u [w, 1, w, 1] + v [1, -w, -1, w]
# with u = 1 + 0.5 x1, w = 0.3 + 0.2 x2 and v = exp(i x0), so theta is real
# and varies from point to point.
NON_CONSTANT_THETA = ["(1+0.5*x1)*(0.3+0.2*x2)+exp(i*x0)",
                      "1+0.5*x1-exp(i*x0)*(0.3+0.2*x2)",
                      "(1+0.5*x1)*(0.3+0.2*x2)-exp(i*x0)",
                      "1+0.5*x1+exp(i*x0)*(0.3+0.2*x2)"]


# The symbolic family member of earlier versions, kept as a reference: theta
# as closed-form ratios of transpose bilinears of the spinor components.
def _transpose_bilinear_expr(field: SpinorField, matrix: np.ndarray) -> Expr:
    out: Expr = exprlang.ZERO
    for r in range(4):
        for c in range(4):
            coeff = complex(matrix[r, c])
            if coeff != 0:
                term = exprlang.mul(exprlang.Num(coeff),
                                    exprlang.mul(field.components[r], field.components[c]))
                out = exprlang.add(out, term)
    return out


def theta_exprs(field: SpinorField) -> tuple[Expr, Expr, Expr]:
    den = _transpose_bilinear_expr(field, gamma(2))
    minus_i = exprlang.Num(-1j)
    plus_i = exprlang.Num(1j)
    t1 = exprlang.div(exprlang.mul(
        minus_i, _transpose_bilinear_expr(field, gamma(5) @ gamma(3))), den)
    t2 = exprlang.div(exprlang.mul(minus_i, _transpose_bilinear_expr(field, gamma(4))), den)
    t3 = exprlang.div(exprlang.mul(
        plus_i, _transpose_bilinear_expr(field, gamma(5) @ gamma(1))), den)
    return t1, t2, t3


def symbolic_member(field: SpinorField, base: FourPotential, f: Expr,
                    f_params=None) -> FourPotential:
    t1, t2, t3 = theta_exprs(field)
    comps = [exprlang.add(base.components[0], f)] + [
        exprlang.add(a, exprlang.mul(f, t))
        for a, t in zip(base.components[1:], (t1, t2, t3))]
    return FourPotential(comps, merge_params(base.params, field.params, f_params))


@pytest.fixture(scope="module")
def edge_wave():
    return SpinorField.from_strings(
        ["exp(kappa*x2)", "0", "0", "exp(kappa*x2)"], {"kappa": 1.0})


class TestIndicator:
    def test_edge_wave_is_null(self, edge_wave, rng):
        pts = rng.uniform(-1, 1, (10, 4))
        assert np.abs(indicator(edge_wave.values(pts))).max() < 1e-14

    def test_rest_wave_is_unity(self, rest_wave, rng):
        pts = rng.uniform(-1, 1, (10, 4))
        for value in indicator(rest_wave.spinor.values(pts)):
            assert value == pytest.approx(1.0, abs=1e-13)

    def test_composed_null_form_random_uvw(self, rng):
        for _ in range(100):
            u, v, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = compose_values(u, v, w)
            norm_sq = float(np.vdot(x, x).real)
            assert abs(indicator(x)) <= 1e-12 * max(norm_sq, 1.0)

    def test_splits_into_real_and_imaginary_bilinears(self, rng):
        # The indicator's real part is the hermitian bilinear and its
        # imaginary part the anti-hermitian one, so it vanishes iff both do.
        from diracinv.fields import bilinear
        g54 = gamma(5) @ gamma(4)
        for _ in range(50):
            values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            field = SpinorField([exprlang.Num(complex(c)) for c in values])
            ind = indicator(field.values(AT_POINT))[0]
            v = field.values(AT_POINT)
            b4 = bilinear(v.conj(), gamma(4), v)[0]
            b54 = bilinear(v.conj(), g54, v)[0]
            assert ind == pytest.approx(b4 + b54, rel=1e-13, abs=1e-13)
            assert abs(b4.imag) < 1e-13 * abs(ind + 1)
            assert abs(b54.real) < 1e-13 * abs(ind + 1)


class TestClassify:
    def test_degenerate_example(self, degenerate_default, unit_domain):
        cls = classify(sample_support(degenerate_default.spinor, unit_domain), kappa=1.0)
        assert cls.verdict == "degenerate"
        assert len(cls.s_points) == 0
        assert cls.gamma2_covers_support is True
        assert cls.gamma2_cover_fraction == 1.0

    def test_rest_wave(self, rest_wave, unit_domain):
        cls = classify(sample_support(rest_wave.spinor, unit_domain), kappa=1.0)
        assert cls.verdict == "non-degenerate"
        assert len(cls.degenerate_points) == 0

    def test_keeps_transpose_bilinear_and_norm_for_every_verdict(self, rest_wave,
                                                                  unit_domain):
        # The rest wave is non-degenerate and its transpose g2 bilinear
        # vanishes identically; |psi|^2 = 1 on the whole support.
        cls = classify(sample_support(rest_wave.spinor, unit_domain), kappa=1.0)
        assert cls.gamma2_cover_fraction is None
        assert cls.transpose_g2.shape == cls.norm_sq.shape == (len(cls.support_points),)
        assert np.array_equal(cls.transpose_g2, np.zeros(len(cls.support_points)))
        assert cls.norm_sq == pytest.approx(1.0, abs=1e-15)

    def test_zero_spinor_raises(self, unit_domain):
        zero = SpinorField.from_strings(["0", "0", "0", "0"])
        with pytest.raises(NoSupportPoints):
            classify(sample_support(zero, unit_domain))

    def test_mixed_sample_reported_honestly(self, unit_domain):
        # With a deliberately loose tolerance part of the support looks null:
        # the honest verdict is "mixed", never silently rounded to a clean one.
        field = SpinorField.from_strings(["1", "0", "0", "exp(x1)"])
        cls = classify(sample_support(field, unit_domain), tol=0.5)
        assert cls.verdict == "mixed"
        assert len(cls.s_points) > 0 and len(cls.degenerate_points) > 0

    def test_tolerance_validation(self, rest_wave, unit_domain):
        with pytest.raises(ValueError):
            classify(sample_support(rest_wave.spinor, unit_domain), tol=0.0)


class TestTheta:
    def test_catalog_example_closed_form(self, degenerate_default, rng):
        # Signs fixed by the forward residual: (+cos a cos(p2-p1),
        # +cos a sin(p2-p1), -sin a) for the exponential example.
        expected = np.array(catalog.example_thetas(0.3, 0.2, -0.1))
        pts = rng.uniform(-1, 1, (10, 4))
        t = theta(frame(degenerate_default.spinor, pts))
        for values, residue in zip(t.values, t.imag_residue):
            assert values == pytest.approx(expected, abs=1e-9)
            assert residue < 1e-10

    def test_axis_aligned_parameters(self):
        inst = catalog.build("degenerate_example",
                             {"kappa": 1.0, "alpha": 0.0, "phi1": 0.0, "phi2": 0.0})
        t = theta(frame(inst.spinor, AT_POINT))
        assert t.values[0] == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-12)

    def test_unit_norm_over_random_parameters(self, rng):
        for _ in range(20):
            alpha = float(rng.uniform(-1.2, 1.2))
            phi1 = float(rng.uniform(-1.2, 1.2))
            phi2 = float(rng.uniform(-1.2, 1.2))
            inst = catalog.build("degenerate_example",
                                 {"kappa": 1.0, "alpha": alpha,
                                  "phi1": phi1, "phi2": phi2})
            t = theta(frame(inst.spinor, AT_POINT))
            assert t.norm_sq[0] == pytest.approx(1.0, abs=1e-9)

    def test_guard_violated_when_denominator_vanishes(self):
        field = SpinorField.from_strings(["1", "0", "0", "0"])
        with pytest.raises(GuardViolated):
            theta(frame(field, AT_POINT))

    def test_nonreal_theta_flags_non_solutions(self):
        field = SpinorField.from_strings(["1", "2*i", "0.3", "0-1"])
        with pytest.raises(NonRealTheta):
            theta(frame(field, AT_POINT))

    def test_batch_raises_for_the_first_bad_point(self):
        # Non-real wherever x1 != 0; at x1 = 0 the spinor vanishes and the
        # guard misses.  The first bad point in the given order decides.
        field = SpinorField.from_strings(["x1", "2*i*x1", "0.3*x1", "0-x1"])
        nonreal, vanishing = (0.1, 0.5, 0.2, 0.3), (0.1, 0.0, 0.2, 0.3)
        with pytest.raises(NonRealTheta, match=r"at \(0\.1, 0\.5, 0\.2, 0\.3\)"):
            theta(frame(field, [nonreal, vanishing]))
        with pytest.raises(GuardViolated, match=r"at \(0\.1, 0\.0, 0\.2, 0\.3\)"):
            theta(frame(field, [vanishing, nonreal]))


def _family_inputs(field: SpinorField, base: FourPotential, domain: SampleDomain,
                   kappa: float):
    sample = sample_support(field, domain)
    return sample, frame(base, sample.support), classify(sample, kappa=kappa)


class TestPotentialFamily:
    def test_zero_direction_returns_base(self, degenerate_default, unit_domain):
        base = FourPotential.from_strings(["x0", "0.5", "0", "x1"])
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor, base,
                                              unit_domain, 1.0)
        member = potential_family(sample.frame, base_fr, exprlang.ZERO, cls)
        assert member.value == pytest.approx(base_fr.value, abs=1e-12)
        assert member.derivs == pytest.approx(base_fr.derivs, abs=1e-12)

    def test_matches_catalog_closed_form(self, degenerate_default, unit_domain):
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain, 1.0)
        f = exprlang.parse("sin(x0+x1)")
        general = potential_family(sample.frame, base_fr, f, cls)
        closed = frame(catalog.example_family(1.0, 0.3, 0.2, -0.1, f), sample.support)
        assert general.value == pytest.approx(closed.value, abs=1e-9)
        assert verify.field_tensor(general) == pytest.approx(
            verify.field_tensor(closed), abs=1e-9)

    def test_members_pass_the_residual_oracle(self, degenerate_default, unit_domain):
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain, 1.0)
        for text in ("1", "x0", "sin(x0+x1)"):
            member = potential_family(sample.frame, base_fr, exprlang.parse(text), cls)
            assert verify.residual_norm(sample, member.value, 1.0).max_norm < 1e-9

    def test_members_share_one_direction_and_leave_it_unchanged(self, degenerate_default,
                                                                unit_domain):
        # Each member reads the direction its frame holds; building one member
        # must not change what the next one reads.
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain, 1.0)
        fr = sample.frame.rows(slice(None))
        texts = ("1", "x0", "sin(x0+x1)")
        shared = [potential_family(fr, base_fr, exprlang.parse(t), cls) for t in texts]
        held = fr.held(degeneracy._direction)
        assert not any(part.flags.writeable for part in held)
        for text, member in zip(texts, shared):
            alone = potential_family(sample.frame.rows(slice(None)), base_fr,
                                     exprlang.parse(text), cls)
            assert member.value.tobytes() == alone.value.tobytes()
            assert member.derivs.tobytes() == alone.derivs.tobytes()

    def test_requires_degenerate_classification(self, rest_wave, unit_domain):
        sample, base_fr, cls = _family_inputs(rest_wave.spinor, FourPotential.zero(),
                                              unit_domain, 1.0)
        with pytest.raises(NotDegenerate):
            potential_family(sample.frame, base_fr, exprlang.ONE, cls)

    def test_f_sees_base_spinor_and_own_parameters(self, degenerate_default, unit_domain):
        base = FourPotential.from_strings(["b", "0", "0", "0"], {"b": 0.5})
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor, base,
                                              unit_domain, 1.0)
        # c2 = sin(alpha) is a parameter of the spinor.
        f = exprlang.parse("b*c2 + g*x0")
        member = potential_family(sample.frame, base_fr, f, cls, {"g": 2.0})
        expected = 0.5 + 0.5 * np.sin(0.3) + 2.0 * sample.support[:, 0]
        assert member.value[:, 0] == pytest.approx(expected, abs=1e-12)
        assert member.params == {**base.params, **degenerate_default.spinor.params,
                                 "g": 2.0}
        with pytest.raises(ValueError, match="conflicting values for parameter 'b'"):
            potential_family(sample.frame, base_fr, f, cls, {"b": 1.0, "g": 2.0})

    def test_non_real_direction_raises(self, degenerate_default, unit_domain):
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain, 1.0)
        with pytest.raises(NonRealPotential):
            potential_family(sample.frame, base_fr, exprlang.parse("i*x0"), cls)

    def test_vanishing_denominator_raises(self, degenerate_default):
        # Forced through a frame of points on which psiT g2 psi vanishes.
        collapsed = SpinorField.from_strings(["1", "0", "-1", "0"])
        fr = frame(collapsed, AT_POINT)
        cls = classify(sample_support(degenerate_default.spinor,
                                      SampleDomain(count=5, seed=1)))
        with pytest.raises(GuardViolated, match="vanishes"):
            potential_family(fr, frame(FourPotential.zero(), AT_POINT), exprlang.ONE, cls)

    def test_theta_exprs_evaluate_like_theta(self, degenerate_default, rng):
        exprs = theta_exprs(degenerate_default.spinor)
        params = degenerate_default.spinor.params
        pts = rng.uniform(-1, 1, (5, 4))
        t = theta(frame(degenerate_default.spinor, pts))
        for p, expected in zip(pts, t.values):
            values = [exprlang.evaluate(e, [p], params)[0] for e in exprs]
            assert np.real(values) == pytest.approx(expected, abs=1e-12)


_MATCH_CASES = [(f"triple-{i}", t) for i, t in enumerate(TRIPLES)] + [
    ("zero-mass", (0.0, 0.3, 0.2, -0.1)), ("non-constant-theta", None)]


@pytest.mark.parametrize("label, triple", _MATCH_CASES, ids=[c[0] for c in _MATCH_CASES])
def test_frame_members_match_the_symbolic_ones(label, triple):
    if triple is None:
        field, kappa = SpinorField.from_strings(NON_CONSTANT_THETA), 1.0
    else:
        params = dict(zip(("kappa", "alpha", "phi1", "phi2"), triple))
        field, kappa = catalog.build("degenerate_example", params).spinor, triple[0]
    base = FourPotential.from_strings(["0.2*x1", "sin(x0)", "0", "x2*x3"])
    sample, base_fr, cls = _family_inputs(field, base, SampleDomain(count=80, seed=5),
                                          kappa)
    assert cls.verdict == "degenerate"
    for text in ("1", "x0", "sin(x0+x1)", "x1*exp(0.3*x2)"):
        f = exprlang.parse(text)
        member = potential_family(sample.frame, base_fr, f, cls)
        reference = frame(symbolic_member(field, base, f), sample.support)
        assert np.abs(member.value - reference.value).max() <= 1e-12
        gap = np.abs(verify.field_tensor(member) - verify.field_tensor(reference)).max()
        assert gap <= 1e-12
    spread = np.ptp(theta(sample.frame).values, axis=0).max()
    assert spread > 0.1 if triple is None else spread < 1e-12


class TestComposeDecompose:
    def test_compose_simple_values(self):
        assert compose_values(1, 0, 0) == pytest.approx(np.array([0, 1, 0, 1]))
        assert compose_values(0.5, 0.5, 1) == pytest.approx(np.array([1, 0, 0, 1]))

    def test_compose_field_form(self, rng):
        # u = x1, v = i x2, w = exp(i x0) written out component by component.
        field = SpinorField.from_strings(["x1*exp(-i*x0) + i*x2", "x1 - i*x2*exp(i*x0)",
                                          "x1*exp(-i*x0) - i*x2", "x1 + i*x2*exp(i*x0)"])
        p = (0.3, 0.7, -0.4, 0.0)
        u, v, w = 0.7, -0.4j, np.exp(0.3j)
        assert field.values([p])[0] == pytest.approx(compose_values(u, v, w), rel=1e-12)
        pts = rng.uniform(-1, 1, (20, 4))
        assert np.abs(indicator(field.values(pts))).max() <= 1e-14

    def test_spans_the_two_null_directions(self, rng):
        for _ in range(100):
            u, v, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            wbar = np.conj(w)
            expected = u * np.array([wbar, 1, wbar, 1]) + v * np.array([1, -w, -1, w])
            assert compose_values(u, v, w) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_unbounded_w_locus_is_a_limit_of_the_form(self):
        # [1, 0, 1, 0] is indicator-null, but the form reaches it only as
        # |w| grows without bound, with u = 1/conj(w) and v = 0.
        target = np.array([1, 0, 1, 0], dtype=complex)
        assert indicator(target) == 0
        for w in (1e3, 1e6, 1e9):
            approach = compose_values(1 / np.conj(w), 0, w)
            assert np.abs(approach - target).max() == pytest.approx(1 / w, rel=1e-12)


class TestZeta:
    def test_hand_values(self):
        assert zeta(np.array([1, 0, 0, 1])) == pytest.approx(
            np.array([0.5, 0.5, 0.5, -0.5]))
        assert zeta(np.array([1, 1, 1, 1])) == pytest.approx(
            np.array([1.0, 0.0, 1.0, 0.0]))

    def test_matrix_product_is_exactly_identity(self):
        from diracinv.degeneracy import _UNZETA, _ZETA
        assert np.array_equal(_UNZETA @ _ZETA, np.eye(4, dtype=complex))
        assert np.array_equal(_ZETA @ _UNZETA, np.eye(4, dtype=complex))

    def test_round_trip_exact_on_dyadic_vectors(self, rng):
        for _ in range(100):
            x = (rng.integers(-2 ** 20, 2 ** 20, 4)
                 + 1j * rng.integers(-2 ** 20, 2 ** 20, 4)) / 256.0
            assert np.array_equal(unzeta(zeta(x)), x)
            assert np.array_equal(zeta(unzeta(x)), x)

    def test_round_trip_general_floats_within_one_ulp(self, rng):
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            back = unzeta(zeta(x))
            assert np.abs(back - x).max() <= 4 * np.finfo(float).eps * np.abs(x).max()

    def test_collapsed_forms_have_zero_zeta_pairs(self, rng):
        # [p1, p2, p1, p2] collapses the difference coordinates and
        # [p1, p2, -p1, -p2] the sum coordinates.
        p1, p2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z_plus = zeta(np.array([p1, p2, p1, p2]))
        assert abs(z_plus[1]) == 0 and abs(z_plus[3]) == 0
        z_minus = zeta(np.array([p1, p2, -p1, -p2]))
        assert abs(z_minus[0]) == 0 and abs(z_minus[2]) == 0


class TestSymmetryConditions:
    def test_null_form_satisfies_both_sides(self, rng):
        for _ in range(50):
            u, v, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cond = bilinear_symmetry_conditions(compose_values(u, v, w))
            assert cond.lhs and cond.rhs

    def test_zero_vector(self):
        cond = bilinear_symmetry_conditions(np.zeros(4, dtype=complex))
        assert cond.lhs and cond.rhs

    def test_unit_vector_equivalence(self):
        cond = bilinear_symmetry_conditions(np.array([1, 0, 0, 0], dtype=complex))
        assert cond.lhs == cond.rhs

    def test_equivalence_over_random_vectors(self, rng):
        disagreements = 0
        borderline = 0
        for _ in range(1000):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            cond = bilinear_symmetry_conditions(x)
            if 0.1 < cond.lhs_margin < 10 or 0.1 < cond.rhs_margin < 10:
                borderline += 1
            elif cond.lhs != cond.rhs:
                disagreements += 1
        assert disagreements == 0

    def test_collapsed_pair_condition_characterization(self, rng):
        # Both conditions hold exactly on the two collapsed forms and fail on
        # generic vectors.
        g2 = gamma(2)
        d4 = delta(4)
        for _ in range(50):
            p1, p2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for sign in (1, -1):
                x = np.array([p1, p2, sign * p1, sign * p2])
                scale = float(np.vdot(x, x).real) + 1e-30
                assert abs(x @ (g2 @ x)) <= 1e-13 * scale
                assert abs(np.vdot(x, d4 @ x)) <= 1e-13 * scale
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            scale = float(np.vdot(x, x).real)
            assert (abs(x @ (g2 @ x)) > 1e-10 * scale
                    or abs(np.vdot(x, d4 @ x)) > 1e-10 * scale)


class TestZeroMass:
    def test_constant_solution_family_still_verifies(self, unit_domain):
        # kappa = 0 collapses the exponential example to a constant spinor,
        # still degenerate; the family identity is mass-independent.
        inst = catalog.build("degenerate_example",
                             {"kappa": 0.0, "alpha": 0.3, "phi1": 0.2, "phi2": -0.1})
        sample = sample_support(inst.spinor, unit_domain)
        cls = classify(sample, kappa=0.0)
        assert cls.verdict == "degenerate"
        assert cls.gamma2_covers_support is None  # asserted only for nonzero mass
        assert cls.gamma2_cover_fraction == 1.0
        base = frame(FourPotential.zero(), sample.support)
        member = potential_family(sample.frame, base, exprlang.parse("sin(x0+x1)"), cls)
        report = verify.residual_norm(sample, member.value, 0.0)
        assert report.max_norm < 1e-9
        from diracinv.inversion import extract_mass
        assert extract_mass(sample, None).kappa == pytest.approx(
            0.0, abs=1e-12)

    def test_collapsed_solution_has_no_family_region(self, unit_domain):
        # [1, 0, -1, 0] solves the force-free system with kappa = 0 and is
        # indicator-null, but its transpose bilinear vanishes identically:
        # the reported cover fraction is zero and theta is undefined.
        field = SpinorField.from_strings(["1", "0", "-1", "0"])
        sample = sample_support(field, unit_domain)
        report = verify.residual_norm(sample, None, 0.0)
        assert report.max_norm == 0.0
        cls = classify(sample, kappa=0.0)
        assert cls.verdict == "degenerate"
        assert cls.gamma2_cover_fraction == 0.0
        with pytest.raises(GuardViolated):
            theta(frame(field, AT_POINT))


class TestZeroMassSystemDet:
    def test_zero_second_component(self):
        assert zero_mass_system_det(1.0 + 0j, 0j) == 0.0

    def test_hand_pair(self):
        scale = (abs(1 + 2j) ** 2 + abs(3 - 1j) ** 2) ** 2
        assert zero_mass_system_det(1 + 2j, 3 - 1j) < 1e-12 * scale

    def test_thousand_random_pairs(self, rng):
        for _ in range(1000):
            psi1, psi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            scale = (abs(psi1) ** 2 + abs(psi2) ** 2) ** 2
            assert zero_mass_system_det(psi1, psi2) < 1e-12 * max(scale, 1e-20)
