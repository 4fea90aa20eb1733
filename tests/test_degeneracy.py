"""Classification, theta ratios, family generation, null-form algebra."""

import numpy as np
import pytest
import solutions
from test_acceptance import TRIPLES

from diracinv import catalog, degeneracy, exprlang, verify
from diracinv.clifford import IDENTITY, delta, gamma
from diracinv.degeneracy import (bilinear_symmetry_conditions, classify, compose_values,
                                 indicator, member_frame, potential_family, theta,
                                 transpose_theta, unzeta, zero_mass_system_det, zeta)
from diracinv.errors import NoSupportPoints, NonRealPotential, NotDegenerate
from diracinv.exprlang import Expr
from diracinv.fields import (SampleDomain, SpinorField, bilinear, frame, merge_params,
                             sample_support, squared_norm)
from diracinv.inversion import (DEFAULT_GUARD, DEFAULT_REAL_TOL, FourPotential, mass_table,
                                real_part)

POINT = (0.21, -0.33, 0.54, -0.18)
AT_POINT = [POINT]


# Degenerate but no Dirac solution: psi = u [w, 1, w, 1] + v [1, -w, -1, w]
# with u = 1 + 0.5 x1, w = 0.3 + 0.2 x2 and v = exp(i x0), so theta is real
# and varies from point to point.
NON_CONSTANT_THETA = ["(1+0.5*x1)*(0.3+0.2*x2)+exp(i*x0)",
                      "1+0.5*x1-exp(i*x0)*(0.3+0.2*x2)",
                      "(1+0.5*x1)*(0.3+0.2*x2)-exp(i*x0)",
                      "1+0.5*x1+exp(i*x0)*(0.3+0.2*x2)"]

_THETA_FIELDS = ["degenerate_example", "non-constant-theta"]


def _theta_field(label: str) -> SpinorField:
    if label == "non-constant-theta":
        return SpinorField.from_strings(NON_CONSTANT_THETA)
    return catalog.build(label).spinor


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


def symbolic_member(field: SpinorField, base: FourPotential, f: Expr) -> FourPotential:
    t1, t2, t3 = theta_exprs(field)
    comps = [exprlang.add(base.components[0], f)] + [
        exprlang.add(a, exprlang.mul(f, t))
        for a, t in zip(base.components[1:], (t1, t2, t3))]
    return FourPotential(comps, merge_params(base.params, field.params))


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
        cls = classify(sample_support(degenerate_default.spinor, unit_domain))
        assert cls.verdict == "degenerate"
        assert len(cls.s_points) == 0

    def test_rest_wave(self, rest_wave, unit_domain):
        cls = classify(sample_support(rest_wave.spinor, unit_domain))
        assert cls.verdict == "non-degenerate"
        assert len(cls.degenerate_points) == 0

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
        fr = frame(degenerate_default.spinor, pts)
        for values, ratios in zip(theta(fr), transpose_theta(fr.value)):
            assert values == pytest.approx(expected, abs=1e-9)
            assert np.abs(ratios.imag).max() < 1e-10

    def test_axis_aligned_parameters(self):
        inst = catalog.build("degenerate_example",
                             {"kappa": 1.0, "alpha": 0.0, "phi1": 0.0, "phi2": 0.0})
        t = theta(frame(inst.spinor, AT_POINT))
        assert t[0] == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-12)

    def test_unit_norm_over_random_parameters(self, rng):
        for _ in range(20):
            alpha = float(rng.uniform(-1.2, 1.2))
            phi1 = float(rng.uniform(-1.2, 1.2))
            phi2 = float(rng.uniform(-1.2, 1.2))
            inst = catalog.build("degenerate_example",
                                 {"kappa": 1.0, "alpha": alpha,
                                  "phi1": phi1, "phi2": phi2})
            t = theta(frame(inst.spinor, AT_POINT))
            assert (t ** 2).sum(axis=1)[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("label", _THETA_FIELDS)
    def test_equals_the_transpose_ratios_where_they_are_defined(self, label):
        sample = sample_support(_theta_field(label), SampleDomain(count=2000, seed=1))
        v = sample.values
        defined = np.abs(bilinear(v, gamma(2), v)) > DEFAULT_GUARD * squared_norm(v)
        assert defined.all()
        gap = np.abs(theta(sample.frame)[defined] - transpose_theta(v[defined])).max()
        assert gap <= 1e-12


def _family_inputs(field: SpinorField, base: FourPotential, domain: SampleDomain):
    sample = sample_support(field, domain)
    return sample, frame(base, sample.support), classify(sample)


class TestPotentialFamily:
    def test_zero_direction_returns_base(self, degenerate_default, unit_domain):
        base = FourPotential.from_strings(["x0", "0.5", "0", "x1"])
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor, base,
                                              unit_domain)
        member = member_frame(sample.frame, base_fr,
                              potential_family(sample.frame, base_fr, exprlang.ZERO, cls))
        assert member.value == pytest.approx(base_fr.value, abs=1e-12)
        assert member.derivs == pytest.approx(base_fr.derivs, abs=1e-12)

    def test_matches_catalog_closed_form(self, degenerate_default, unit_domain):
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain)
        f = exprlang.parse("sin(x0+x1)")
        general = member_frame(sample.frame, base_fr,
                               potential_family(sample.frame, base_fr, f, cls))
        closed = frame(catalog.example_family(0.3, 0.2, -0.1, f), sample.support)
        assert general.value == pytest.approx(closed.value, abs=1e-9)
        assert verify.field_tensor(general) == pytest.approx(
            verify.field_tensor(closed), abs=1e-9)

    def test_members_pass_the_residual_oracle(self, degenerate_default, unit_domain):
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain)
        for text in ("1", "x0", "sin(x0+x1)"):
            member = potential_family(sample.frame, base_fr, exprlang.parse(text), cls)
            assert verify.residual_norm(sample, member.value, 1.0).max_norm < 1e-9

    def test_members_share_one_direction_and_leave_it_unchanged(self, degenerate_default,
                                                                unit_domain):
        # Each member reads the direction its frame holds; building one member
        # must not change what the next one reads.
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain)
        fr = sample.frame.rows(slice(None))
        texts = ("1", "x0", "sin(x0+x1)")
        shared = [potential_family(fr, base_fr, exprlang.parse(t), cls) for t in texts]
        held = fr.held(degeneracy._direction)
        assert not any(part.flags.writeable for part in held)
        for text, member in zip(texts, shared):
            alone_fr = sample.frame.rows(slice(None))
            alone = potential_family(alone_fr, base_fr, exprlang.parse(text), cls)
            assert member.value.tobytes() == alone.value.tobytes()
            assert (member_frame(fr, base_fr, member).derivs.tobytes()
                    == member_frame(alone_fr, base_fr, alone).derivs.tobytes())

    def test_requires_degenerate_classification(self, rest_wave, unit_domain):
        sample, base_fr, cls = _family_inputs(rest_wave.spinor, FourPotential.zero(),
                                              unit_domain)
        with pytest.raises(NotDegenerate):
            potential_family(sample.frame, base_fr, exprlang.ONE, cls)

    def test_f_sees_base_and_spinor_parameters(self, degenerate_default, unit_domain):
        base = FourPotential.from_strings(["b", "0", "0", "0"], {"b": 0.5, "g": 2.0})
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor, base,
                                              unit_domain)
        # c2 = sin(alpha) is a parameter of the spinor.
        f = exprlang.parse("b*c2 + g*x0")
        member = potential_family(sample.frame, base_fr, f, cls)
        expected = 0.5 + 0.5 * np.sin(0.3) + 2.0 * sample.support[:, 0]
        assert member.value[:, 0] == pytest.approx(expected, abs=1e-12)
        assert member.params == {**base.params, **degenerate_default.spinor.params}
        clash = frame(FourPotential.from_strings(["b", "0", "0", "0"], {"b": 0.5, "c2": 1.0}),
                      sample.support)
        with pytest.raises(ValueError, match="conflicting values for parameter 'c2'"):
            potential_family(sample.frame, clash, f, cls)

    def test_non_real_direction_raises(self, degenerate_default, unit_domain):
        sample, base_fr, cls = _family_inputs(degenerate_default.spinor,
                                              FourPotential.zero(), unit_domain)
        with pytest.raises(NonRealPotential):
            potential_family(sample.frame, base_fr, exprlang.parse("i*x0"), cls)

    @pytest.mark.parametrize("label", _THETA_FIELDS)
    def test_theta_exprs_evaluate_like_theta_and_its_partials(self, label, rng):
        field = _theta_field(label)
        exprs = theta_exprs(field)
        pts = rng.uniform(-1, 1, (5, 4))
        direction, partials = degeneracy._direction(frame(field, pts))
        for p, expected in zip(pts, direction[:, 1:]):
            values = [exprlang.evaluate(e, [p], field.params)[0] for e in exprs]
            assert np.real(values) == pytest.approx(expected, abs=1e-12)
        for mu in range(4):
            reference = np.stack([exprlang.evaluate_many(exprlang.differentiate(e, mu), pts,
                                                         field.params) for e in exprs], axis=1)
            assert np.abs(partials[mu, :, 1:] - reference).max() <= 1e-12
            assert not partials[mu, :, 0].any()


# The direction and member build of earlier versions, kept verbatim as bit
# references: theta's current from the complex kernel, and a member built
# with float u broadcast against complex f.
_CURRENT = np.stack([IDENTITY] + [gamma(k) @ gamma(4) for k in (1, 2, 3)])


def _old_direction(fr):
    v = fr.value
    n, *w = bilinear(v.conj(), _CURRENT, v, fr.live)
    d_n, *d_w = bilinear(fr.derivs.conj(), _CURRENT, v, fr.live)
    n, d_n = n.real, 2 * d_n.real
    u, du = np.ones(v.shape), np.zeros(fr.derivs.shape)
    for k in (1, 2, 3):
        u[:, k] = w[k - 1].imag / n
        du[..., k] = (2 * d_w[k - 1].imag - u[:, k] * d_n) / n
    u.flags.writeable = du.flags.writeable = False
    return u, du


def _old_member(fr, base, f, real_tol=DEFAULT_REAL_TOL):
    params = merge_params(base.params, fr.params)
    u, du = _old_direction(fr)
    pts = fr.points
    f_rows = exprlang.evaluate_many([f, *(exprlang.differentiate(f, mu) for mu in range(4))],
                                    pts, params)
    fv, df = f_rows[0], f_rows[1:]
    partials = du * fv[:, None]  # f d(1, theta) + d f (1, theta) + d base
    partials += df[:, :, None] * u
    partials += base.derivs
    return real_part(base.value + fv[:, None] * u, pts, real_tol), partials


def _reference_case(label: str):
    """(spinor, base potential, f text) of one bit-reference case."""
    if label == "degenerate-example":
        return catalog.build("degenerate_example").spinor, FourPotential.zero(), "sin(x0+x1)"
    if label == "gauge-degenerate":
        spinor, potential, _ = solutions.gauge_degenerate_pair(1.3, np.random.default_rng(11))
        return spinor, potential, "x0*x2"
    base = FourPotential.from_strings(["0.2*x1", "sin(x0)", "0", "x2*x3"])
    if label == "real-base":
        return SpinorField.from_strings(NON_CONSTANT_THETA), base, "cos(x1-x3)"
    # f's imaginary part, 1e-9 of its real part, is below the real check's 1e-6.
    return catalog.build("degenerate_example").spinor, base, "exp(0.3*x2)*(1+1e-9*i*x1)"


@pytest.mark.parametrize("label", ["degenerate-example", "gauge-degenerate", "real-base",
                                   "almost-real-f"])
def test_direction_and_member_keep_the_bits_of_the_earlier_build(label):
    spinor, base, text = _reference_case(label)
    sample, base_fr, cls = _family_inputs(spinor, base, SampleDomain(count=200, seed=9))
    assert cls.verdict == "degenerate"
    u, du = degeneracy._direction(sample.frame)
    old_u, old_du = _old_direction(sample.frame)
    assert u.tobytes() == old_u.tobytes() and du.tobytes() == old_du.tobytes()
    f = exprlang.parse(text)
    member = member_frame(sample.frame, base_fr, potential_family(sample.frame, base_fr, f, cls))
    value, partials = _old_member(sample.frame, base_fr, f)
    assert member.value.dtype == value.dtype and member.value.tobytes() == value.tobytes()
    assert member.derivs.dtype == partials.dtype and member.derivs.tobytes() == partials.tobytes()
    if label == "almost-real-f":
        assert np.abs(partials.imag).max() > 0


@pytest.mark.parametrize("label", ["degenerate-example", "gauge-degenerate", "real-base",
                                   "almost-real-f"])
@pytest.mark.parametrize("zero_base", [True, False], ids=["zero-base", "case-base"])
def test_fixed_member_steps_give_the_member_frames_tensor_gaps(label, zero_base):
    # F(base + f (1, theta)) - F(base) = F(f (1, theta)) for f = 1 and f = x0:
    # bit for bit on a zero base, and to 4 ulp of the largest entry otherwise.
    spinor, base, _ = _reference_case(label)
    if zero_base:
        base = FourPotential.zero()
    sample, base_fr, cls = _family_inputs(spinor, base, SampleDomain(count=200, seed=9))
    base_tensor = verify.field_tensor(base_fr)
    for text in ("1", "x0"):
        member = potential_family(sample.frame, base_fr, exprlang.parse(text), cls)
        step = degeneracy.step_frame(sample.frame, member)
        tensor = verify.field_tensor(member_frame(sample.frame, base_fr, member))
        old = verify.tensor_gap(tensor, base_tensor)
        new = verify.tensor_gap(verify.field_tensor(step))
        assert step.derivs.dtype == float
        if zero_base or not base_fr.derivs.any():
            assert np.float64(new).tobytes() == np.float64(old).tobytes()
        else:
            largest = max(np.abs(tensor).max(), np.abs(base_tensor).max())
            assert abs(new - old) <= 4 * np.spacing(largest)


@pytest.mark.parametrize("text", ["sin(x0+x1)", "x0*x1", "i*x0"])
def test_a_step_frame_needs_real_literal_partials(degenerate_default, unit_domain, text):
    sample, base_fr, cls = _family_inputs(degenerate_default.spinor, FourPotential.zero(),
                                          unit_domain)
    member = potential_family(sample.frame, base_fr, exprlang.parse(text), cls, real_tol=2.0)
    with pytest.raises(ValueError, match="not a real literal"):
        degeneracy.step_frame(sample.frame, member)


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
    sample, base_fr, cls = _family_inputs(field, base, SampleDomain(count=80, seed=5))
    assert cls.verdict == "degenerate"
    for text in ("1", "x0", "sin(x0+x1)", "x1*exp(0.3*x2)"):
        f = exprlang.parse(text)
        member = member_frame(sample.frame, base_fr,
                              potential_family(sample.frame, base_fr, f, cls))
        reference = frame(symbolic_member(field, base, f), sample.support)
        assert np.abs(member.value - reference.value).max() <= 1e-12
        gap = np.abs(verify.field_tensor(member) - verify.field_tensor(reference)).max()
        assert gap <= 1e-12
    spread = np.ptp(theta(sample.frame), axis=0).max()
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

    def test_the_maps_invert_each_other_exactly_on_the_unit_vectors(self):
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(unzeta(zeta(eye)), eye)
        assert np.array_equal(zeta(unzeta(eye)), eye)

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
        cls = classify(sample)
        assert cls.verdict == "degenerate"
        base = frame(FourPotential.zero(), sample.support)
        member = potential_family(sample.frame, base, exprlang.parse("sin(x0+x1)"), cls)
        report = verify.residual_norm(sample, member.value, 0.0)
        assert report.max_norm < 1e-9
        from diracinv.inversion import extract_mass
        assert extract_mass(mass_table(sample.frame), None).kappa == pytest.approx(
            0.0, abs=1e-12)

    def test_collapsed_solution_carries_a_family(self, unit_domain):
        # [1, 0, -1, 0] solves the force-free system with kappa = 0 and is
        # indicator-null; its transpose bilinear vanishes identically, so the
        # paper's ratios are undefined, but theta from the current is not.
        field = SpinorField.from_strings(["1", "0", "-1", "0"])
        sample = sample_support(field, unit_domain)
        report = verify.residual_norm(sample, None, 0.0)
        assert report.max_norm == 0.0
        cls = classify(sample)
        assert cls.verdict == "degenerate"
        expected = np.tile([0.0, 0.0, -1.0], (len(sample.support), 1))
        assert np.array_equal(theta(sample.frame), expected)
        base = frame(FourPotential.zero(), sample.support)
        member = potential_family(sample.frame, base, exprlang.parse("sin(x0+x1)"), cls)
        assert verify.residual_norm(sample, member.value, 0.0).max_norm < 1e-9


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
