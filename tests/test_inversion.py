"""Potential and mass recovery, gauge machinery, route agreement."""

import numpy as np
import pytest
import solutions

from diracinv import catalog, exprlang, verify
from diracinv.clifford import IDENTITY, delta, gamma
from diracinv.errors import MassInconsistent, NonRealPotential, ZeroNorm
from diracinv.fields import SampleDomain, SpinorField, bilinear, frame, sample_support
from diracinv.inversion import (FourPotential, extract_mass, extract_mass_at,
                                gauge_fix_temporal, gauge_transform, invert_combined,
                                invert_gamma4, invert_gamma5gamma4)

POINT = (0.13, -0.42, 0.78, 0.31)
AT_POINT = [POINT]


@pytest.fixture(scope="module")
def edge_wave():
    return SpinorField.from_strings(
        ["exp(kappa*x2)", "0", "0", "exp(kappa*x2)"], {"kappa": 1.0})


# Reference: the three routes and the mass formula written out term by term,
# each relation on its own.  The library derives all of them from one relation.
_G = {k: gamma(k) for k in range(1, 6)}
_D = {k: delta(k) for k in range(1, 5)}
_G54 = _G[5] @ _G[4]
_G5k = {k: _G[5] @ _G[k] for k in (1, 2, 3)}
_Gk4 = {k: _G[k] @ _G[4] for k in (1, 2, 3)}


def _bil(fr, m):
    return bilinear(fr.value.conj(), m, fr.value)


def _dbil(fr, m, axis):
    dv = fr.derivs[axis]
    return bilinear(dv.conj(), m, fr.value) + bilinear(fr.value.conj(), m, dv)


def _bidir(fr, m, axis):
    dv = fr.derivs[axis]
    return bilinear(fr.value.conj(), m, dv) - bilinear(dv.conj(), m, fr.value)


def reference_recover(fr, den, guard, a0_num, spatial_nums):
    ok = np.abs(den) > guard * _bil(fr, IDENTITY).real
    den = np.where(ok, den, 1.0)
    raw = np.stack([a0_num / (2.0 * den)] + [num / (2j * den) for num in spatial_nums],
                   axis=1)
    scale = 1.0 + np.abs(raw.real).max(axis=1)
    residue = np.abs(raw.imag).max(axis=1) / scale
    return (np.where(ok[:, None], raw.real, np.nan), ok, np.where(ok, residue, np.nan))


def reference_combined(fr, kappa, guard):
    a0 = (-sum(_dbil(fr, _D[k], k) for k in (1, 2, 3))
          + 1j * _bidir(fr, _D[4], 0) - 2.0 * kappa * _bil(fr, IDENTITY))
    a1 = (-2.0 * kappa * _bil(fr, _Gk4[1]) + _bidir(fr, _D[4], 1)
          - _dbil(fr, _D[3], 2) + _dbil(fr, _D[2], 3)
          + 1j * _dbil(fr, _D[1], 0))
    a2 = (-2.0 * kappa * _bil(fr, _Gk4[2]) + _dbil(fr, _D[3], 1)
          + _bidir(fr, _D[4], 2) - _dbil(fr, _D[1], 3)
          + 1j * _dbil(fr, _D[2], 0))
    a3 = (-2.0 * kappa * _bil(fr, _Gk4[3]) - _dbil(fr, _D[2], 1)
          + _dbil(fr, _D[1], 2) + _bidir(fr, _D[4], 3)
          + 1j * _dbil(fr, _D[3], 0))
    return reference_recover(fr, _bil(fr, _D[4]), guard, a0, (a1, a2, a3))


def reference_gamma4(fr, kappa, guard):
    a0 = (-sum(_dbil(fr, _G[k], k) for k in (1, 2, 3))
          + 1j * _bidir(fr, _G[4], 0) - 2.0 * kappa * _bil(fr, IDENTITY))
    a1 = (-2.0 * kappa * _bil(fr, _Gk4[1]) + _bidir(fr, _G[4], 1)
          - _dbil(fr, _G5k[3], 2) + _dbil(fr, _G5k[2], 3)
          + 1j * _dbil(fr, _G[1], 0))
    a2 = (-2.0 * kappa * _bil(fr, _Gk4[2]) + _dbil(fr, _G5k[3], 1)
          + _bidir(fr, _G[4], 2) - _dbil(fr, _G5k[1], 3)
          + 1j * _dbil(fr, _G[2], 0))
    a3 = (-2.0 * kappa * _bil(fr, _Gk4[3]) - _dbil(fr, _G5k[2], 1)
          + _dbil(fr, _G5k[1], 2) + _bidir(fr, _G[4], 3)
          + 1j * _dbil(fr, _G[3], 0))
    return reference_recover(fr, _bil(fr, _G[4]), guard, a0, (a1, a2, a3))


def reference_gamma5gamma4(fr, kappa, guard):
    a0 = (1j * _bidir(fr, _G54, 0)
          - sum(_dbil(fr, _G5k[k], k) for k in (1, 2, 3)))
    a1 = (_bidir(fr, _G54, 1) - _dbil(fr, _G[3], 2) + _dbil(fr, _G[2], 3)
          + 1j * _dbil(fr, _G5k[1], 0))
    a2 = (_dbil(fr, _G[3], 1) + _bidir(fr, _G54, 2) - _dbil(fr, _G[1], 3)
          + 1j * _dbil(fr, _G5k[2], 0))
    a3 = (-_dbil(fr, _G[2], 1) + _dbil(fr, _G[1], 2) + _bidir(fr, _G54, 3)
          + 1j * _dbil(fr, _G5k[3], 0))
    return reference_recover(fr, _bil(fr, _G54), guard, a0, (a1, a2, a3))


def reference_mass(fr, a0_value):
    norm_sq = _bil(fr, IDENTITY).real
    value = (1j * _bidir(fr, _G[4], 0)
             - sum(_dbil(fr, _G[k], k) for k in (1, 2, 3))
             - 2.0 * a0_value * _bil(fr, _G[4])) / (2.0 * norm_sq)
    return value.real, np.abs(value.imag)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


_GENERIC = ["1 + x1*x2 + i*x0", "sin(x3) - 0.5*i*x1", "exp(0.2*x0)*x2 + 0.3",
            "cos(x1) + i*x3^2"]
_A0 = "0.3*x1 + 0.1*x0^2 - 0.2*x3"


@pytest.fixture(scope="module", params=["rest", "rest-gauge", "degenerate",
                                        "degenerate-gauge", "generic"])
def relation_case(request):
    if request.param.startswith("rest"):
        field, kappa = catalog.build("rest_plane_wave", {"kappa": 1.3}).spinor, 1.3
    elif request.param.startswith("degenerate"):
        field, kappa = catalog.build("degenerate_example").spinor, 1.0
    else:
        field, kappa = SpinorField.from_strings(_GENERIC), 0.7
    if request.param.endswith("gauge"):
        field, _ = gauge_transform(field, exprlang.parse("0.4*x0*x1 + sin(x2) - 0.3*x3"))
    pts = np.random.default_rng(20240917).uniform(-1, 1, (400, 4))
    return frame(field, pts), kappa


class TestOneRelation:
    """Every route and the mass are bit-identical to their term-by-term references."""

    @pytest.mark.parametrize("route, reference", [
        (invert_combined, reference_combined),
        (invert_gamma4, reference_gamma4),
        (invert_gamma5gamma4, reference_gamma5gamma4)])
    def test_route_matches_its_reference_bit_for_bit(self, relation_case, route, reference):
        fr, kappa = relation_case
        for guard in (1e-10, 0.5):
            got = route(fr, kappa, guard)
            a, ok, imag_residue = reference(fr, kappa, guard)
            assert np.array_equal(got.ok, ok)
            assert np.array_equal(_bits(got.a), _bits(a))
            assert np.array_equal(_bits(got.imag_residue), _bits(imag_residue))

    def test_mass_matches_its_reference_bit_for_bit(self, relation_case):
        fr, _ = relation_case
        a0 = exprlang.parse(_A0)
        for expr, a0_value in ((None, 0j), (a0, exprlang.evaluate_many(a0, fr.points))):
            got = extract_mass_at(fr, expr)
            kappa, imag = reference_mass(fr, a0_value)
            assert np.array_equal(_bits(got.kappa), _bits(kappa))
            assert np.array_equal(_bits(got.imag_residue), _bits(imag))


class TestInvertCombined:
    def test_rest_wave_recovers_zero(self, rest_wave):
        sample = invert_combined(frame(rest_wave.spinor, AT_POINT), 1.0)
        assert sample.ok.all()
        assert np.abs(sample.a).max() < 1e-12
        assert sample.imag_residue[0] < 1e-12

    def test_gauge_transformed_rest_wave_sign_frozen(self, rest_wave):
        # f = 0.3 x1 shifts the second component by exactly -0.3; the sign is
        # pinned by the forward residual and must never drift.
        spinor, shift = gauge_transform(rest_wave.spinor, exprlang.parse("0.3*x1"))
        sample = invert_combined(frame(spinor, AT_POINT), 1.0)
        assert sample.a[0] == pytest.approx((0.0, -0.3, 0.0, 0.0), abs=1e-12)
        pot = FourPotential.zero().plus(shift)
        sample = sample_support(spinor, SampleDomain(count=30, seed=2))
        report = verify.residual_norm(sample, pot, 1.0)
        assert report.max_norm < 1e-10

    def test_degenerate_spinor_fails_guard_everywhere(self, edge_wave, rng):
        sample = invert_combined(frame(edge_wave, rng.uniform(-1, 1, (10, 4))), 1.0)
        assert not sample.ok.any()
        assert np.isnan(sample.a).all() and np.isnan(sample.imag_residue).all()

    def test_non_solution_yields_nonreal_potential(self):
        # Constant spinor with both denominator bilinears nonzero: the solved
        # components come out genuinely complex.
        field = SpinorField.from_strings(["1", "0", "0.5*i", "0"])
        sample = invert_combined(frame(field, AT_POINT), 1.0)
        assert sample.ok.all() and sample.non_real().all()
        assert "imaginary residue" in str(sample.non_real_error(0))


class TestInvertGamma4:
    def test_rest_wave_temporal_component(self, rest_wave):
        sample = invert_gamma4(frame(rest_wave.spinor, AT_POINT), 1.0)
        assert sample.ok.all()
        assert np.abs(sample.a).max() < 1e-12

    def test_edge_wave_guard(self, edge_wave):
        assert not invert_gamma4(frame(edge_wave, AT_POINT), 1.0).ok.any()

    def test_agreement_with_combined_on_manufactured_pairs(self, rng):
        for trial in range(50):
            kappa = float(rng.uniform(0.5, 2.0))
            spinor, pot, _ = solutions.gauge_rest_pair(kappa, rng)
            p = [rng.uniform(-1, 1, 4)]
            fr = frame(spinor, p)
            combined = invert_combined(fr, kappa)
            direct = invert_gamma4(fr, kappa)
            assert combined.ok.all() and direct.ok.all()
            assert np.abs(combined.a - direct.a).max() < 1e-8


class TestInvertGamma5Gamma4:
    def test_rest_wave_guard_violated(self, rest_wave):
        assert not invert_gamma5gamma4(frame(rest_wave.spinor, AT_POINT), 1.0).ok.any()

    def test_zero_spinor_guard_violated(self):
        zero = SpinorField.from_strings(["0", "0", "0", "0"])
        assert not invert_gamma5gamma4(frame(zero, AT_POINT), 1.0).ok.any()

    def test_superposition_agrees_pairwise_with_other_routes(self, rng):
        for trial in range(10):
            kappa = float(rng.uniform(0.6, 1.6))
            spinor, pot, _ = solutions.gauge_superposition_pair(kappa, rng)
            pts = rng.uniform(-1, 1, (20, 4))
            fr = frame(spinor, pts)
            second = invert_gamma5gamma4(fr, kappa)
            first = invert_gamma4(fr, kappa)
            hit = second.ok & first.ok
            assert hit.any()
            combined = invert_combined(fr.rows(hit), kappa)
            assert combined.ok.all()
            for a, b in ((combined.a, second.a[hit]), (combined.a, first.a[hit]),
                         (first.a[hit], second.a[hit])):
                assert np.abs(a - b).max() < 1e-8
            known = pot.values(pts[hit])
            assert np.abs(second.a[hit] - known).max() < 1e-8


class TestOracleSupremacy:
    def test_recovered_potentials_pass_the_residual_oracle(self, rng):
        for trial in range(10):
            kappa = float(rng.uniform(0.5, 2.0))
            spinor, pot, _ = solutions.gauge_rest_pair(kappa, rng)
            pts = rng.uniform(-1, 1, (5, 4))
            fr = frame(spinor, pts)
            sample = invert_combined(fr, kappa)
            assert sample.ok.all()
            assert verify.residual_norm_at(fr, sample.a, kappa).max() < 1e-9
            known = pot.values(pts)
            assert np.abs(sample.a - known).max() < 1e-8


class TestExtractMass:
    def test_rest_wave(self, rest_wave, unit_domain):
        estimate = extract_mass(sample_support(rest_wave.spinor, unit_domain), None)
        assert estimate.kappa == pytest.approx(1.0, abs=1e-12)
        assert estimate.spread < 1e-12

    def test_edge_wave_survives_on_the_spatial_term(self, edge_wave):
        sample = extract_mass_at(frame(edge_wave, AT_POINT), None)
        assert sample.kappa[0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_example_with_zero_potential(self, degenerate_default, unit_domain):
        estimate = extract_mass(sample_support(degenerate_default.spinor, unit_domain), None)
        assert estimate.kappa == pytest.approx(1.0, abs=1e-9)
        assert estimate.spread < 1e-9

    def test_scale_invariance(self, edge_wave):
        doubled = edge_wave.scaled_by(exprlang.Num(2 + 0j))
        assert extract_mass_at(frame(doubled, AT_POINT), None).kappa[0] == pytest.approx(
            extract_mass_at(frame(edge_wave, AT_POINT), None).kappa[0], abs=1e-12)

    def test_zero_norm_point(self):
        field = SpinorField.from_strings(["x1", "0", "0", "0"])
        with pytest.raises(ZeroNorm):
            extract_mass_at(frame(field, [(0.5, 0.0, 0.1, 0.2)]), None)

    def test_point_dependent_mass_is_inconsistent(self, unit_domain):
        # With the temporal component forced to zero this spinor's pointwise
        # mass equals x1: correctly rejected as inconsistent over the sample.
        field = SpinorField.from_strings(["exp(-i*x0*x1)", "0", "0", "0"])
        sample = extract_mass_at(frame(field, AT_POINT), None)
        assert sample.kappa[0] == pytest.approx(POINT[1], abs=1e-12)
        with pytest.raises(MassInconsistent):
            extract_mass(sample_support(field, unit_domain), None)

    def test_gauge_invariance_over_random_functions(self, rest_wave, rng):
        domain = SampleDomain(count=25, seed=5)
        for _ in range(10):
            f, params = solutions.random_gauge_function(rng)
            spinor, shift = gauge_transform(rest_wave.spinor, f, params)
            pot = FourPotential.zero().plus(shift)
            estimate = extract_mass(sample_support(spinor, domain), pot.components[0],
                                    a0_params=pot.params)
            assert estimate.kappa == pytest.approx(1.0, abs=1e-9)

    def test_crosscheck_route_engages_for_temporal_potentials(self, rest_wave, rng):
        f, params = solutions.random_gauge_function(rng)
        spinor, shift = gauge_transform(rest_wave.spinor, f, params)
        pot = FourPotential.zero().plus(shift)
        estimate = extract_mass(sample_support(spinor, SampleDomain(count=10, seed=6)),
                                pot.components[0], a0_params=pot.params)
        assert estimate.crosscheck_gap is not None
        assert estimate.crosscheck_gap < 1e-8


class TestFourPotentialValues:
    def test_batch_rows_match_single_points(self, rng):
        pot = FourPotential.from_strings(["sin(x0)*x1", "k", "exp(x2)", "x3^2"], {"k": 0.5})
        pts = rng.uniform(-1, 1, (7, 4))
        batch = pot.values(pts)
        assert batch.shape == (7, 4)
        for p, row in zip(pts, batch):
            assert np.array_equal(pot.values(p), row)

    def test_non_real_raises_at_the_first_bad_point(self):
        pot = FourPotential.from_strings(["i*x1", "0", "0", "i*x2"])
        pts = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.9, 0.0)]
        with pytest.raises(NonRealPotential) as err:
            pot.values(pts)
        assert str(err.value) == ("potential has imaginary residue 5.000e-01 "
                                  "at (0.0, 0.5, 0.0, 0.0)")


class TestGaugeTransform:
    def test_zero_function_is_identity(self, rest_wave, rng):
        spinor, shift = gauge_transform(rest_wave.spinor, exprlang.ZERO)
        for _ in range(5):
            p = rng.uniform(-1, 1, 4)
            assert spinor.values([p])[0] == pytest.approx(rest_wave.spinor.values([p])[0])
            assert np.abs(shift.values([p])[0]).max() == 0.0

    def test_shift_signs_against_the_forward_residual(self, rest_wave, rng):
        # a0 picks up +d0 f while the spatial components pick up -dk f.
        f = exprlang.parse("0.2*x0 - 0.5*x2")
        spinor, shift = gauge_transform(rest_wave.spinor, f)
        assert shift.values([POINT])[0] == pytest.approx((0.2, 0.0, 0.5, 0.0), abs=1e-15)
        pot = FourPotential.zero().plus(shift)
        sample = sample_support(spinor, SampleDomain(count=30, seed=8))
        report = verify.residual_norm(sample, pot, 1.0)
        assert report.max_norm < 1e-12

    def test_composing_with_negation_returns_original(self, rest_wave, rng):
        f, params = solutions.random_gauge_function(rng)
        once, shift1 = gauge_transform(rest_wave.spinor, f, params)
        back, shift2 = gauge_transform(once, exprlang.neg(f), params)
        total = FourPotential.zero().plus(shift1).plus(shift2)
        for _ in range(10):
            p = rng.uniform(-1, 1, 4)
            assert back.values([p])[0] == pytest.approx(rest_wave.spinor.values([p])[0],
                                                        rel=1e-12, abs=1e-12)
            assert np.abs(total.values([p])[0]).max() < 1e-12


class TestGaugeFixTemporal:
    def test_zero_component_is_identity(self, rest_wave):
        fixed = gauge_fix_temporal(rest_wave.spinor, exprlang.ZERO, k=0.0)
        assert fixed.values(AT_POINT)[0] == pytest.approx(rest_wave.spinor.values(AT_POINT)[0])

    def test_constant_component_closed_form(self, rest_wave):
        fixed = gauge_fix_temporal(rest_wave.spinor, exprlang.parse("0.7"), k=0.0)
        expected = np.exp(1j * 0.7 * POINT[0]) * rest_wave.spinor.values(AT_POINT)[0]
        assert fixed.values(AT_POINT)[0] == pytest.approx(expected, rel=1e-10)

    def test_family_member_reproduces_mass_after_fixing(self, degenerate_default):
        # The degenerate spinor with the constant family member has a0 = 1;
        # removing it gives a spinor whose zero-potential mass is kappa.
        fixed = gauge_fix_temporal(degenerate_default.spinor, exprlang.ONE, k=0.0)
        sample = extract_mass_at(frame(fixed, AT_POINT), None)
        assert sample.kappa[0] == pytest.approx(1.0, abs=1e-9)

    def test_singular_path_surfaces_quadrature_failure(self, rest_wave):
        from diracinv.errors import QuadratureError
        fixed = gauge_fix_temporal(rest_wave.spinor, exprlang.parse("1/(x0 - 0.5)"),
                                   k=0.0)
        with pytest.raises(QuadratureError):
            fixed.values([(1.0, 0.0, 0.0, 0.0)])
