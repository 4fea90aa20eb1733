"""Potential and mass recovery, gauge machinery, route agreement."""

import numpy as np
import pytest
import solutions

from diracinv import exprlang, verify
from diracinv.errors import MassInconsistent, NonRealPotential, ZeroNorm
from diracinv.fields import SampleDomain, SpinorField, frame, sample_support
from diracinv.inversion import (FourPotential, extract_mass, extract_mass_at,
                                gauge_fix_temporal, gauge_transform, invert_combined,
                                invert_gamma4, invert_gamma5gamma4)

POINT = (0.13, -0.42, 0.78, 0.31)
AT_POINT = [POINT]


@pytest.fixture(scope="module")
def edge_wave():
    return SpinorField.from_strings(
        ["exp(kappa*x2)", "0", "0", "exp(kappa*x2)"], {"kappa": 1.0})


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
