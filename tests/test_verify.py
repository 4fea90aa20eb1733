"""The forward residual oracle, field tensors, gauge and light-like checks."""

import numpy as np
import pytest
import solutions

from diracinv import catalog, exprlang, scenario
from diracinv.errors import NonRealPotential
from diracinv.fields import SampleDomain, SpinorField, frame, sample_support
from diracinv.inversion import FourPotential, gauge_transform
from diracinv.verify import (dirac_residual, field_tensor, lightlike_gap, lightlike_gap_max,
                             residual_norm, tensor_gap)

POINT = (0.37, -0.11, 0.62, -0.48)
AT_POINT = [POINT]
TENSOR_TOL = scenario.DEFAULT_TOLERANCES["tensor"]  # the family task's equality threshold


class TestDiracResidual:
    def test_rest_wave_vanishes_exactly(self, rest_wave, rng):
        r = dirac_residual(frame(rest_wave.spinor, rng.uniform(-1, 1, (10, 4))), None, 1.0)
        assert r.shape == (10, 4)
        assert np.abs(r).max() == 0.0

    def test_degenerate_example_force_free(self, degenerate_default, unit_domain):
        sample = sample_support(degenerate_default.spinor, unit_domain)
        report = residual_norm(sample, None, 1.0)
        assert report.max_norm < 1e-10

    def test_degenerate_family_member(self, degenerate_default, unit_domain):
        member = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.parse("sin(x0+x1)"))
        sample = sample_support(degenerate_default.spinor, unit_domain)
        report = residual_norm(sample, member, 1.0)
        assert report.max_norm < 1e-9

    def test_affine_in_mass(self, degenerate_default, rng):
        # Residual with mass kappa+d on a kappa-solution is exactly d*psi.
        for delta_kappa in (0.5, -0.25, 1e-3):
            p = [rng.uniform(-1, 1, 4)]
            r = dirac_residual(frame(degenerate_default.spinor, p), None, 1.0 + delta_kappa)
            expected = abs(delta_kappa) * np.linalg.norm(degenerate_default.spinor.values(p))
            assert np.linalg.norm(r) == pytest.approx(expected, rel=1e-10)

    def test_accepts_numeric_potential_values(self, rest_wave):
        r = dirac_residual(frame(rest_wave.spinor, AT_POINT), [(0.0, 0.0, 0.0, 0.0)], 1.0)
        assert np.abs(r).max() == 0.0
        r = dirac_residual(frame(rest_wave.spinor, [POINT, POINT]), np.zeros((2, 4)), 1.0)
        assert np.abs(r).max() == 0.0
        with pytest.raises(ValueError):
            dirac_residual(frame(rest_wave.spinor, AT_POINT), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            dirac_residual(frame(rest_wave.spinor, [POINT, POINT]), np.zeros((3, 4)), 1.0)


class TestResidualNorm:
    def test_wrong_potential_is_loud(self, rest_wave, unit_domain):
        shifted = FourPotential.from_strings(["1", "0", "0", "0"])
        report = residual_norm(sample_support(rest_wave.spinor, unit_domain), shifted, 1.0)
        assert report.max_norm > 0.5

    def test_zero_spinor_flags_no_support(self, unit_domain):
        zero = SpinorField.from_strings(["0", "0", "0", "0"])
        report = residual_norm(sample_support(zero, unit_domain), None, 1.0)
        assert report.no_support
        assert not report.passed

    def test_reports_argmax_and_relative(self, degenerate_default, unit_domain):
        sample = sample_support(degenerate_default.spinor, unit_domain)
        report = residual_norm(sample, None, 1.0)
        assert report.count == unit_domain.count
        assert report.argmax_point is not None
        assert 0 <= report.relative_max < 1e-10

    def test_gauge_covariance(self, rest_wave, rng):
        # The transform is pointwise unitary, so residual norms are unchanged.
        domain = SampleDomain(count=25, seed=13)
        base = FourPotential.from_strings(["0.3", "0.1", "0", "0"])
        wrong_kappa = 1.4  # non-solution: nonzero residual to compare
        before = residual_norm(sample_support(rest_wave.spinor, domain), base, wrong_kappa)
        f, params = solutions.random_gauge_function(rng)
        spinor, shift = gauge_transform(rest_wave.spinor, f, params)
        after = residual_norm(sample_support(spinor, domain), base.plus(shift), wrong_kappa)
        assert after.max_norm == pytest.approx(before.max_norm, rel=1e-9)


class TestFieldTensor:
    def test_constant_potential(self):
        pot = FourPotential.from_strings(["2", "0-1", "0.5", "3"])
        assert np.array_equal(field_tensor(frame(pot, AT_POINT))[0], np.zeros(6))

    def test_linear_family_pattern(self):
        # (x0, x0*t1, x0*t2, x0*t3) with constant t: temporal rows carry t,
        # spatial rows vanish.
        pot = FourPotential.from_strings(["x0", "x0*0.4", "x0*(0-0.3)", "x0*0.8"])
        t = field_tensor(frame(pot, AT_POINT))[0]
        assert t == pytest.approx(np.array([0.4, -0.3, 0.8, 0, 0, 0]))

    def test_pure_gauge_shift_has_zero_tensor(self, rest_wave, rng):
        for _ in range(10):
            f, params = solutions.random_gauge_function(rng)
            _, shift = gauge_transform(rest_wave.spinor, f, params)
            p = rng.uniform(-1, 1, 4)
            assert np.abs(field_tensor(frame(shift, [p]))[0]).max() < 1e-10


    def test_batch_is_n_by_six_in_entry_order(self, rng):
        pot = FourPotential.from_strings(["x1*x2", "x0*x3", "sin(x1)", "x2^2"])
        pts = rng.uniform(-1, 1, (6, 4))
        t = field_tensor(frame(pot, pts))
        x0, x1, x2, x3 = pts.T
        # f01 = d0 a1 + d1 a0, f02 = d0 a2 + d2 a0, f03 = d0 a3 + d3 a0,
        # f12 = d1 a2 - d2 a1, f13 = d1 a3 - d3 a1, f23 = d2 a3 - d3 a2.
        expected = np.stack([x3 + x2, x1, np.zeros(6), np.cos(x1), -x0, 2 * x2], axis=1)
        assert t == pytest.approx(expected, abs=1e-14)

    def test_non_real_entry_raises_at_the_first_bad_point(self):
        pot = FourPotential.from_strings(["0", "i*x0*x1", "0", "0"])
        pts = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0)]
        with pytest.raises(NonRealPotential) as err:
            field_tensor(frame(pot, pts))
        assert str(err.value) == "field tensor entry (0,1) has imaginary part 5.000e-01"


class TestGaugeEquivalent:
    def test_temporal_constant_shift(self, unit_domain):
        a = FourPotential.from_strings(["x1", "0", "0", "0"])
        b = FourPotential.from_strings(["x1 + 2", "0", "0", "0"])
        # Constant shifts change no tensor entry, but a constant a0 shift is
        # not a gauge transform; the check is exactly tensor equality.
        pts = unit_domain.points()
        assert tensor_gap(frame(a, pts), frame(b, pts)) < TENSOR_TOL

    def test_self_equivalence(self, unit_domain):
        a = FourPotential.from_strings(["sin(x1)", "x0*x2", "0", "x3"])
        pts = unit_domain.points()
        assert tensor_gap(frame(a, pts), frame(a, pts)) < TENSOR_TOL

    def test_family_linear_member_is_inequivalent(self, unit_domain):
        base = FourPotential.zero()
        member = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.Name("x0"))
        pts = unit_domain.points()
        assert tensor_gap(frame(member, pts), frame(base, pts)) >= TENSOR_TOL
        pts = pts[:10]
        gap = tensor_gap(frame(member, pts), frame(base, pts))
        thetas = np.abs(np.array(catalog.example_thetas(0.3, 0.2, -0.1)))
        assert gap >= 0.5 * float(thetas.min())

    def test_family_constant_member_is_equivalent(self, unit_domain):
        base = FourPotential.zero()
        member = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.ONE)
        pts = unit_domain.points()
        assert tensor_gap(frame(member, pts), frame(base, pts)) < TENSOR_TOL


class TestLightlikeGap:
    def test_two_family_members(self, degenerate_default, unit_domain):
        m1 = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.ONE)
        m2 = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.Name("x0"))
        pts = unit_domain.points()[:30]
        gap = lightlike_gap_max(frame(m1, pts), frame(m2, pts))
        assert gap < 1e-9

    def test_identical_potentials(self, unit_domain):
        a = FourPotential.from_strings(["x0", "x1", "0", "sin(x2)"])
        assert lightlike_gap(frame(a, AT_POINT), frame(a, AT_POINT))[0] == 0.0

    def test_unrelated_potentials(self):
        a = FourPotential.zero()
        b = FourPotential.from_strings(["1", "0", "0", "0"])
        assert lightlike_gap(frame(a, AT_POINT), frame(b, AT_POINT))[0] == pytest.approx(1.0)

    def test_verified_pairs_satisfy_the_gap_bound(self, degenerate_default, unit_domain):
        # Any two potentials that both pass the residual oracle for one spinor
        # must be light-like separated on the support.
        members = [catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.parse(t))
                   for t in ("1", "x0", "sin(x0+x1)")]
        sample = sample_support(degenerate_default.spinor, unit_domain)
        verified = []
        for m in members:
            report = residual_norm(sample, m, 1.0)
            if report.max_norm < 1e-9:
                verified.append(m)
        assert len(verified) == 3
        pts = unit_domain.points()[:30]
        for i in range(len(verified)):
            for j in range(i + 1, len(verified)):
                assert lightlike_gap_max(frame(verified[i], pts),
                                         frame(verified[j], pts)) < 1e-8
