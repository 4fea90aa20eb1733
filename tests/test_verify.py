"""The forward residual oracle, field tensors, gauge and light-like checks."""

import pathlib

import numpy as np
import pytest
import solutions

from diracinv import catalog, degeneracy, exprlang, scenario, verify
from diracinv.clifford import gamma
from diracinv.errors import NonRealPotential
from diracinv.fields import (Frame, SampleDomain, SpinorField, frame, row_norm, sample_support,
                             squared_norm)
from diracinv.inversion import FourPotential, gauge_transform
from diracinv.verify import (_GAMMA_REALS, dirac_residual, field_tensor, lightlike_gap,
                             lightlike_gap_max, residual_norm, tensor_gap)

POINT = (0.37, -0.11, 0.62, -0.48)
AT_POINT = [POINT]
TENSOR_TOL = scenario.DEFAULT_TOLERANCES["tensor"]  # the family task's equality threshold
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
        member = catalog.example_family(0.3, 0.2, -0.1, exprlang.parse("sin(x0+x1)"))
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


    def test_gamma_gathers_have_the_values_of_the_matrix_products(self, rng):
        x = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        x[::7] = 0.0
        for k, expected in ((1, x @ gamma(1).T), (2, x @ gamma(2).T), (3, x @ gamma(3).T),
                            (4, 1j * (x @ gamma(4).T))):
            source, sign = _GAMMA_REALS[k]
            gathered = np.ascontiguousarray(x.view(float)[:, source] * sign).view(complex)
            assert np.array_equal(gathered, expected)

    def test_residual_has_the_values_of_the_matrix_form(self, degenerate_default, rng):
        # The residual written with matrix products, as the reference for
        # the gathers; equal values, whatever signs the zeros carry.
        fr = frame(degenerate_default.spinor, rng.uniform(-1, 1, (40, 4)))
        a = rng.uniform(-1, 1, (40, 4))
        expected = 1.3 * fr.value
        for k in (1, 2, 3):
            expected = expected + (fr.derivs[k] - 1j * a[:, k, None] * fr.value) @ gamma(k).T
        expected = expected - 1j * ((fr.derivs[0] + 1j * a[:, 0, None] * fr.value)
                                    @ gamma(4).T)
        assert np.array_equal(dirac_residual(fr, a, 1.3), expected)


def _shipped_family(base: str):
    """The shipped degenerate scenario's support frame, and a zero base or one with a field."""
    sc = scenario.load_scenario(str(SCENARIOS / "degenerate_family.json"))
    fr = sample_support(sc.spinor, sc.domain).frame
    if base == "zero":
        return sc.kappa, fr, None
    # A family member of the catalog spinor itself, whose field tensor is nonzero.
    potential = catalog.example_family(0.3, 0.2, -0.1, exprlang.parse("x0*x1 + sin(x2)"))
    return sc.kappa, fr, potential.values(fr.points).real


class _UfuncCalls(np.ndarray):
    """An array that counts the numpy ufunc calls it enters."""

    @classmethod
    def of(cls, values: np.ndarray) -> "_UfuncCalls":
        out = values.view(cls)
        out.calls = 0
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls += 1
        plain = (x.view(np.ndarray) if isinstance(x, _UfuncCalls) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


class TestResidualDirection:
    @pytest.mark.parametrize("base", ["zero", "catalog_family"])
    def test_every_member_has_the_base_residual_plus_f_times_k(self, base, rng):
        kappa, fr, a = _shipped_family(base)
        u = degeneracy.direction(fr)[0]
        step = verify.residual_direction(fr, u)
        base_residual = dirac_residual(fr, a, kappa)
        values = np.zeros((len(fr.points), 4)) if a is None else a
        for _ in range(5):
            f = rng.uniform(-3.0, 3.0, len(fr.points))
            member = dirac_residual(fr, values + f[:, None] * u, kappa)
            expected = base_residual + f[:, None] * step
            assert np.abs(member - expected).max() <= 1e-14 * (1 + np.abs(f).max())

    def test_the_identity_holds_where_k_is_large(self, rest_wave, rng):
        # On a non-degenerate spinor every direction moves the residual.
        fr = frame(rest_wave.spinor, rng.uniform(-1, 1, (50, 4)))
        a = rng.uniform(-1, 1, (50, 4))
        for _ in range(5):
            v, f = rng.uniform(-1, 1, (50, 4)), rng.uniform(-3.0, 3.0, 50)
            step = verify.residual_direction(fr, v)
            assert row_norm(step).min() > 0.1
            member = dirac_residual(fr, a + f[:, None] * v, 1.0)
            expected = dirac_residual(fr, a, 1.0) + f[:, None] * step
            assert np.abs(member - expected).max() <= 1e-14 * (1 + np.abs(f).max())

    def test_k_over_psi_is_the_indicator_ratio_on_a_generic_spinor(self, rng):
        field = SpinorField.from_strings(["exp(i*x0)*(1+0.3*x1)", "0.5*x2 + i*x3",
                                          "cos(x1) - 0.2*i", "sin(x0*x2) + 2*i"])
        fr = frame(field, rng.uniform(-1, 1, (200, 4)))
        u = degeneracy.direction(fr)[0]
        moved = row_norm(verify.residual_direction(fr, u)) / (row_norm(u) * row_norm(fr.value))
        ratio = (np.abs(degeneracy.indicator(fr.value)) / squared_norm(fr.value)
                 / row_norm(u))
        assert ratio.min() > 1e-3  # non-degenerate at every point
        assert np.abs(moved / ratio - 1).max() <= 1e-13

    def test_a_zero_potential_keeps_the_norm_bits_and_adds_no_potential_term(self):
        kappa, fr, _ = _shipped_family("zero")
        zeros = np.zeros((len(fr.points), 4))
        norms, reads = [], []
        for potential in (None, FourPotential.zero(), zeros):
            counted = _UfuncCalls.of(fr.value)
            residual = dirac_residual(Frame(fr.points, counted, fr.derivs, fr.params),
                                      potential, kappa)
            norms.append(row_norm(residual).view(np.uint64))
            reads.append(counted.calls)
        assert np.array_equal(norms[0], norms[2]) and np.array_equal(norms[1], norms[2])
        # psi enters kappa psi, and the general path's four a psi products.
        assert reads == [1, 1, 5]


class TestResidualNorm:
    def test_wrong_potential_is_loud(self, rest_wave, unit_domain):
        shifted = FourPotential.from_strings(["1", "0", "0", "0"])
        report = residual_norm(sample_support(rest_wave.spinor, unit_domain), shifted, 1.0)
        assert report.max_norm > 0.5

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


def _gap(a, b, pts) -> float:
    """The field-tensor gap of two potentials at the points."""
    return tensor_gap(field_tensor(frame(a, pts)), field_tensor(frame(b, pts)))


class TestGaugeEquivalent:
    def test_temporal_constant_shift(self, unit_domain):
        a = FourPotential.from_strings(["x1", "0", "0", "0"])
        b = FourPotential.from_strings(["x1 + 2", "0", "0", "0"])
        # Constant shifts change no tensor entry, but a constant a0 shift is
        # not a gauge transform; the check is exactly tensor equality.
        pts = unit_domain.points()
        assert _gap(a, b, pts) < TENSOR_TOL

    def test_self_equivalence(self, unit_domain):
        a = FourPotential.from_strings(["sin(x1)", "x0*x2", "0", "x3"])
        pts = unit_domain.points()
        assert _gap(a, a, pts) < TENSOR_TOL

    def test_family_linear_member_is_inequivalent(self, unit_domain):
        base = FourPotential.zero()
        member = catalog.example_family(0.3, 0.2, -0.1, exprlang.Name("x0"))
        pts = unit_domain.points()
        assert _gap(member, base, pts) >= TENSOR_TOL
        pts = pts[:10]
        gap = _gap(member, base, pts)
        thetas = np.abs(np.array(catalog.example_thetas(0.3, 0.2, -0.1)))
        assert gap >= 0.5 * float(thetas.min())

    def test_family_constant_member_is_equivalent(self, unit_domain):
        base = FourPotential.zero()
        member = catalog.example_family(0.3, 0.2, -0.1, exprlang.ONE)
        pts = unit_domain.points()
        assert _gap(member, base, pts) < TENSOR_TOL


class TestLightlikeGap:
    def test_two_family_members(self, degenerate_default, unit_domain):
        m1 = catalog.example_family(0.3, 0.2, -0.1, exprlang.ONE)
        m2 = catalog.example_family(0.3, 0.2, -0.1, exprlang.Name("x0"))
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
        members = [catalog.example_family(0.3, 0.2, -0.1, exprlang.parse(t))
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
