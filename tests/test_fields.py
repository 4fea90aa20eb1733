"""Spinor fields, the bilinear kernel, the bidirectional derivative, support sampling."""

import numpy as np
import pytest
import solutions
from hypothesis import given, settings, strategies as st

from diracinv import catalog, exprlang
from diracinv.clifford import IDENTITY, delta, gamma
from diracinv.errors import NoSupportPoints
from diracinv.fields import (SampleDomain, SpinorField, as_points, bilinear, frame,
                             require_support, sample_support, squared_norm)
from diracinv.inversion import FourPotential, _bidir

KAPPA = 1.0
ORIGIN = [(0, 0, 0, 0)]


def reference_bilinear(left, matrix, right) -> complex:
    """The scalar fixed-order loop the batched kernel replaced, for one point."""
    total = 0j
    for r in range(4):
        for c in range(4):
            m = complex(matrix[r, c])
            if m != 0:
                total += complex(left[r]) * m * complex(right[c])
    return total


def adjoint(field, matrix, points) -> np.ndarray:
    v = field.values(points)
    return bilinear(v.conj(), matrix, v)


def transpose(field, matrix, points) -> np.ndarray:
    v = field.values(points)
    return bilinear(v, matrix, v)


@pytest.fixture(scope="module")
def edge_wave():
    # [1, 0, 0, 1] * exp(kappa*x2): indicator-null everywhere.
    return SpinorField.from_strings(
        ["exp(kappa*x2)", "0", "0", "exp(kappa*x2)"], {"kappa": KAPPA})


class TestSpinorEval:
    def test_rest_wave_at_time_zero(self, rest_wave):
        v = rest_wave.spinor.values([(0.0, 0.4, -0.2, 0.9)])[0]
        assert v == pytest.approx(np.array([1, 0, 0, 0]))

    def test_zero_spinor(self):
        zero = SpinorField.from_strings(["0", "0", "0", "0"])
        assert np.array_equal(zero.values([(0.3, 1, 2, 3)])[0], np.zeros(4))

    def test_degenerate_example_collapses_at_origin(self):
        inst = catalog.build("degenerate_example",
                             {"kappa": 1.0, "alpha": 0.0, "phi1": 0.0, "phi2": 0.0})
        assert inst.spinor.values(ORIGIN)[0] == pytest.approx(np.array([1, 0, 0, 1]))

    def test_component_count_is_enforced(self):
        for cls, noun in ((SpinorField, "a spinor field"), (FourPotential, "a 4-potential")):
            with pytest.raises(ValueError, match=f"^{noun} has exactly 4 components, got 3$"):
                cls([exprlang.ZERO] * 3)

    def test_conflicting_params_rejected(self):
        base = SpinorField.from_strings(["x0", "0", "0", "0"], {"a": 1.0})
        with pytest.raises(ValueError):
            base.scaled_by(exprlang.ONE, {"a": 2.0})


class TestFrame:
    def test_shapes_and_partials(self):
        field = SpinorField.from_strings(["x0*x1", "exp(i*x2)", "0", "x3^2"])
        pts = np.array([[0.1, 0.2, 0.3, 0.4], [-0.5, 0.6, -0.7, 0.8]])
        fr = frame(field, pts)
        assert fr.value.shape == (2, 4) and fr.derivs.shape == (4, 2, 4)
        assert fr.value[1] == pytest.approx([-0.3, np.exp(-0.7j), 0, 0.64])
        assert fr.derivs[0, :, 0] == pytest.approx(pts[:, 1])
        assert fr.derivs[1, :, 0] == pytest.approx(pts[:, 0])
        assert fr.derivs[2, :, 1] == pytest.approx(1j * np.exp(1j * pts[:, 2]))
        assert fr.derivs[3, :, 3] == pytest.approx(2 * pts[:, 3])
        assert np.array_equal(fr.derivs[:, :, 2], np.zeros((4, 2)))
        assert squared_norm(fr.value) == pytest.approx(np.sum(np.abs(fr.value) ** 2, axis=1))

    @pytest.mark.parametrize("spinor", ["catalog", "gauge"])
    def test_rows_equal_a_frame_of_the_selected_points(self, spinor, degenerate_default,
                                                      rng):
        if spinor == "catalog":
            field = degenerate_default.spinor
        else:
            field, _, _ = solutions.gauge_rest_pair(1.2, rng)
        pts = rng.uniform(-1, 1, (30, 4))
        whole = frame(field, pts)
        mask = rng.random(30) < 0.5
        for index in (slice(20), mask, np.flatnonzero(mask)[:7]):
            part, direct = whole.rows(index), frame(field, pts[index])
            for name in ("points", "value", "derivs"):
                assert getattr(part, name).tobytes() == getattr(direct, name).tobytes()

    def test_points_must_be_finite_rows_of_four(self):
        field = SpinorField.from_strings(["1", "0", "0", "0"])
        with pytest.raises(ValueError, match="finite"):
            frame(field, [(0.0, float("nan"), 0.0, 0.0)])
        with pytest.raises(ValueError, match="shape"):
            as_points((0.0, 0.0, 0.0, 0.0))


# Each kernel term is one product |l_r| |m_rc| |r_c| (entries of m have modulus
# at most 1) and there are at most 16 of them, so the sum of term moduli is at
# most 4 |left| |right|.  Each term carries a few roundings and the running
# sum at most 15 more: 20 eps per unit of that sum bounds the difference from
# the reference.
KERNEL_TOL = 80 * np.finfo(float).eps

KERNEL_MATRICES = ([IDENTITY] + [gamma(k) for k in range(1, 6)]
                   + [delta(k) for k in range(1, 5)]
                   + [gamma(5) @ gamma(k) for k in range(1, 5)]
                   + [gamma(k) @ gamma(4) for k in (1, 2, 3)])


def _null_shape_values(rng, n):
    """Values of the six gamma2 null shapes at random complex psi1, psi2."""
    psi = [(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(n)]
    return np.array([[s1 * p1 + s2 * p2 for s1, s2 in signs]
                     for signs in catalog._NULL_SHAPE_SIGNS for p1, p2 in psi])


class TestKernelAgainstReference:
    def _check(self, left, matrix, right):
        got = bilinear(left, matrix, right)
        assert got.shape == (len(left),)
        for n in range(len(left)):
            ref = reference_bilinear(left[n], matrix, right[n])
            bound = KERNEL_TOL * np.linalg.norm(left[n]) * np.linalg.norm(right[n])
            assert abs(got[n] - ref) <= bound
            if ref == 0:
                assert got[n] == 0

    def test_random_vectors_adjoint_and_transpose(self, rng):
        x = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        y = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        for m in KERNEL_MATRICES:
            self._check(x.conj(), m, x)
            self._check(x, m, x)
            self._check(y.conj(), m, x)

    def test_exact_zeros_stay_exact(self, rng):
        shapes = _null_shape_values(rng, 10)
        g2 = gamma(2)
        assert np.array_equal(bilinear(shapes, g2, shapes), np.zeros(len(shapes)))
        self._check(shapes, g2, shapes)
        zero = np.zeros((3, 4), dtype=complex)
        for m in KERNEL_MATRICES:
            self._check(zero, m, zero)
            self._check(shapes.conj(), m, np.zeros_like(shapes))


class TestBilinears:
    def test_constant_unit_spinor_gamma4(self):
        const = SpinorField.from_strings(["1", "0", "0", "0"])
        assert adjoint(const, gamma(4), ORIGIN)[0] == pytest.approx(1.0)

    def test_edge_wave_gamma4_vanishes_pointwise(self, edge_wave, rng):
        pts = rng.uniform(-1, 1, (10, 4))
        assert np.abs(adjoint(edge_wave, gamma(4), pts)).max() < 1e-14

    def test_edge_wave_indicator_vanishes_pointwise(self, edge_wave, rng):
        pts = rng.uniform(-1, 1, (10, 4))
        assert np.abs(adjoint(edge_wave, delta(4), pts)).max() < 1e-14

    def test_transpose_bilinear_examples(self):
        v1001 = SpinorField.from_strings(["1", "0", "0", "1"])
        v1000 = SpinorField.from_strings(["1", "0", "0", "0"])
        assert transpose(v1001, gamma(2), ORIGIN)[0] == pytest.approx(-2.0)
        assert transpose(v1000, gamma(2), ORIGIN)[0] == pytest.approx(0.0)

    def test_transpose_vanishes_on_antisymmetric_matrices(self, rng):
        mats = [gamma(1), gamma(3),
                gamma(1) @ gamma(2) @ gamma(3),
                gamma(2) @ gamma(3) @ gamma(1),
                gamma(2) @ gamma(3) @ gamma(2)]
        for m in mats:
            assert np.array_equal(m.T, -m)
        for _ in range(20):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            field = SpinorField([exprlang.Num(complex(c)) for c in v])
            for m in mats:
                value = transpose(field, m, ORIGIN)[0]
                assert abs(value) <= 1e-14 * float(np.vdot(v, v).real)

    def test_adjoint_reality_structure(self, degenerate_default, rng):
        # Hermitian matrices give real numbers, the anti-Hermitian g5 g4 gives
        # purely imaginary ones, at every sampled point.
        field = degenerate_default.spinor
        g54 = gamma(5) @ gamma(4)
        pts = rng.uniform(-1, 1, (15, 4))
        scale = np.sum(np.abs(field.values(pts)) ** 2, axis=1)
        for mu in range(1, 6):
            value = adjoint(field, gamma(mu), pts)
            assert np.all(np.abs(value.imag) <= 1e-13 * scale)
        assert np.all(np.abs(adjoint(field, g54, pts).real) <= 1e-13 * scale)

    def test_squared_norm_is_the_identity_bilinear(self, rng):
        x = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        assert np.array_equal(squared_norm(x), bilinear(x.conj(), IDENTITY, x).real)
        assert squared_norm(x) == pytest.approx(np.sum(np.abs(x) ** 2, axis=1),
                                                rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=3,
                          allow_nan=False, allow_infinity=False))
def test_scaling_multiplies_bilinears(c):
    base = SpinorField.from_strings(["1+i", "0.5", "0-2*i", "0.25"])
    scaled = base.scaled_by(exprlang.Num(c))
    p = [(0.1, 0.2, 0.3, 0.4)]
    for m in (gamma(2), gamma(4), delta(4)):
        adj0 = adjoint(base, m, p)[0]
        adj1 = adjoint(scaled, m, p)[0]
        assert adj1 == pytest.approx(abs(c) ** 2 * adj0, rel=1e-12, abs=1e-12)
        tr0 = transpose(base, m, p)[0]
        tr1 = transpose(scaled, m, p)[0]
        assert tr1 == pytest.approx(c ** 2 * tr0, rel=1e-12, abs=1e-12)


class TestBidirectional:
    def test_rest_wave_temporal(self, rest_wave, rng):
        pts = rng.uniform(-1, 1, (5, 4))
        values = _bidir(frame(rest_wave.spinor, pts), gamma(4), 0)
        for value in values:
            assert value == pytest.approx(-2j * KAPPA, rel=1e-12)

    def test_real_constant_spinor_gives_zero(self, rng):
        field = SpinorField.from_strings(["0.3", "1", "0-2", "0.7"])
        fr = frame(field, ORIGIN)
        for axis in range(4):
            assert _bidir(fr, gamma(2), axis)[0] == 0

    def test_edge_wave_has_no_temporal_dependence(self, edge_wave):
        fr = frame(edge_wave, [(0.2, 0.1, 0.6, -0.4)])
        assert _bidir(fr, gamma(4), 0)[0] == 0


class TestSampleSupport:
    def test_rest_wave_fully_supported(self, rest_wave):
        sample = sample_support(rest_wave.spinor, SampleDomain(count=50, seed=1))
        assert len(sample.support) == 50
        assert len(sample.null) == 0

    def test_keeps_support_values_and_builds_one_frame(self, degenerate_default):
        sample = sample_support(degenerate_default.spinor, SampleDomain(count=40, seed=2))
        values = degenerate_default.spinor.values(sample.support)
        assert sample.values.tobytes() == values.tobytes()
        fr = sample.frame
        assert fr is sample.frame and fr.value is sample.values
        direct = frame(degenerate_default.spinor, sample.support)
        assert fr.derivs.tobytes() == direct.derivs.tobytes()

    def test_zero_spinor_has_no_support(self):
        zero = SpinorField.from_strings(["0", "0", "0", "0"])
        sample = sample_support(zero, SampleDomain(count=30, seed=1))
        assert len(sample.support) == 0
        with pytest.raises(NoSupportPoints):
            require_support(sample)

    def test_linear_component_splits_near_its_zero_set(self):
        field = SpinorField.from_strings(["x1", "0", "0", "0"])
        # A loose threshold classifies small |x1| as null.
        sample = sample_support(field, SampleDomain(count=400, seed=3), tol=0.05)
        assert len(sample.null) > 0 and len(sample.support) > 0
        threshold = sample.threshold
        for p in sample.null:
            assert abs(p[1]) <= threshold
        for p in sample.support:
            assert abs(p[1]) > threshold

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            SampleDomain(count=0)
        with pytest.raises(ValueError):
            SampleDomain(box=((1.0, -1.0),) * 4)
        field = SpinorField.from_strings(["1", "0", "0", "0"])
        with pytest.raises(ValueError):
            sample_support(field, SampleDomain(count=5), tol=0.0)

    def test_points_are_seed_deterministic(self):
        a = SampleDomain(count=20, seed=9).points()
        b = SampleDomain(count=20, seed=9).points()
        c = SampleDomain(count=20, seed=10).points()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
