"""Spinor fields, the bilinear kernel, the bidirectional derivative, support sampling."""

import numpy as np
import pytest
import solutions
from hypothesis import given, settings, strategies as st

from diracinv import catalog, degeneracy, exprlang, fields, scenario
from diracinv.clifford import IDENTITY, delta, gamma
from diracinv.errors import NoSupportPoints
from diracinv.fields import (DEFAULT_SUPPORT_TOL, SampleDomain, SpinorField, bilinear, frame,
                             sample_support, squared_norm)
from diracinv.inversion import FourPotential, _Covariants

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


def _bidir(fr, matrix, axis) -> np.ndarray:
    """psi* M (d psi) - (d psi)* M psi, from the table the inversion routes read."""
    return _Covariants(fr, (matrix,), (((axis,), (matrix,)),)).bidir(matrix, axis)


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

    def test_live_is_false_exactly_for_zero_literals(self):
        # parse folds each of the last four to one zero literal.
        field = SpinorField.from_strings(["0", "-0", "0.0", "0*x1"])
        assert field.live == (False,) * 4
        field = SpinorField.from_strings(["x1 - x1", "0 + x2", "0*x1 + 1", "exp(i*x0)"])
        assert field.live == (True,) * 4
        field = SpinorField.from_strings(["x0*x1", "0", "exp(i*x2)", "-0.0*x3"])
        assert field.live == (True, False, True, False)
        fr = frame(field, np.random.default_rng(0).uniform(-1, 1, (7, 4)))
        for k in (1, 3):
            assert not np.any(fr.value[:, k]) and not np.any(fr.derivs[..., k])

    def test_live_goes_with_the_frame_and_its_rows(self, rng):
        field, _, _ = solutions.gauge_rest_pair(1.2, rng)
        assert field.live == (True, False, False, False)
        fr = frame(field, rng.uniform(-1, 1, (30, 4)))
        assert fr.live == field.live
        assert fr.rows(slice(5)).live == fr.rows(fr.points[:, 0] > 0).live == field.live
        assert fields.Frame(fr.points, fr.value, fr.derivs, {}).live == (True,) * 4

    def test_frame_of_a_potential_carries_real_values_and_parameters(self):
        pot = FourPotential.from_strings(["a*x0", "x1*x2", "0", "sin(x3)"], {"a": 2.0})
        pts = np.array([[0.1, 0.2, 0.3, 0.4], [-0.5, 0.6, -0.7, 0.8]])
        fr = frame(pot, pts)
        assert fr.value.dtype == float
        assert np.array_equal(fr.value, pot.values(pts))
        assert fr.derivs[0, :, 0] == pytest.approx([2.0, 2.0])
        assert fr.derivs[2, :, 1] == pytest.approx(pts[:, 1])
        assert fr.params == {"a": 2.0} and fr.rows(slice(1)).params == {"a": 2.0}

    def test_zero_frame_has_the_bits_of_the_zero_potentials_frame(self, rng, monkeypatch):
        pts = rng.uniform(-1, 1, (30, 4))
        want = frame(FourPotential.zero(), pts)
        calls = []
        monkeypatch.setattr(exprlang, "evaluate", lambda *args: calls.append(args))
        got = fields.zero_frame(pts)
        assert calls == []
        assert got.points is pts and got.params == {} and got.live == want.live
        for name in ("value", "derivs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype and not a.flags.writeable
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()

    def test_support_frame_of_the_demo_evaluates_each_exp_once(self, monkeypatch):
        # Three components share one carrier exp node, and each of their four
        # partials reuses it, so one walk evaluates it once.
        sc = scenario.build_scenario(scenario.demo_scenario("degenerate_example"))
        sample = sample_support(sc.spinor, sc.domain)
        calls = []
        monkeypatch.setitem(exprlang._FUNCTIONS, "exp", (lambda a: calls.append(1) or np.exp(a),
                                                         exprlang._FUNCTIONS["exp"][1]))
        assert sample.frame.derivs.shape == (4, len(sample.support), 4)
        assert len(calls) == 1

    def test_points_must_be_finite_rows_of_four(self):
        field = SpinorField.from_strings(["1", "0", "0", "0"])
        with pytest.raises(ValueError, match="finite"):
            frame(field, [(0.0, float("nan"), 0.0, 0.0)])
        with pytest.raises(ValueError, match="shape"):
            frame(field, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="shape"):
            field.values((0.0, 0.0, 0.0, 0.0))


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


def single_matrix_bilinear(left, matrix, right):
    """The one-matrix kernel the stacked one replaced, kept as the bit reference."""
    lr, li = np.real(left), np.imag(left)
    rr, ri = np.real(right), np.imag(right)
    total = np.zeros(np.broadcast_shapes(left.shape[:-1], right.shape[:-1]), dtype=complex)
    for r, c in zip(*np.nonzero(matrix)):
        m = complex(matrix[r, c])
        ar = lr[..., r] * m.real - li[..., r] * m.imag
        ai = lr[..., r] * m.imag + li[..., r] * m.real
        total.real += ar * rr[..., c] - ai * ri[..., c]
        total.imag += ar * ri[..., c] + ai * rr[..., c]
    return total


# Every matrix the package passes to the kernel: the inversion sets and the
# mass term's, the indicator, the current g_k g4 and the Hermitian -i g_k g4
# behind theta, the transpose theta numerators, and the symmetry conditions.
SRC_MATRICES = (
    [IDENTITY] + [gamma(k) for k in range(1, 5)] + [gamma(5) @ gamma(k) for k in range(1, 5)]
    + [delta(k) for k in range(1, 5)] + [gamma(k) @ gamma(4) for k in (1, 2, 3)]
    + list(degeneracy._DIRECTION[1:])
    + [m for _, m in degeneracy._THETA_NUMERATORS]
    + list(degeneracy._COND_MATRICES))


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).view(np.uint64).tobytes()


class TestStackedKernelBits:
    """The stacked kernel gives every matrix the reference's bits, alone or in a stack."""

    def _check(self, left, right, live=None):
        # The real path as well: every matrix's real parts, alone, in the
        # stack of all of them, and in the direction's stack.
        stacked = bilinear(left, np.stack(SRC_MATRICES), right, live)
        real = bilinear(left, np.stack(SRC_MATRICES), right, live, real=True)
        assert stacked.shape == real.shape == (len(SRC_MATRICES),) + np.broadcast_shapes(
            left.shape[:-1], right.shape[:-1])
        assert real.dtype == np.float64
        for m, got, got_real in zip(SRC_MATRICES, stacked, real):
            ref = single_matrix_bilinear(left, m, right)
            assert _bits(got) == _bits(ref)
            assert _bits(bilinear(left, m, right, live)) == _bits(ref)
            assert _bits(got_real) == _bits(ref.real)
            assert _bits(bilinear(left, m, right, live, real=True)) == _bits(ref.real)
        direction = bilinear(left, degeneracy._DIRECTION, right, live, real=True)
        for m, got_real in zip(degeneracy._DIRECTION, direction):
            assert _bits(got_real) == _bits(single_matrix_bilinear(left, m, right).real)

    def test_every_src_matrix_at_random_values(self, rng):
        x = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        y = rng.standard_normal((4, 30, 4)) + 1j * rng.standard_normal((4, 30, 4))
        self._check(x.conj(), x)
        self._check(x, x)
        self._check(y.conj(), x)
        self._check(x.conj(), y)
        self._check(y, x)

    def test_signed_zero_and_zero_inputs(self, rng):
        x = rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))
        signed = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])
        x[:16] = signed[rng.integers(0, 4, (16, 4))]
        x[16:20] = 0.0
        x[20:, 1] = complex(-0.0, 0.0)
        self._check(x.conj(), x)
        self._check(x, x)
        self._check(x.conj(), x[::-1])
        zero = np.zeros((4, 24, 4), dtype=complex)
        self._check(zero, x)

    @pytest.mark.parametrize("mask", range(16))
    def test_dead_components_move_no_bit(self, rng, mask):
        # A dead component is exact zeros in both operands; the zeros' signs
        # are random in the left operand, the right one or both, and +0.0 in
        # the other.
        live = tuple(bool(mask >> k & 1) for k in range(4))
        dead = [k for k in range(4) if not live[k]]
        signed = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])

        def values(shape, signs):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x[..., dead] = signed[rng.integers(0, 4, x[..., dead].shape)] if signs else 0j
            return x

        for left_signs, right_signs in ((True, False), (False, True), (True, True)):
            x, y = values((30, 4), left_signs), values((30, 4), right_signs)
            d = values((4, 30, 4), left_signs)
            self._check(x, y, live)
            self._check(x.conj(), y, live)
            self._check(d.conj(), y, live)
            self._check(d, y, live)

    def test_null_shapes_stay_exactly_zero(self, rng):
        shapes = _null_shape_values(rng, 10)
        self._check(shapes, shapes)
        self._check(shapes.conj(), shapes)
        g2 = next(k for k, m in enumerate(SRC_MATRICES) if m is gamma(2))
        assert np.array_equal(bilinear(shapes, np.stack(SRC_MATRICES), shapes)[g2],
                              np.zeros(len(shapes)))

    def test_real_path_rejects_an_entry_with_both_parts(self, rng):
        x = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        mixed = np.stack([IDENTITY, (1 + 1j) * IDENTITY])
        assert bilinear(x.conj(), mixed, x).shape == (2, 5)
        with pytest.raises(ValueError, match="real or imaginary"):
            bilinear(x.conj(), mixed, x, real=True)


def _magnitudes(rng, shape) -> np.ndarray:
    """Reals of either sign, with signed zeros at about one in ten.

    Magnitudes run from 1e-300 to 1e300 in the first half of the rows; in the
    second, a row's entries share one such scale, so that the order of a
    row's sum can move its last bit.
    """
    scale = rng.uniform(-300, 300, shape)
    scale[shape[0] // 2:] = scale[shape[0] // 2:, :1]
    x = rng.standard_normal(shape) * 10.0 ** scale
    zeros = rng.random(shape) < 0.1
    x[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return x


class TestRowReductions:
    """row_max and row_norm have the bits of numpy's axis=1 reductions."""

    @pytest.mark.parametrize("width", [1, 4])
    def test_row_max_is_max_over_axis_one(self, rng, width):
        a = _magnitudes(rng, (5000, width))
        a[:8] = rng.choice([0.0, -0.0], (8, width))  # rows of signed zeros alone
        a[8:12] = np.inf * rng.choice([-1.0, 1.0], (4, width))
        got = fields.row_max(a)
        assert _bits(got) == _bits(a.max(axis=1))
        assert _bits(fields.row_max(np.abs(a))) == _bits(np.abs(a).max(axis=1))
        got[:] = 1.0  # a new array, also for one column
        assert not (a == 1.0).any()

    @pytest.mark.parametrize("width", [1, 4])
    def test_row_norm_is_linalg_norm_over_axis_one(self, rng, width):
        x = _magnitudes(rng, (5000, width)) + 1j * _magnitudes(rng, (5000, width))
        x[:8] = rng.choice([0.0, -0.0], (8, width)) + 1j * rng.choice([0.0, -0.0], (8, width))
        with np.errstate(over="ignore"):
            got, want = fields.row_norm(x), np.linalg.norm(x, axis=1)
            real_got = fields.row_norm(x.real)
            real_want = np.linalg.norm(x.real, axis=1)
        assert np.isinf(want).any() and (want == 0).any() and (want < 1e-250).any()
        assert _bits(got) == _bits(want)
        assert _bits(real_got) == _bits(real_want)


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
        assert _bits(squared_norm(x)) == _bits(bilinear(x.conj(), IDENTITY, x).real)
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


def _partition(field, domain, tol):
    """The sampled points split as sample_support splits them, and the threshold."""
    pts = domain.points()
    norms = np.linalg.norm(field.values(pts), axis=1)
    threshold = tol * (1.0 + float(norms.max()))
    return pts[norms > threshold], pts[norms <= threshold], threshold


class TestSampleSupport:
    def test_rest_wave_fully_supported(self, rest_wave):
        domain = SampleDomain(count=50, seed=1)
        sample = sample_support(rest_wave.spinor, domain)
        support, null, _ = _partition(rest_wave.spinor, domain, DEFAULT_SUPPORT_TOL)
        assert np.array_equal(sample.support, support)
        assert len(sample.support) == 50
        assert len(null) == 0

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
        with pytest.raises(NoSupportPoints,
                           match="^no sampled point carries a nonzero spinor value$"):
            sample_support(zero, SampleDomain(count=30, seed=1))

    def test_linear_component_splits_near_its_zero_set(self):
        field = SpinorField.from_strings(["x1", "0", "0", "0"])
        # A loose threshold classifies small |x1| as null.
        domain = SampleDomain(count=400, seed=3)
        sample = sample_support(field, domain, tol=0.05)
        support, null, threshold = _partition(field, domain, 0.05)
        assert np.array_equal(sample.support, support)
        assert len(null) > 0 and len(sample.support) > 0
        for p in null:
            assert abs(p[1]) <= threshold
        for p in sample.support:
            assert abs(p[1]) > threshold

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            SampleDomain(count=0)
        with pytest.raises(ValueError, match="^seed: "):
            SampleDomain(seed=-1)
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


def test_no_covariant_bypasses_the_bilinear_kernel():
    # Every spinor covariant goes through fields.bilinear; a vdot or an
    # einsum in the package would be a second, differently rounded kernel.
    # No function of the per-point modules takes a matrix product either:
    # its bits, and its time, would depend on BLAS threads.  Module-level
    # constants are built once.
    import ast
    import pathlib

    import diracinv
    package = pathlib.Path(diracinv.__file__).parent
    offenders = [f"{path.name}:{number}"
                 for path in sorted(package.glob("*.py"))
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if "np.vdot" in line or "einsum" in line]
    assert len(list(package.glob("*.py"))) > 5
    assert offenders == []

    def is_product(node) -> bool:
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dot", "matmul"))

    products = []
    for name in ("fields", "inversion", "verify", "degeneracy"):
        tree = ast.parse((package / f"{name}.py").read_text())
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                products += [(name, getattr(function, "name", "<lambda>"), node.lineno)
                             for node in ast.walk(function) if is_product(node)]
    assert products == []


def test_no_claim_is_checked_on_a_fixed_prefix_of_the_points():
    # Every check covers every support point.  A prefix slice with a literal
    # or constant bound, [:3] or slice(200), would check a few; the invert
    # task's display table, capped at _INVERT_TABLE_LIMIT rows, is the one
    # exception.  Bounds computed at run time, as [:upto], are not prefixes.
    import pathlib
    import re

    import diracinv
    package = pathlib.Path(diracinv.__file__).parent
    bound = r"\s*(?:\d+|_?[A-Z][A-Z0-9_]*)\s*"
    prefix = re.compile(rf"\[\s*:{bound}\]|\bslice\({bound}\)")
    found = [f"{path.name}:{match.group()}"
             for path in sorted(package.glob("*.py"))
             for match in prefix.finditer(path.read_text())]
    assert found == ["tasks.py:slice(_INVERT_TABLE_LIMIT)"]
