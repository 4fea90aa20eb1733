"""Potential and mass recovery, gauge machinery, route agreement."""

import pathlib
import re

import numpy as np
import pytest
import solutions

from diracinv import catalog, exprlang, fields, inversion, scenario, verify
from diracinv.clifford import IDENTITY, delta, gamma
from diracinv.errors import EvaluationError, MassInconsistent, NonRealPotential, ZeroNorm
from diracinv.fields import SampleDomain, SpinorField, bilinear, frame, sample_support
from diracinv.inversion import (FourPotential, extract_mass, extract_mass_at, gauge_transform,
                                invert_combined, invert_gamma4, invert_gamma5gamma4,
                                mass_table)

_SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
POINT = (0.13, -0.42, 0.78, 0.31)
AT_POINT = [POINT]


@pytest.fixture(scope="module")
def edge_wave():
    return SpinorField.from_strings(
        ["exp(kappa*x2)", "0", "0", "exp(kappa*x2)"], {"kappa": 1.0})


# Reference: the two relations and the mass formula written out term by term,
# each relation on its own, and the paper's combined relation over delta.
# The library derives all of them from one relation; its combined route sums
# the other two, so its bits are those of the summed references.
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


def reference_delta(fr, kappa, guard):
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


def relation_gamma4(fr, kappa):
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
    return _bil(fr, _G[4]), (a0, a1, a2, a3)


def relation_gamma5gamma4(fr, kappa):
    a0 = (1j * _bidir(fr, _G54, 0)
          - sum(_dbil(fr, _G5k[k], k) for k in (1, 2, 3)))
    a1 = (_bidir(fr, _G54, 1) - _dbil(fr, _G[3], 2) + _dbil(fr, _G[2], 3)
          + 1j * _dbil(fr, _G5k[1], 0))
    a2 = (_dbil(fr, _G[3], 1) + _bidir(fr, _G54, 2) - _dbil(fr, _G[1], 3)
          + 1j * _dbil(fr, _G5k[2], 0))
    a3 = (-_dbil(fr, _G[2], 1) + _dbil(fr, _G[1], 2) + _bidir(fr, _G54, 3)
          + 1j * _dbil(fr, _G5k[3], 0))
    return _bil(fr, _G54), (a0, a1, a2, a3)


def reference_gamma4(fr, kappa, guard):
    den, (a0, *spatial) = relation_gamma4(fr, kappa)
    return reference_recover(fr, den, guard, a0, spatial)


def reference_gamma5gamma4(fr, kappa, guard):
    den, (a0, *spatial) = relation_gamma5gamma4(fr, kappa)
    return reference_recover(fr, den, guard, a0, spatial)


def reference_combined(fr, kappa, guard):
    (den, nums), (den5, nums5) = relation_gamma4(fr, kappa), relation_gamma5gamma4(fr, kappa)
    a0, *spatial = (n + n5 for n, n5 in zip(nums, nums5))
    return reference_recover(fr, den + den5, guard, a0, spatial)


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

    def test_combined_route_matches_the_relation_over_delta(self, relation_case):
        # The summed relations are the delta relation term for term; they
        # differ from it only in rounding.
        fr, kappa = relation_case
        for guard in (1e-10, 0.5):
            got = invert_combined(fr, kappa, guard)
            a, ok, imag_residue = reference_delta(fr, kappa, guard)
            assert np.array_equal(got.ok, ok)
            scale = 1.0 + np.abs(a[ok]).max(initial=0.0)
            assert np.abs(got.a[ok] - a[ok]).max(initial=0.0) <= 1e-12 * scale
            assert np.abs(got.imag_residue[ok] - imag_residue[ok]).max(initial=0.0) <= 1e-12
            assert np.isnan(got.a[~ok]).all() and np.isnan(imag_residue[~ok]).all()

    def test_mass_matches_its_reference_bit_for_bit(self, relation_case):
        fr, _ = relation_case
        a0 = exprlang.parse(_A0)
        values = exprlang.evaluate_many(a0, fr.points)
        for a0_arg, a0_value in ((None, 0j), (values, values)):
            got = extract_mass_at(mass_table(fr), a0_arg)
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

    def test_stops_at_the_guard_where_no_point_passes(self, degenerate_default, rng):
        fr = frame(degenerate_default.spinor, rng.uniform(-1, 1, (20, 4)))
        sample = invert_combined(fr, 1.0)
        assert not sample.ok.any() and np.isnan(sample.a).all()
        table = fr.held(inversion._gamma_table)
        assert table.relations == {} and "_pieces" not in vars(table)
        # Another route on the same frame forms the partial pieces it reads.
        assert not invert_gamma4(fr, 1.0).ok.any()
        assert list(table.relations) == [(True, (1.0).hex())] and "_pieces" in vars(table)

    def test_non_solution_yields_nonreal_potential(self):
        # Constant spinor with both denominator bilinears nonzero: the solved
        # components come out genuinely complex.
        field = SpinorField.from_strings(["1", "0", "0.5*i", "0"])
        sample = invert_combined(frame(field, AT_POINT), 1.0)
        assert sample.ok.all() and sample.non_real().all()
        assert "imaginary residue" in str(sample.non_real_error(0))


@pytest.mark.parametrize("scenario_name, entries", [
    # exp(-i Phi) (1, 0, 0, 0): only the entry (0, 0) has two live components.
    ("gauge_round_trip", 1),
    # The degenerate example's second component is a zero literal.
    ("degenerate_family", 9)])
def test_route_table_forms_products_of_live_components_only(monkeypatch, scenario_name,
                                                            entries):
    sc = scenario.load_scenario(_SHIPPED / f"{scenario_name}.json")
    fr = sample_support(sc.spinor, sc.domain).frame.rows(slice(200))
    visits = []
    users = fields._entry_users

    def counted(stack, live):
        result = users(stack, live)
        visits.append((stack, len(result)))
        return result

    monkeypatch.setattr(fields, "_entry_users", counted)
    invert_gamma4(fr, sc.kappa)
    partial_stack = np.stack([*inversion._GAMMA.values(), *inversion._G5GAMMA.values()])
    assert [n for stack, n in visits if stack == partial_stack.tobytes()] == [entries]
    assert len(users(partial_stack.tobytes(), None)) == 16


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


def _earlier_extract_mass_at(fr, a0, real_tol=inversion.DEFAULT_REAL_TOL):
    """`extract_mass_at` as it was before the mass table, verbatim, as the bit reference."""
    from diracinv.inversion import _GAMMA, MassSample, _Covariants, _temporal, real_part
    # Only what the temporal relation reads: g_k at axis k and g4 at axis 0.
    t = _Covariants(fr, (IDENTITY, _GAMMA[4]), (((0,), (_GAMMA[4],)), ((1,), (_GAMMA[1],)),
                                                ((2,), (_GAMMA[2],)), ((3,), (_GAMMA[3],))))
    norm_sq = t.value(IDENTITY).real
    zero = np.flatnonzero(norm_sq == 0.0)
    if zero.size:
        raise ZeroNorm(f"spinor vanishes at {tuple(fr.points[zero[0]].tolist())}")
    temporal = _temporal(t, _GAMMA)
    if a0 is None:
        a0 = 0j
    else:
        real_part(a0[:, None], fr.points, real_tol)
    value = (temporal - 2.0 * a0 * t.value(_GAMMA[4])) / (2.0 * norm_sq)
    return MassSample(value.real, np.abs(value.imag))


def _mass_case(label: str, rng):
    """A spinor frame at 40 points and a real a0 there."""
    pts = rng.uniform(-1, 1, (40, 4))
    if label == "rest":
        spinor, a0 = catalog.build("rest_plane_wave", {"kappa": 1.3}).spinor, _A0
    elif label == "degenerate":
        spinor, a0 = catalog.build("degenerate_example").spinor, _A0
    else:
        pair = solutions.gauge_rest_pair if label == "rest-gauge" \
            else solutions.gauge_degenerate_pair
        spinor, potential, _ = pair(0.9, rng)
        return frame(spinor, pts), potential.values(pts)[:, 0].astype(complex)
    return frame(spinor, pts), exprlang.evaluate(exprlang.parse(a0), pts)


@pytest.mark.parametrize("label", ["rest", "degenerate", "rest-gauge", "degenerate-gauge"])
def test_the_mass_table_gives_the_bits_of_the_earlier_mass(label, rng):
    # One table serves every a0: none, zero, real, and non-real, which must
    # raise as before, with the same message.
    fr, real = _mass_case(label, rng)
    table = mass_table(fr)
    non_real = exprlang.evaluate(exprlang.parse("x1 + i*x2"), fr.points)
    for a0 in (None, np.zeros(len(fr.points), dtype=complex), real, -real):
        got, want = extract_mass_at(table, a0), _earlier_extract_mass_at(fr, a0)
        assert np.array_equal(_bits(got.kappa), _bits(want.kappa))
        assert np.array_equal(_bits(got.imag_residue), _bits(want.imag_residue))
    with pytest.raises(NonRealPotential) as err:
        _earlier_extract_mass_at(fr, non_real)
    with pytest.raises(NonRealPotential, match=f"^{re.escape(str(err.value))}$"):
        extract_mass_at(table, non_real)


def test_the_mass_table_raises_zero_norm_as_the_earlier_mass():
    fr = frame(SpinorField.from_strings(["x1", "0", "0", "0"]),
               [(0.5, 0.2, 0.1, 0.2), (0.5, 0.0, 0.1, 0.2)])
    with pytest.raises(ZeroNorm) as err:
        _earlier_extract_mass_at(fr, None)
    with pytest.raises(ZeroNorm, match=f"^{re.escape(str(err.value))}$"):
        mass_table(fr)


class TestExtractMass:
    def test_rest_wave(self, rest_wave, unit_domain):
        sample = sample_support(rest_wave.spinor, unit_domain)
        estimate = extract_mass(mass_table(sample.frame), None)
        assert estimate.kappa == pytest.approx(1.0, abs=1e-12)
        assert estimate.spread < 1e-12

    def test_edge_wave_survives_on_the_spatial_term(self, edge_wave):
        sample = extract_mass_at(mass_table(frame(edge_wave, AT_POINT)), None)
        assert sample.kappa[0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_example_with_zero_potential(self, degenerate_default, unit_domain):
        sample = sample_support(degenerate_default.spinor, unit_domain)
        estimate = extract_mass(mass_table(sample.frame), None)
        assert estimate.kappa == pytest.approx(1.0, abs=1e-9)
        assert estimate.spread < 1e-9

    def test_scale_invariance(self, edge_wave):
        doubled = edge_wave.scaled_by(exprlang.Num(2 + 0j))
        kappa = extract_mass_at(mass_table(frame(doubled, AT_POINT)), None).kappa[0]
        assert kappa == pytest.approx(
            extract_mass_at(mass_table(frame(edge_wave, AT_POINT)), None).kappa[0], abs=1e-12)

    def test_zero_norm_point(self):
        field = SpinorField.from_strings(["x1", "0", "0", "0"])
        with pytest.raises(ZeroNorm):
            extract_mass_at(mass_table(frame(field, [(0.5, 0.0, 0.1, 0.2)])), None)

    def test_point_dependent_mass_is_inconsistent(self, unit_domain):
        # With the temporal component forced to zero this spinor's pointwise
        # mass equals x1: correctly rejected as inconsistent over the sample.
        field = SpinorField.from_strings(["exp(-i*x0*x1)", "0", "0", "0"])
        sample = extract_mass_at(mass_table(frame(field, AT_POINT)), None)
        assert sample.kappa[0] == pytest.approx(POINT[1], abs=1e-12)
        with pytest.raises(MassInconsistent):
            extract_mass(mass_table(sample_support(field, unit_domain).frame), None)

    def test_gauge_invariance_over_random_functions(self, rest_wave, rng):
        domain = SampleDomain(count=25, seed=5)
        for _ in range(10):
            f, params = solutions.random_gauge_function(rng)
            spinor, shift = gauge_transform(rest_wave.spinor, f, params)
            pot = FourPotential.zero().plus(shift)
            sample = sample_support(spinor, domain)
            estimate = extract_mass(
                mass_table(sample.frame),
                exprlang.evaluate(pot.components[0], sample.support, pot.params))
            assert estimate.kappa == pytest.approx(1.0, abs=1e-9)

    def test_a0_pole_between_support_points_leaves_the_mass_defined(self):
        # psi = exp(-i (kappa x0 - 1/(x0 - 0.5))) e1 solves the equation with
        # a0 = 1/(x0 - 0.5)^2, which has a pole inside the box at no sampled
        # point: at seed 2 support points lie on both sides of x0 = 0.5.
        field = SpinorField.from_strings(["exp(-i*(kappa*x0 - 1/(x0 - 0.5)))", "0", "0", "0"],
                                         {"kappa": 1.0})
        sample = sample_support(field, SampleDomain(count=10, seed=2))
        assert (sample.support[:3, 0] < 0.5).all() and (sample.support[3:, 0] > 0.5).any()
        estimate = extract_mass(
            mass_table(sample.frame),
            exprlang.evaluate(exprlang.parse("1/(x0 - 0.5)^2"), sample.support))
        assert estimate.count == 10
        assert estimate.kappa == pytest.approx(1.0, abs=1e-9)

    def test_zero_a0_gives_the_no_potential_mass(self, rest_wave, rng):
        fr = frame(rest_wave.spinor, rng.uniform(-1, 1, (50, 4)))
        table = mass_table(fr)
        assert np.array_equal(extract_mass_at(table, exprlang.evaluate(exprlang.ZERO,
                                                                       fr.points)).kappa,
                              extract_mass_at(table, None).kappa)

    def test_a0_parameters_bind(self, rest_wave, rng):
        fr = frame(rest_wave.spinor, rng.uniform(-1, 1, (50, 4)))
        table = mass_table(fr)
        bound = extract_mass_at(table, exprlang.evaluate(exprlang.parse("w*x1"), fr.points,
                                                         {"w": 0.5}))
        assert np.array_equal(bound.kappa, extract_mass_at(
            table, exprlang.evaluate(exprlang.parse("0.5*x1"), fr.points)).kappa)
        with pytest.raises(EvaluationError, match="unbound name 'w'"):
            extract_mass_at(table, exprlang.evaluate(exprlang.parse("w*x1"), fr.points))

    def test_degenerate_spinor_has_one_mass_for_every_a0(self, degenerate_default, rng):
        # psi* g4 psi vanishes on the degenerate spinor, so a0 drops out of
        # the temporal relation: every member of the family has mass kappa.
        fr = frame(degenerate_default.spinor, rng.uniform(-1, 1, (50, 4)))
        table = mass_table(fr)
        for text in ("1", "-3.5", "sin(x0)*x1 + x2^2"):
            a0 = exprlang.evaluate(exprlang.parse(text), fr.points)
            kappa = extract_mass_at(table, a0).kappa
            assert np.abs(kappa - 1.0).max() < 1e-9

    def test_a0_pole_at_a_sampled_point_raises(self, rest_wave):
        fr = frame(rest_wave.spinor, [(0.2, 0.0, 0.0, 0.0), (0.5, 0.1, 0.0, 0.0)])
        with pytest.raises(EvaluationError,
                           match=r"division produced a non-finite value in '1/\(x0-0.5\)'"):
            extract_mass_at(mass_table(fr),
                            exprlang.evaluate(exprlang.parse("1/(x0 - 0.5)"), fr.points))

    def test_non_finite_a0_raises(self, rest_wave):
        fr = frame(rest_wave.spinor, [(1.0, 0.0, 0.0, 0.0)])
        with pytest.raises(EvaluationError, match="exp produced a non-finite value"):
            extract_mass_at(mass_table(fr),
                            exprlang.evaluate(exprlang.parse("exp(800*x0)"), fr.points))

    def test_non_real_a0_raises_before_the_spread(self, unit_domain):
        # The spinor's pointwise mass is x1 (see above), which fails the
        # spread; the non-real a0 is reported first.
        field = SpinorField.from_strings(["exp(-i*x0*x1)", "0", "0", "0"])
        sample = sample_support(field, unit_domain)
        with pytest.raises(NonRealPotential, match="potential has imaginary residue"):
            extract_mass(mass_table(sample.frame),
                         exprlang.evaluate(exprlang.parse("x1 + i*x2"), sample.support))


_CLIFFORD_BASIS = ([IDENTITY] + [gamma(k) for k in range(1, 6)]
                   + [gamma(5) @ gamma(k) for k in range(1, 5)]
                   + [gamma(j) @ gamma(k) for j in range(1, 5) for k in range(j + 1, 5)])


@pytest.fixture(scope="module", params=[
    ("rest", "(1 - cos(x0))*x1"),
    ("degenerate", "0.4*x0*x1 + sin(x2) - 0.3*x3"),
    ("generic", "exp(0.3*x0)*x2 - x1*x3")], ids=["rest", "degenerate", "generic"])
def gauge_pair(request):
    """Frames of psi and exp(-i f) psi at 400 points, and the gradient of f there."""
    name, phase = request.param
    if name == "rest":
        field = catalog.build("rest_plane_wave", {"kappa": 1.3}).spinor
    elif name == "degenerate":
        field = catalog.build("degenerate_example").spinor
    else:
        field = SpinorField.from_strings(_GENERIC)
    f = exprlang.parse(phase)
    transformed, _ = gauge_transform(field, f)
    pts = np.random.default_rng(20240918).uniform(-1, 1, (400, 4))
    grad = np.stack([exprlang.evaluate_many(exprlang.differentiate(f, a), pts)
                     for a in range(4)])
    return frame(field, pts), frame(transformed, pts), f, grad


class TestMassGaugeIdentity:
    """Why no gauge-fixed route can check the mass: the identity, for any spinor.

    exp(-i f) psi has the bilinears and product-rule sums of psi, and each
    bidirectional term moves by -2i (d_a f) psi* M psi.  So its mass with
    a0 + d0 f equals the mass of psi with a0 at every point.
    """

    def test_every_bilinear_is_unchanged(self, gauge_pair):
        fr, moved, _, _ = gauge_pair
        for m in _CLIFFORD_BASIS:
            assert np.abs(_bil(moved, m) - _bil(fr, m)).max() < 1e-12

    def test_every_product_rule_sum_is_unchanged(self, gauge_pair):
        fr, moved, _, _ = gauge_pair
        for m in _CLIFFORD_BASIS:
            for axis in range(4):
                assert np.abs(_dbil(moved, m, axis) - _dbil(fr, m, axis)).max() < 1e-12

    def test_bidirectional_terms_move_by_the_gradient(self, gauge_pair):
        fr, moved, _, grad = gauge_pair
        for m in _CLIFFORD_BASIS:
            for axis in range(4):
                shift = -2j * grad[axis] * _bil(fr, m)
                assert np.abs(_bidir(moved, m, axis) - _bidir(fr, m, axis) - shift).max() < 1e-12

    def test_mass_with_the_shifted_a0_is_the_mass_with_a0(self, gauge_pair):
        fr, moved, f, _ = gauge_pair
        a0 = exprlang.parse(_A0)
        before = extract_mass_at(mass_table(fr), exprlang.evaluate(a0, fr.points))
        after = extract_mass_at(mass_table(moved), exprlang.evaluate(
            exprlang.add(a0, exprlang.differentiate(f, 0)), moved.points))
        assert np.abs(after.kappa - before.kappa).max() < 1e-12
        assert np.abs(after.imag_residue - before.imag_residue).max() < 1e-12


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
