"""Built-in solutions: construction checks, parameters, the null-shape family."""

import numpy as np
import pytest

from diracinv import catalog, degeneracy, exprlang, inversion, scenario, verify
from diracinv.catalog import CatalogSelfTestError
from diracinv.clifford import gamma
from diracinv.errors import ParameterOnSingularLocus
from diracinv.fields import SampleDomain, bilinear, frame, sample_support


class TestRestPlaneWave:
    def test_residual_at_hundred_points(self):
        inst = catalog.build("rest_plane_wave", {"kappa": 0.8})
        sample = sample_support(inst.spinor, SampleDomain(count=100, seed=17))
        report = verify.residual_norm(sample, inst.base_potential, 0.8)
        assert report.max_norm < 1e-12

    def test_classification_and_mass(self, rest_wave, unit_domain):
        sample = sample_support(rest_wave.spinor, unit_domain)
        cls = degeneracy.classify(sample, kappa=1.0)
        assert cls.verdict == "non-degenerate"
        estimate = inversion.extract_mass(sample, None)
        assert estimate.kappa == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite_mass(self):
        with pytest.raises(ValueError):
            catalog.build("rest_plane_wave", {"kappa": float("nan")})


class TestDegenerateExample:
    def test_default_parameters_are_degenerate(self, degenerate_default, unit_domain):
        sample = sample_support(degenerate_default.spinor, unit_domain)
        cls = degeneracy.classify(sample, kappa=1.0)
        assert cls.verdict == "degenerate"
        report = verify.residual_norm(sample, None, 1.0)
        assert report.max_norm < 1e-10

    def test_axis_aligned_parameters_collapse(self, rng):
        inst = catalog.build("degenerate_example",
                             {"kappa": 1.0, "alpha": 0.0, "phi1": 0.0, "phi2": 0.0})
        for _ in range(5):
            p = rng.uniform(-1, 1, 4)
            expected = np.exp(p[2]) * np.array([1, 0, 0, 1])
            assert inst.spinor.values([p])[0] == pytest.approx(expected, rel=1e-12)

    def test_singular_locus_rejected(self):
        for params in ({"alpha": np.pi / 2}, {"phi2": np.pi / 2},
                       {"alpha": np.pi / 2 + 1e-8}):
            with pytest.raises(ParameterOnSingularLocus):
                catalog.build("degenerate_example", {"kappa": 1.0, **params})

    def test_indicator_cancellation_at_ten_thousand_points(self, degenerate_default):
        # The degenerate verdict for catalog items rests on symbolic
        # cancellation; spot-check it densely.
        from diracinv.clifford import delta
        pts = SampleDomain(count=10_000, seed=23).points()
        values = degenerate_default.spinor.values(pts)
        norm_sq = np.einsum("ni,ni->n", values.conj(), values).real
        ind = np.abs(np.einsum("ni,ij,nj->n", values.conj(), delta(4), values))
        assert float((ind / norm_sq).max()) < 1e-10

    def test_theta_invariant_on_support(self, rng):
        inst = catalog.build("degenerate_example",
                             {"kappa": 1.3, "alpha": -0.5, "phi1": 0.7, "phi2": 0.4})
        expected = np.array(inst.thetas)
        pts = rng.uniform(-1, 1, (10, 4))
        for values in degeneracy.theta(frame(inst.spinor, pts)).values:
            assert values == pytest.approx(expected, abs=1e-9)

    def test_construction_selftest_catches_bad_pairs(self, degenerate_default):
        broken = catalog.CatalogInstance(
            name="broken", spinor=degenerate_default.spinor, kappa=2.0,
            base_potential=inversion.FourPotential.zero())
        with pytest.raises(CatalogSelfTestError):
            catalog._certify(broken)


class TestExampleFamily:
    def test_zero_direction_is_zero_potential(self, rng):
        pot = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.ZERO)
        assert np.abs(pot.values([rng.uniform(-1, 1, 4)])[0]).max() == 0.0

    def test_axis_aligned_constant_member(self):
        # alpha = phi1 = phi2 = 0 with f = 1: (1, +1, 0, 0).  The second
        # component's sign is pinned by the forward residual.
        pot = catalog.example_family(1.0, 0.0, 0.0, 0.0, exprlang.ONE)
        assert pot.values([(0, 0, 0, 0)])[0] == pytest.approx((1.0, 1.0, 0.0, 0.0))
        inst = catalog.build("degenerate_example",
                             {"kappa": 1.0, "alpha": 0.0, "phi1": 0.0, "phi2": 0.0})
        sample = sample_support(inst.spinor, SampleDomain(count=30, seed=3))
        report = verify.residual_norm(sample, pot, 1.0)
        assert report.max_norm < 1e-12

    def test_members_verify_against_matching_spinor(self, degenerate_default, unit_domain):
        sample = sample_support(degenerate_default.spinor, unit_domain)
        for text in ("1", "x0", "sin(x0+x1)"):
            pot = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.parse(text))
            report = verify.residual_norm(sample, pot, 1.0)
            assert report.max_norm < 1e-9

    def test_linear_member_gauge_inequivalent(self, unit_domain):
        base = inversion.FourPotential.zero()
        member = catalog.example_family(1.0, 0.3, 0.2, -0.1, exprlang.Name("x0"))
        pts = unit_domain.points()
        gap = verify.tensor_gap(frame(member, pts), frame(base, pts))
        assert gap >= scenario.DEFAULT_TOLERANCES["tensor"]


class TestNullShapes:
    def test_all_members_annihilate_transpose_bilinear(self, rng):
        shapes = catalog.gamma2_null_shapes(exprlang.parse("exp(i*x1)"),
                                            exprlang.parse("x2 + 2*i"))
        g2 = gamma(2)
        for shape in shapes:
            v = shape.values(rng.uniform(-1, 1, (100, 4)))
            assert np.all(bilinear(v, g2, v) == 0)

    def test_member_catalog_addressing(self):
        inst = catalog.build("lset", {"member": 1, "psi1": "1"})
        v = inst.spinor.values([(0, 0, 0, 0)])
        assert v[0] == pytest.approx(np.array([1, 0, 1, 0]))
        assert bilinear(v, gamma(2), v)[0] == 0

    def test_zero_arguments_give_zero_member(self):
        shapes = catalog.gamma2_null_shapes(exprlang.ZERO, exprlang.ZERO)
        for shape in shapes:
            assert np.array_equal(shape.values([(0.1, 0.2, 0.3, 0.4)])[0], np.zeros(4))

    def test_member_range_is_validated(self):
        with pytest.raises(ValueError):
            catalog.build("lset", {"member": 6})


@pytest.mark.parametrize("name, params, message", [
    ("degenerate_example", {"alpha": [1]}, "alpha: expected a real number"),
    ("degenerate_example", {"phi1": "0.2"}, "phi1: expected a real number"),
    ("degenerate_example", {"phi2": True}, "phi2: expected a real number"),
    ("degenerate_example", {"kappa": 10 ** 400}, "kappa: expected a real number"),
    ("rest_plane_wave", {"kappa": None}, "kappa: expected a real number"),
    ("lset", {"member": "a"}, "member: expected an integer"),
    ("lset", {"member": 0.7}, "member: expected an integer"),
    ("lset", {"member": 6}, "member must be in 0..5"),
    ("degenerate_example", {"alpha": float("nan")}, "alpha must be finite"),
])
def test_bad_parameters_raise_value_errors_that_name_them(name, params, message):
    with pytest.raises(ValueError) as err:
        catalog.build(name, params)
    assert str(err.value).startswith(message)


def test_integral_float_member_is_accepted():
    assert catalog.build("lset", {"member": 1.0}).params == {"member": 1}


def test_unknown_entry_rejected():
    with pytest.raises(KeyError):
        catalog.build("hydrogen")
