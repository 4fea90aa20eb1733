"""Built-in analytic solutions, parameterized and construction-checked.

Every instance that claims to solve the coupled system is verified against
the forward residual when it is built; a failure aborts with a diagnostic
naming the violated check, so a catalog instance in user hands is always a
certified solution.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import degeneracy, exprlang, verify
from .errors import DiracinvError, ParameterOnSingularLocus
from .exprlang import Expr
from .fields import SampleDomain, SpinorField, sample_support, squared_norm
from .inversion import FourPotential

SINGULAR_MARGIN = 1e-6
_SELFTEST_DOMAIN = SampleDomain(count=20, seed=20240917)
_SELFTEST_REL_TOL = 1e-12


class CatalogSelfTestError(DiracinvError):
    """A catalog instance failed its construction-time verification."""


@dataclass
class CatalogInstance:
    """A named spinor with whatever certified companions it carries."""

    name: str
    spinor: SpinorField
    kappa: float | None = None
    base_potential: FourPotential | None = None
    expected_verdict: str | None = None
    thetas: tuple[float, float, float] | None = None
    params: dict | None = None


def _certify(instance: CatalogInstance) -> None:
    """Check the forward residual, and a degenerate instance's null indicator, on one sample."""
    sample = sample_support(instance.spinor, _SELFTEST_DOMAIN)
    report = verify.residual_norm(sample, instance.base_potential, instance.kappa)
    if report.relative_max > _SELFTEST_REL_TOL:
        raise CatalogSelfTestError(
            f"{instance.name}: forward residual {report.relative_max:.3e} exceeds "
            f"{_SELFTEST_REL_TOL:.0e} (relative); the constructed pair does not "
            f"solve the coupled system")
    if instance.expected_verdict == "degenerate":
        live = instance.spinor.live
        ind = np.abs(degeneracy.indicator(sample.values, live))
        if np.any(ind > 1e-10 * squared_norm(sample.values, live)):
            raise CatalogSelfTestError(
                f"{instance.name}: indicator bilinear is not null on the sample "
                f"(max {float(ind.max()):.3e})")


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_margins(alpha: float, phi2: float) -> None:
    if abs(math.cos(alpha)) <= SINGULAR_MARGIN or abs(math.cos(phi2)) <= SINGULAR_MARGIN:
        raise ParameterOnSingularLocus(
            f"cos(alpha)={math.cos(alpha):.2e}, cos(phi2)={math.cos(phi2):.2e}: "
            f"parameters are within {SINGULAR_MARGIN:.0e} of the singular locus")


def example_thetas(alpha: float, phi1: float, phi2: float) -> tuple[float, float, float]:
    """Direction ratios of the exponential degenerate family.

    Signs are fixed by the forward residual on the constructed spinor and
    frozen in tests.
    """
    return (math.cos(alpha) * math.cos(phi2 - phi1),
            math.cos(alpha) * math.sin(phi2 - phi1),
            -math.sin(alpha))


def example_family(alpha: float, phi1: float, phi2: float, f: Expr,
                   f_params: Mapping[str, complex] | None = None) -> FourPotential:
    """Family member (f, f t1, f t2, f t3) for the exponential degenerate spinor."""
    _require_finite(alpha=alpha, phi1=phi1, phi2=phi2)
    _check_margins(alpha, phi2)
    spatial = [exprlang.mul(exprlang.Num(complex(t)), f)
               for t in example_thetas(alpha, phi1, phi2)]
    return FourPotential([f, *spatial], f_params)


_NULL_SHAPE_SIGNS = (
    # rows of (coeff_psi1, coeff_psi2) per component
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, 0), (1, 0), (0, 0)),
    ((1, 0), (-1, 0), (-1, 0), (1, 0)),
    ((1, 0), (0, 1), (1, 0), (0, 1)),
    ((0, 0), (0, 1), (0, 0), (0, -1)),
    ((1, 0), (1, 0), (1, 0), (1, 0)),
)


def gamma2_null_shapes(psi1: Expr, psi2: Expr) -> list[SpinorField]:
    """The six spinor shapes whose transpose bilinear with gamma(2) vanishes identically."""
    shapes = []
    for signs in _NULL_SHAPE_SIGNS:
        comps = []
        for c1, c2 in signs:
            term: Expr = exprlang.ZERO
            if c1:
                term = exprlang.add(term, exprlang.mul(exprlang.Num(complex(c1)), psi1))
            if c2:
                term = exprlang.add(term, exprlang.mul(exprlang.Num(complex(c2)), psi2))
            comps.append(term)
        shapes.append(SpinorField(comps))
    return shapes


def _number(params: dict, key: str, default: float, integer: bool = False):
    """params[key], or the default, as a float, or as an int if `integer`."""
    value = params.get(key, default)
    with contextlib.suppress(OverflowError):  # float() of a huge int
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            number = float(value)
            if not integer or number.is_integer():
                return int(number) if integer else number
    raise ValueError(f"{key}: expected {'an integer' if integer else 'a real number'}, "
                     f"got {value!r}")


def _build_rest(params: dict) -> CatalogInstance:
    """Constant-direction wave oscillating along x0 only; zero potential."""
    kappa = _number(params, "kappa", 1.0)
    _require_finite(kappa=kappa)
    spinor = SpinorField.from_strings(
        ["exp(-i*kappa*x0)", "0", "0", "0"], {"kappa": kappa})
    instance = CatalogInstance(
        name="rest_plane_wave",
        spinor=spinor,
        kappa=kappa,
        base_potential=FourPotential.zero(),
        expected_verdict="non-degenerate",
        params={"kappa": kappa},
    )
    _certify(instance)
    return instance


def _build_degenerate(params: dict) -> CatalogInstance:
    """Exponential spinor that solves the force-free system yet is degenerate."""
    kappa = _number(params, "kappa", 1.0)
    alpha = _number(params, "alpha", 0.3)
    phi1 = _number(params, "phi1", 0.2)
    phi2 = _number(params, "phi2", -0.1)
    _require_finite(kappa=kappa, alpha=alpha, phi1=phi1, phi2=phi2)
    _check_margins(alpha, phi2)
    c = math.cos(alpha)
    s = math.sin(alpha)
    e1 = complex(math.cos(phi1), math.sin(phi1))
    e2 = complex(math.cos(phi2), math.sin(phi2))
    den = 2.0 * e1 * c * math.cos(phi2)
    spinor_params = {
        "c1": e1 / e2 * c,
        "c2": complex(s),
        "p0": complex(-kappa * math.tan(phi2)),
        "p1": 1j * kappa * (1 + e2 ** 2 * s ** 2 - e1 ** 2 * c ** 2) / den,
        "p2": kappa * (1 + e1 ** 2 * c ** 2 + e2 ** 2 * s ** 2) / den,
        "p3": 1j * kappa * e2 * s / math.cos(phi2),
    }
    # One carrier tree shared by three components, so a frame evaluates it once.
    carrier = exprlang.parse("exp(p0*x0 + p1*x1 + p2*x2 + p3*x3)")
    spinor = SpinorField([exprlang.mul(exprlang.Name("c1"), carrier),
                          exprlang.mul(exprlang.Name("c2"), carrier),
                          exprlang.ZERO, carrier], spinor_params)
    instance = CatalogInstance(
        name="degenerate_example",
        spinor=spinor,
        kappa=kappa,
        base_potential=FourPotential.zero(),
        expected_verdict="degenerate",
        thetas=example_thetas(alpha, phi1, phi2),
        params={"kappa": kappa, "alpha": alpha, "phi1": phi1, "phi2": phi2},
    )
    _certify(instance)
    return instance


def _build_lset(params: dict) -> CatalogInstance:
    member = _number(params, "member", 0, integer=True)
    if not 0 <= member < 6:
        raise ValueError(f"member must be in 0..5, got {member}")
    psi1 = exprlang.parse(str(params.get("psi1", "1")))
    psi2 = exprlang.parse(str(params.get("psi2", "x1")))
    shapes = gamma2_null_shapes(psi1, psi2)
    return CatalogInstance(name="lset", spinor=shapes[member],
                           params={"member": member})


# Each entry's builder and parameter names; lset ignores the kappa a scenario passes.
ENTRIES: dict[str, tuple[Callable[[dict], CatalogInstance], tuple[str, ...]]] = {
    "rest_plane_wave": (_build_rest, ("kappa",)),
    "degenerate_example": (_build_degenerate, ("kappa", "alpha", "phi1", "phi2")),
    "lset": (_build_lset, ("kappa", "member", "psi1", "psi2")),
}


def build(name: str, params: dict | None = None) -> CatalogInstance:
    """The named entry; a ValueError's message starts with the bad parameter's name."""
    if name not in ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"available: {', '.join(sorted(ENTRIES))}")
    builder, names = ENTRIES[name]
    params = dict(params or {})
    for key in params:
        if key not in names:
            raise ValueError(f"{key}: not a parameter of {name} ({', '.join(names)})")
    return builder(params)
