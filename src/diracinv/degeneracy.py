"""Degeneracy classification, theta ratios, and the infinite potential family.

A spinor is degenerate exactly where the indicator bilinear psi* d4 psi
vanishes; on the sampled box the verdict is always relative to the sample.
For degenerate spinors the three theta ratios of transpose bilinears direct
the potential family (a0 + f, a1 + f t1, a2 + f t2, a3 + f t3) for any real
f on the support.

`indicator`, `theta` and `classify` take spinor values already held and
evaluate nothing; every bilinear here is a `fields.bilinear` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exprlang
from .clifford import delta, gamma
from .errors import (AmbiguousScale, GuardViolated, NonRealTheta, NotDegenerate,
                     NotRepresentable)
from .exprlang import Expr
from .fields import (CVector4, SpinorField, SupportSample, bilinear, merge_params,
                     require_support, squared_norm)
from .inversion import DEFAULT_GUARD, FourPotential

_D4 = delta(4)
_G2 = gamma(2)
_G4 = gamma(4)
_G53 = gamma(5) @ gamma(3)
_G51 = gamma(5) @ gamma(1)

DEFAULT_CLASSIFY_TOL = 1e-10


def indicator(values: np.ndarray) -> np.ndarray:
    """psi* d4 psi for spinor values (..., 4); zero exactly on the degenerate locus."""
    return bilinear(values.conj(), _D4, values)


def gamma2_covered(transpose_g2: np.ndarray, norm_sq: np.ndarray, tol: float) -> np.ndarray:
    """|psiT g2 psi| > tol |psi|^2: where theta, and so the potential family, is defined."""
    return np.abs(transpose_g2) > tol * norm_sq


@dataclass
class Classification:
    """Sampled degeneracy verdict.

    On exact data the dichotomy admits only the two clean verdicts; a sample
    whose support carries both indicator-zero and indicator-nonzero points is
    reported honestly as "mixed".  `transpose_g2` and `norm_sq` hold
    psiT g2 psi and |psi|^2 at every support point, whatever the verdict.
    """

    verdict: str  # "degenerate" | "non-degenerate" | "mixed"
    support_points: np.ndarray
    s_points: np.ndarray
    degenerate_points: np.ndarray
    tol: float
    transpose_g2: np.ndarray
    norm_sq: np.ndarray
    gamma2_covers_support: bool | None = None
    gamma2_cover_fraction: float | None = None


def classify(sample: SupportSample, tol: float = DEFAULT_CLASSIFY_TOL,
             kappa: float | None = None) -> Classification:
    """Partition sampled support points by |psi* d4 psi| <= tol * |psi|^2."""
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    support = require_support(sample)
    values = sample.values
    norm_sq = squared_norm(values)
    tb = bilinear(values, _G2, values)
    nonzero = np.abs(indicator(values)) > tol * norm_sq
    s_points = support[nonzero]
    degenerate_points = support[~nonzero]
    if len(s_points) == 0:
        verdict = "degenerate"
    elif len(degenerate_points) == 0:
        verdict = "non-degenerate"
    else:
        verdict = "mixed"

    covers = None
    fraction = None
    if verdict == "degenerate":
        # Degenerate solutions with nonzero mass have the transpose g2
        # bilinear nonvanishing on the whole support; for zero mass the
        # covered fraction delimits the region where the family is defined.
        covered = gamma2_covered(tb, norm_sq, tol)
        fraction = float(np.count_nonzero(covered)) / len(support)
        if kappa is None or kappa != 0.0:
            covers = bool(np.all(covered))
    return Classification(verdict, support, s_points, degenerate_points, tol,
                          tb, norm_sq, covers, fraction)


# ---------------------------------------------------------------------------
# Theta ratios

@dataclass(frozen=True)
class ThetaTriple:
    """The three direction ratios at each of N points."""

    values: np.ndarray        # (N, 3) real
    imag_residue: np.ndarray  # (N,)

    @property
    def norm_sq(self) -> np.ndarray:
        return (self.values ** 2).sum(axis=1)


def theta(values: np.ndarray, points, guard: float = DEFAULT_GUARD,
          real_tol: float = 1e-6) -> ThetaTriple:
    """The three direction ratios of transpose bilinears of psi values (N, 4).

    Raises for the first of the (N, 4) points, where the values were taken,
    at which the denominator psiT g2 psi misses the guard or a ratio is not real.
    """
    den = bilinear(values, _G2, values)
    miss = ~gamma2_covered(den, squared_norm(values), guard)
    safe = np.where(miss, 1.0, den)
    t = np.stack([-1j * bilinear(values, _G53, values) / safe,
                  -1j * bilinear(values, _G4, values) / safe,
                  1j * bilinear(values, _G51, values) / safe], axis=1)
    residue = np.abs(t.imag).max(axis=1)
    non_real = ~miss & (residue > real_tol * (1.0 + np.abs(t).max(axis=1)))
    bad = np.flatnonzero(miss | non_real)
    if bad.size:
        i = bad[0]
        where = tuple(np.asarray(points, dtype=float)[i].tolist())
        if miss[i]:
            raise GuardViolated(
                f"|psiT g2 psi| = {abs(den[i]):.3e} <= guard at {where}: theta undefined")
        raise NonRealTheta(
            f"theta has imaginary residue {residue[i]:.3e} at {where}; "
            f"the spinor is not a degenerate Dirac solution there")
    return ThetaTriple(t.real, residue)


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
    """Closed-form theta ratios, defined wherever the denominator is nonzero."""
    den = _transpose_bilinear_expr(field, _G2)
    minus_i = exprlang.Num(-1j)
    plus_i = exprlang.Num(1j)
    t1 = exprlang.div(exprlang.mul(minus_i, _transpose_bilinear_expr(field, _G53)), den)
    t2 = exprlang.div(exprlang.mul(minus_i, _transpose_bilinear_expr(field, _G4)), den)
    t3 = exprlang.div(exprlang.mul(plus_i, _transpose_bilinear_expr(field, _G51)), den)
    return t1, t2, t3


def potential_family(field: SpinorField, base: FourPotential, f: Expr,
                     classification: Classification,
                     f_params: Mapping[str, complex] | None = None) -> FourPotential:
    """Family member (a0 + f, a_i + f * theta_i) for a degenerate spinor.

    The theta factors are closed-form ratios of the spinor components, so the
    result is differentiable; it is defined where the denominator bilinear is
    nonzero (for zero mass that region is exactly the reported cover).
    """
    if classification.verdict != "degenerate":
        raise NotDegenerate(
            f"potential family requires a degenerate spinor, verdict is "
            f"{classification.verdict!r}")
    t1, t2, t3 = theta_exprs(field)
    params = merge_params(base.params, field.params, f_params)
    comps = [
        exprlang.add(base.components[0], f),
        exprlang.add(base.components[1], exprlang.mul(f, t1)),
        exprlang.add(base.components[2], exprlang.mul(f, t2)),
        exprlang.add(base.components[3], exprlang.mul(f, t3)),
    ]
    return FourPotential(comps, params)


# ---------------------------------------------------------------------------
# The canonical null form and its inverse

def compose_degenerate(u, v, w, params: Mapping[str, complex] | None = None) -> SpinorField:
    """Spinor u*[conj(w), 1, conj(w), 1] + v*[1, -w, -1, w]; indicator-null by construction."""
    u, v, w = (_as_expr(q) for q in (u, v, w))
    wbar = exprlang.conjugate(w)
    comps = [
        exprlang.add(exprlang.mul(u, wbar), v),
        exprlang.sub(u, exprlang.mul(v, w)),
        exprlang.sub(exprlang.mul(u, wbar), v),
        exprlang.add(u, exprlang.mul(v, w)),
    ]
    return SpinorField(comps, params)


def _as_expr(q) -> Expr:
    if isinstance(q, (int, float, complex)):
        return exprlang.Num(complex(q))
    return q


_UNZETA = np.array([[1, 1, 0, 0],
                    [0, 0, 1, 1],
                    [1, -1, 0, 0],
                    [0, 0, 1, -1]], dtype=complex)
_ZETA = 0.5 * np.array([[1, 0, 1, 0],
                        [1, 0, -1, 0],
                        [0, 1, 0, 1],
                        [0, 1, 0, -1]], dtype=complex)
_UNZETA.flags.writeable = False
_ZETA.flags.writeable = False


def zeta(x: CVector4) -> CVector4:
    """Half-sum/half-difference coordinates of a pointwise spinor value."""
    return _ZETA @ np.asarray(x, dtype=complex)


def unzeta(z: CVector4) -> CVector4:
    """Inverse of the half-sum/half-difference map; the matrix product is exactly I."""
    return _UNZETA @ np.asarray(z, dtype=complex)


def compose_values(u: complex, v: complex, w: complex) -> CVector4:
    wbar = np.conj(w)
    return np.array([u * wbar + v, u - v * w, u * wbar - v, u + v * w], dtype=complex)


def decompose_degenerate(x: CVector4, tol: float = 1e-10) -> tuple[complex, complex, complex]:
    """Pointwise inverse of compose_degenerate where it exists.

    The zero vector returns the canonical (0, 0, 0).  Indicator-null vectors
    with both half-sum coordinates zero need an unbounded w and are rejected.
    """
    x = np.asarray(x, dtype=complex)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return (0j, 0j, 0j)
    ind = complex(indicator(x))
    if abs(ind) > tol * norm ** 2:
        raise NotRepresentable(
            f"indicator bilinear is {abs(ind):.3e}, not zero: no (u, v, w) form")
    z = zeta(x)
    u, v = complex(z[2]), complex(z[1])
    if abs(u) <= tol * norm and abs(v) <= tol * norm:
        raise AmbiguousScale(
            "both scale coordinates vanish while the vector does not; "
            "the (u, v, w) form needs an unbounded w here")
    if abs(v) >= abs(u):
        w = -complex(z[3]) / v
    else:
        w = np.conj(complex(z[0]) / u)
    return (u, v, w)


# ---------------------------------------------------------------------------
# Supporting algebraic identities

_COND_MATRICES = (gamma(1) @ gamma(2) @ gamma(4),
                  gamma(4),
                  gamma(2) @ gamma(3) @ gamma(4))


@dataclass(frozen=True)
class SymmetryConditions:
    """Both sides of the pointwise equivalence behind the degeneracy dichotomy.

    lhs: the three symmetrized transpose-bilinear products all vanish;
    rhs: the product (psiT g2 psi)(psi* d4 psi) vanishes.  Margins are the
    largest magnitude on each side divided by the decision threshold.  Each
    field has the leading shape of the spinor values it was computed from.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    lhs_margin: np.ndarray
    rhs_margin: np.ndarray


def bilinear_symmetry_conditions(x: np.ndarray, tol: float = 1e-10) -> SymmetryConditions:
    """Both sides at each spinor value of x (..., 4)."""
    x = np.asarray(x, dtype=complex)
    scale = squared_norm(x) ** 2
    threshold = np.where(scale > 0, tol * scale, tol)
    z = bilinear(x, _G2, x)
    lhs_max = np.zeros(x.shape[:-1])
    for m in _COND_MATRICES:
        w = bilinear(x, m, x)
        lhs_max = np.maximum(lhs_max, np.abs(z * np.conj(w) + w * np.conj(z)))
    rhs_value = np.abs(z * indicator(x))
    return SymmetryConditions(lhs_max <= threshold, rhs_value <= threshold,
                              lhs_max / threshold, rhs_value / threshold)


def zero_mass_system_det(psi1: complex, psi2: complex) -> float:
    """|det| of the real 4x4 system for the potential of a collapsed zero-mass spinor.

    The determinant vanishes identically, which is what makes the collapsed
    form carry either no potential or infinitely many.
    """
    k1, l1 = psi1.real, psi1.imag
    k2, l2 = psi2.real, psi2.imag
    m = np.array([
        [-k1, -k2, -l2, -k1],
        [-l1, -l2, k2, -l1],
        [-k2, -k1, l1, k2],
        [-l2, -l1, -k1, l2],
    ])
    return float(abs(np.linalg.det(m)))
