"""Degeneracy classification, theta ratios, and the infinite potential family.

A spinor is degenerate exactly where the indicator bilinear psi* d4 psi
vanishes; on the sampled box the verdict is always relative to the sample.
For degenerate spinors the three theta ratios of transpose bilinears direct
the potential family (a0 + f, a1 + f t1, a2 + f t2, a3 + f t3) for any real
f on the support.

`indicator`, `theta` and `classify` take spinor values or frames already
held and evaluate nothing; every bilinear here is a `fields.bilinear` call.
A family member is a `fields.Frame` built from the spinor's and the base's
frames and f, with theta's partials by the quotient rule (`_direction`).
The direction takes two stacked `fields.bilinear` calls and is computed
once per frame: `theta` and every member read the read-only copy the frame
holds (`Frame.held`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exprlang
from .clifford import delta, gamma
from .errors import GuardViolated, NonRealTheta, NotDegenerate
from .exprlang import Expr
from .fields import (CVector4, Frame, SupportSample, bilinear, merge_params, require_support,
                     squared_norm)
from .inversion import DEFAULT_GUARD, DEFAULT_REAL_TOL, real_part

_D4 = delta(4)
_G2 = gamma(2)

DEFAULT_CLASSIFY_TOL = 1e-10
ALGEBRA_TOL = 1e-10  # relative zero of the pointwise symmetry test


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


# theta_j = c_j psiT M_j psi / psiT g2 psi, as the (c_j, M_j) pairs.
_THETA_NUMERATORS = ((-1j, gamma(5) @ gamma(3)), (-1j, gamma(4)), (1j, gamma(5) @ gamma(1)))


# theta's transpose bilinears, denominator first, and the matrices of their
# partials: d (psiT M psi) = (d psi)T M psi + psiT M (d psi) = (d psi)T (M + MT) psi.
_THETA_MATRICES = np.stack([_G2] + [m for _, m in _THETA_NUMERATORS])
_THETA_PARTIALS = _THETA_MATRICES + _THETA_MATRICES.transpose(0, 2, 1)


def _direction(fr: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psiT g2 psi (N,), and the complex direction (1, theta) (N, 4) and its partials.

    The partials (4, N, 4) follow by the quotient rule; where the denominator
    is zero both are taken over 1 instead, so a caller must reject those points.
    It is taken once per frame, through `Frame.held`, and is read-only.
    """
    v, dv = fr.value, fr.derivs
    den, *nums = bilinear(v, _THETA_MATRICES, v)
    d_den, *d_nums = bilinear(dv, _THETA_PARTIALS, v)
    safe = np.where(den == 0, 1.0, den)
    u, du = np.ones(v.shape, dtype=complex), np.zeros(dv.shape, dtype=complex)
    for j, (coeff, _), num, d_num in zip((1, 2, 3), _THETA_NUMERATORS, nums, d_nums):
        u[:, j] = coeff * num / safe
        du[..., j] = (coeff * d_num - u[:, j] * d_den) / safe
    for shared in (den, u, du):
        shared.flags.writeable = False
    return den, u, du


def theta(fr: Frame) -> ThetaTriple:
    """The three direction ratios of transpose bilinears at the frame's points.

    Raises for the first point at which the denominator psiT g2 psi misses
    DEFAULT_GUARD or a ratio is not real to DEFAULT_REAL_TOL.
    """
    den, u, _ = fr.held(_direction)
    t = u[:, 1:]
    miss = ~gamma2_covered(den, squared_norm(fr.value), DEFAULT_GUARD)
    residue = np.abs(t.imag).max(axis=1)
    non_real = ~miss & (residue > DEFAULT_REAL_TOL * (1.0 + np.abs(t).max(axis=1)))
    bad = np.flatnonzero(miss | non_real)
    if bad.size:
        i = bad[0]
        where = tuple(fr.points[i].tolist())
        if miss[i]:
            raise GuardViolated(
                f"|psiT g2 psi| = {abs(den[i]):.3e} <= guard at {where}: theta undefined")
        raise NonRealTheta(
            f"theta has imaginary residue {residue[i]:.3e} at {where}; "
            f"the spinor is not a degenerate Dirac solution there")
    return ThetaTriple(t.real, residue)


def potential_family(fr: Frame, base: Frame, f: Expr, classification: Classification,
                     f_params: Mapping[str, complex] | None = None) -> Frame:
    """Frame of the member base + f (1, theta) of a degenerate spinor's family.

    `fr` and `base` are the spinor's and the base potential's frames at the
    same points, where f is evaluated under the parameters of both and
    f_params.  Values are real-checked; theta must be defined at every point.
    """
    if classification.verdict != "degenerate":
        raise NotDegenerate(
            f"potential family requires a degenerate spinor, verdict is "
            f"{classification.verdict!r}")
    params = merge_params(base.params, fr.params, f_params)
    den, u, du = fr.held(_direction)
    pts = fr.points
    if not den.all():
        raise GuardViolated(f"psiT g2 psi vanishes at {tuple(pts[den == 0][0].tolist())}")
    fv = exprlang.evaluate_many(f, pts, params)
    df = np.stack([exprlang.evaluate_many(exprlang.differentiate(f, mu), pts, params)
                   for mu in range(4)])
    partials = du * fv[:, None]  # f d(1, theta) + d f (1, theta) + d base
    partials += df[:, :, None] * u
    partials += base.derivs
    return Frame(pts, real_part(base.value + fv[:, None] * u, pts), partials, params)


# ---------------------------------------------------------------------------
# The canonical null form

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
    """u*[conj(w), 1, conj(w), 1] + v*[1, -w, -1, w]; indicator-null by construction."""
    wbar = np.conj(w)
    return np.array([u * wbar + v, u - v * w, u * wbar - v, u + v * w], dtype=complex)


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


def bilinear_symmetry_conditions(x: np.ndarray) -> SymmetryConditions:
    """Both sides at each spinor value of x (..., 4)."""
    x = np.asarray(x, dtype=complex)
    scale = squared_norm(x) ** 2
    threshold = np.where(scale > 0, ALGEBRA_TOL * scale, ALGEBRA_TOL)
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
