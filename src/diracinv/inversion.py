"""Recover the 4-potential and the mass from a spinor; gauge machinery.

All three inversion routes solve the same pointwise linear relations, each
normalized by a different denominator bilinear: psi* g4 psi, psi* g5 g4 psi,
or their sum psi* d4 psi (the combined route, whose denominator vanishes
exactly on the degenerate locus).  Each route works on a batch of points
through one `fields.frame` and the `fields.bilinear` kernel.  A point whose
denominator falls below the guard, relative to |psi|^2 there, is marked in
the route's `ok` mask rather than raised; every recovered component carries
its imaginary residue, and `RecoveredPotential.non_real` flags the points
where it is beyond tolerance.

The temporal-slot matrices in the spatial-component relations are pinned by
the residual oracle on manufactured solutions and hard-asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import exprlang
from .clifford import IDENTITY, delta, gamma
from .errors import MassInconsistent, NonRealPotential, ZeroNorm
from .exprlang import Expr
from .fields import (Frame, SampleDomain, SpinorField, as_points, bilinear, frame,
                     merge_params, require_support, sample_support, squared_norm)

DEFAULT_GUARD = 1e-10
DEFAULT_REAL_TOL = 1e-6
DEFAULT_SPREAD_TOL = 1e-8
CROSSCHECK_TOL = 1e-8


class FourPotential:
    """Four real-valued expression components (a0, a1, a2, a3)."""

    def __init__(self, components: Sequence[Expr], params: Mapping[str, complex] | None = None):
        components = tuple(components)
        if len(components) != 4:
            raise ValueError(f"a 4-potential has exactly 4 components, got {len(components)}")
        self.components = components
        self.params = dict(params) if params else {}
        self._derivatives: dict[tuple[int, int], Expr] = {}

    @classmethod
    def zero(cls) -> "FourPotential":
        return cls([exprlang.ZERO] * 4)

    @classmethod
    def from_strings(cls, texts: Sequence[str],
                     params: Mapping[str, complex] | None = None) -> "FourPotential":
        return cls([exprlang.parse(t) for t in texts], params)

    def component_derivative(self, idx: int, axis: int) -> Expr:
        key = (idx, axis)
        if key not in self._derivatives:
            self._derivatives[key] = exprlang.differentiate(self.components[idx], axis)
        return self._derivatives[key]

    def values(self, points, real_tol: float = DEFAULT_REAL_TOL) -> np.ndarray:
        """Real component values (N, 4) at (N, 4) points, or (4,) at one (4,) point.

        Realness is checked, not assumed: raises NonRealPotential at the
        first point, in order, whose imaginary residue exceeds real_tol
        relative to 1 + max |Re a| there.
        """
        single = np.shape(points) == (4,)
        pts = as_points([points] if single else points)
        raw = np.stack([exprlang.evaluate_many(c, pts, self.params)
                        for c in self.components], axis=1)
        worst = np.abs(raw.imag).max(axis=1)
        bad = np.flatnonzero(worst > real_tol * (1.0 + np.abs(raw.real).max(axis=1)))
        if bad.size:
            i = bad[0]
            raise NonRealPotential(
                f"potential has imaginary residue {worst[i]:.3e} at {tuple(pts[i].tolist())}")
        return raw.real[0] if single else raw.real

    def plus(self, other: "FourPotential") -> "FourPotential":
        params = merge_params(self.params, other.params)
        comps = [exprlang.add(a, b) for a, b in zip(self.components, other.components)]
        return FourPotential(comps, params)


@dataclass
class RecoveredPotential:
    """The potential one inversion route recovers at N points.

    `ok` marks the points whose denominator bilinear passes the guard; `a`
    and `imag_residue` are NaN at the others.
    """

    points: np.ndarray        # (N, 4)
    a: np.ndarray             # (N, 4) real parts of the solved components
    ok: np.ndarray            # (N,) bool
    imag_residue: np.ndarray  # (N,) max |Im a| / (1 + max |Re a|)

    def non_real(self, real_tol: float = DEFAULT_REAL_TOL) -> np.ndarray:
        """Mask of guard-passing points whose imaginary residue exceeds real_tol."""
        return self.ok & (self.imag_residue > real_tol)

    def non_real_error(self, idx: int) -> NonRealPotential:
        return NonRealPotential(
            f"recovered potential has relative imaginary residue "
            f"{self.imag_residue[idx]:.3e} at {tuple(self.points[idx].tolist())}; "
            f"the spinor is not a Dirac solution for any real potential near this point")


@dataclass
class MassSample:
    kappa: np.ndarray         # (N,)
    imag_residue: np.ndarray  # (N,)


@dataclass
class MassEstimate:
    kappa: float
    spread: float
    count: int
    max_imag: float
    crosscheck_gap: float | None = None


_G = {k: gamma(k) for k in range(1, 6)}
_D = {k: delta(k) for k in range(1, 5)}
_G54 = _G[5] @ _G[4]
_G5k = {k: _G[5] @ _G[k] for k in (1, 2, 3)}
_Gk4 = {k: _G[k] @ _G[4] for k in (1, 2, 3)}


def _bil(fr: Frame, m: np.ndarray) -> np.ndarray:
    return bilinear(fr.value.conj(), m, fr.value)


def _dbil(fr: Frame, m: np.ndarray, axis: int) -> np.ndarray:
    """d_axis (psi* M psi) expanded through the product rule."""
    dv = fr.derivs[axis]
    return bilinear(dv.conj(), m, fr.value) + bilinear(fr.value.conj(), m, dv)


def _bidir(fr: Frame, m: np.ndarray, axis: int) -> np.ndarray:
    """psi* M (d psi) - (d psi)* M psi with the exact symbolic partial."""
    dv = fr.derivs[axis]
    return bilinear(fr.value.conj(), m, dv) - bilinear(dv.conj(), m, fr.value)


def _recover(fr: Frame, den: np.ndarray, guard: float, a0_num: np.ndarray,
             spatial_nums: Sequence[np.ndarray]) -> RecoveredPotential:
    """Divide the numerators by the guarded denominator; a0 by 2 den, ak by 2i den."""
    ok = np.abs(den) > guard * squared_norm(fr.value)
    den = np.where(ok, den, 1.0)
    raw = np.stack([a0_num / (2.0 * den)] + [num / (2j * den) for num in spatial_nums],
                   axis=1)
    scale = 1.0 + np.abs(raw.real).max(axis=1)
    residue = np.abs(raw.imag).max(axis=1) / scale
    return RecoveredPotential(fr.points, np.where(ok[:, None], raw.real, np.nan), ok,
                              np.where(ok, residue, np.nan))


def invert_combined(field: SpinorField, kappa: float, points,
                    guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the summed relations, denominator psi* d4 psi (zero on the degenerate locus)."""
    fr = frame(field, points)
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
    return _recover(fr, _bil(fr, _D[4]), guard, a0, (a1, a2, a3))


def invert_gamma4(field: SpinorField, kappa: float, points,
                  guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the first relation family, denominator psi* g4 psi."""
    fr = frame(field, points)
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
    return _recover(fr, _bil(fr, _G[4]), guard, a0, (a1, a2, a3))


def invert_gamma5gamma4(field: SpinorField, kappa: float, points,
                        guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the second relation family, denominator psi* g5 g4 psi (mass-free)."""
    fr = frame(field, points)
    a0 = (1j * _bidir(fr, _G54, 0)
          - sum(_dbil(fr, _G5k[k], k) for k in (1, 2, 3)))
    a1 = (_bidir(fr, _G54, 1) - _dbil(fr, _G[3], 2) + _dbil(fr, _G[2], 3)
          + 1j * _dbil(fr, _G5k[1], 0))
    a2 = (_dbil(fr, _G[3], 1) + _bidir(fr, _G54, 2) - _dbil(fr, _G[1], 3)
          + 1j * _dbil(fr, _G5k[2], 0))
    a3 = (-_dbil(fr, _G[2], 1) + _dbil(fr, _G[1], 2) + _bidir(fr, _G54, 3)
          + 1j * _dbil(fr, _G5k[3], 0))
    return _recover(fr, _bil(fr, _G54), guard, a0, (a1, a2, a3))


# ---------------------------------------------------------------------------
# Mass extraction

def extract_mass_at(field: SpinorField, a0: Expr | None, points,
                    a0_params: Mapping[str, complex] | None = None) -> MassSample:
    """Pointwise mass from the temporal relation; requires the a0 component."""
    fr = frame(field, points)
    norm_sq = squared_norm(fr.value)
    zero = np.flatnonzero(norm_sq == 0.0)
    if zero.size:
        raise ZeroNorm(f"spinor vanishes at {tuple(fr.points[zero[0]].tolist())}")
    a0_value = 0j if a0 is None else exprlang.evaluate_many(a0, fr.points, a0_params)
    value = (1j * _bidir(fr, _G[4], 0)
             - sum(_dbil(fr, _G[k], k) for k in (1, 2, 3))
             - 2.0 * a0_value * _bil(fr, _G[4])) / (2.0 * norm_sq)
    return MassSample(value.real, np.abs(value.imag))


def extract_mass(field: SpinorField, a0: Expr | None, domain: SampleDomain,
                 a0_params: Mapping[str, complex] | None = None,
                 support_tol: float = 1e-12,
                 spread_tol: float = DEFAULT_SPREAD_TOL,
                 crosscheck: bool = True) -> MassEstimate:
    """Mass over all support points: mean, max spread, and a gauge-fixed cross-check.

    A spread beyond tolerance contradicts mass uniqueness, so the input cannot
    be a Dirac solution; the same applies when the gauge-fixed route disagrees.
    """
    points = require_support(sample_support(field, domain, support_tol))
    samples = extract_mass_at(field, a0, points, a0_params)
    mean = float(samples.kappa.mean())
    spread = float(np.abs(samples.kappa - mean).max())
    max_imag = float(samples.imag_residue.max())
    if spread > spread_tol * (1.0 + abs(mean)):
        raise MassInconsistent(
            f"pointwise mass varies by {spread:.3e} around {mean:.6g} over "
            f"{len(points)} support points; input is not a Dirac solution")
    if max_imag > spread_tol * (1.0 + abs(mean)):
        raise MassInconsistent(
            f"mass has imaginary residue {max_imag:.3e}; input is not a Dirac solution")

    gap = None
    if crosscheck and a0 is not None and a0 != exprlang.ZERO:
        fixed = gauge_fix_temporal(field, a0, k=0.0, a0_params=a0_params)
        checks = extract_mass_at(fixed, None, points[:3]).kappa
        gap = float(np.abs(checks - mean).max())
        if gap > CROSSCHECK_TOL * (1.0 + abs(mean)):
            raise MassInconsistent(
                f"gauge-fixed mass route disagrees by {gap:.3e} with the direct route")
    return MassEstimate(mean, spread, len(points), max_imag, gap)


# ---------------------------------------------------------------------------
# Gauge machinery

def gauge_transform(field: SpinorField, f: Expr,
                    f_params: Mapping[str, complex] | None = None
                    ) -> tuple[SpinorField, FourPotential]:
    """Multiply by exp(-i f); return the transformed spinor and the potential shift.

    If psi solves the equation with (a0, a1, a2, a3), the returned spinor
    solves it with (a0 + d0 f, a1 - d1 f, a2 - d2 f, a3 - d3 f).  The
    per-component signs are fixed by the residual oracle and frozen in tests.
    """
    factor = exprlang.call("exp", exprlang.mul(exprlang.Num(-1j), f))
    transformed = field.scaled_by(factor, f_params)
    shift = FourPotential(
        [exprlang.differentiate(f, 0),
         exprlang.neg(exprlang.differentiate(f, 1)),
         exprlang.neg(exprlang.differentiate(f, 2)),
         exprlang.neg(exprlang.differentiate(f, 3))],
        f_params)
    return transformed, shift


def gauge_fix_temporal(field: SpinorField, a0: Expr, k: float,
                       a0_params: Mapping[str, complex] | None = None) -> SpinorField:
    """Remove the temporal component: psi0 = exp(+i * integral_k^{x0} a0 ds) psi.

    The path integral runs along x0 at fixed (x1, x2, x3).  It is evaluated
    at all requested points at once by the composite Gauss-Legendre rule of
    `exprlang` (tolerance 1e-11); non-convergence or an integrand that fails
    to evaluate on the path raises QuadratureError.
    """
    integral = exprlang.path_integral(a0, k)
    factor = exprlang.call("exp", exprlang.mul(exprlang.Num(1j), integral))
    return field.scaled_by(factor, a0_params)
