"""Recover the 4-potential and the mass from a spinor; gauge machinery.

The paper's pointwise relation is written once, in `_route`, over two
matrix sets: A_mu fills its temporal and bidirectional slots, B_l its curl
slots.  The three routes are its instances, each divided by its own
denominator psi* A4 psi: `invert_gamma4` (A = g, B = g5 g, massive),
`invert_gamma5gamma4` (A = g5 g, B = g, mass-free) and `invert_combined`
(A = B = d).  As d_mu = g_mu + g5 g_mu, the combined relation is the sum of
the other two, and its denominator psi* d4 psi vanishes exactly on the
degenerate locus.  `extract_mass_at` solves the temporal relation of the g
set for the mass; `extract_mass` checks it at every support point against
the frame `gauge_fix_temporal` derives, with a0 removed, from the support's.
Its phase integrates a0 along x0 from 0 clipped into the support's x0 range,
which keeps the path in the box and moves psi0 only by a constant phase.

The routes read a `fields.Frame` and evaluate no spinor.  Every bilinear
they read comes from a table of the frame (`_Covariants`): psi* M psi, and
(d_a psi)* M psi and psi* M (d_a psi) at each axis, for each matrix of the
routes' sets, from two stacked `fields.bilinear` calls.  The table is built
on a frame's first route and held by the frame (`Frame.held`), so the two
gamma routes share one; the mass builds its own with only the pieces its
relation reads.  A point whose denominator falls below the guard,
relative to |psi|^2 there, is marked in the route's `ok` mask rather than
raised; every recovered component carries its imaginary residue, and
`RecoveredPotential.non_real` flags the points where it is beyond tolerance.

The temporal-slot matrices in the spatial-component relations are pinned by
the residual oracle on manufactured solutions and hard-asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exprlang
from .clifford import IDENTITY, delta, gamma
from .errors import EvaluationError, MassInconsistent, NonRealPotential, ZeroNorm
from .exprlang import Expr
# `frame` only for bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .fields import (ExpressionField, Frame, SpinorField, SupportSample,
                     bilinear, frame, merge_params)

DEFAULT_GUARD = 1e-10
DEFAULT_REAL_TOL = 1e-6
DEFAULT_SPREAD_TOL = 1e-8
CROSSCHECK_TOL = 1e-8


def real_part(raw: np.ndarray, points: np.ndarray,
              real_tol: float = DEFAULT_REAL_TOL) -> np.ndarray:
    """Real parts of potential values (N, 4) at (N, 4) points, checked, not assumed."""
    worst = np.abs(raw.imag).max(axis=1)
    bad = np.flatnonzero(worst > real_tol * (1.0 + np.abs(raw.real).max(axis=1)))
    if bad.size:
        i = bad[0]
        raise NonRealPotential(
            f"potential has imaginary residue {worst[i]:.3e} at {tuple(points[i].tolist())}")
    return raw.real


class FourPotential(ExpressionField):
    """Four real-valued expression components (a0, a1, a2, a3)."""

    NOUN = "a 4-potential"

    @classmethod
    def zero(cls) -> "FourPotential":
        return cls([exprlang.ZERO] * 4)

    def values(self, points, real_tol: float = DEFAULT_REAL_TOL) -> np.ndarray:
        """Real component values (N, 4) at (N, 4) points, or (4,) at one (4,) point."""
        single = np.shape(points) == (4,)
        pts = np.asarray([points] if single else points, dtype=float)
        real = real_part(super().values(pts), pts, real_tol)
        return real[0] if single else real

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


# The matrix sets, indexed 1..4; delta(k) = gamma(k) + gamma(5) gamma(k).
_GAMMA = {k: gamma(k) for k in range(1, 5)}
_G5GAMMA = {k: gamma(5) @ gamma(k) for k in range(1, 5)}
_DELTA = {k: delta(k) for k in range(1, 5)}
_Gk4 = {k: gamma(k) @ gamma(4) for k in (1, 2, 3)}

# -0.0 + x is x for every x, signed zeros included; +0.0 or 0 * kappa is not.
_SIGNED_ZERO = complex(-0.0, -0.0)


class _Covariants:
    """The bilinears of one frame that the relation reads, each formed once.

    `value(M)` is psi* M psi for each M of `values`.  For each (axes,
    matrices) pair of `partials`, and each a of the axes and M of the
    matrices, the table keeps (d_a psi)* M psi and psi* M (d_a psi), which
    `dbil` and `bidir` combine.  The values take one stacked `bilinear` call
    and each pair one more.
    """

    def __init__(self, fr: Frame, values: tuple, partials: tuple):
        v, vc = fr.value, fr.value.conj()
        self._value = {m.tobytes(): b for m, b in zip(values, bilinear(vc, np.stack(values), v))}
        self._pieces = {}
        for axes, matrices in partials:
            d = fr.derivs[list(axes)]
            left = np.concatenate([d.conj(), np.broadcast_to(vc, d.shape)])
            right = np.concatenate([np.broadcast_to(v, d.shape), d])
            for m, pieces in zip(matrices, bilinear(left, np.stack(matrices), right)):
                for axis, lhs, rhs in zip(axes, pieces, pieces[len(axes):]):
                    self._pieces[m.tobytes(), axis] = (lhs, rhs)

    def value(self, m: np.ndarray) -> np.ndarray:
        return self._value[m.tobytes()]

    def dbil(self, m: np.ndarray, axis: int) -> np.ndarray:
        """d_axis (psi* M psi) expanded through the product rule."""
        lhs, rhs = self._pieces[m.tobytes(), axis]
        return lhs + rhs

    def bidir(self, m: np.ndarray, axis: int) -> np.ndarray:
        """psi* M (d psi) - (d psi)* M psi with the exact symbolic partial."""
        lhs, rhs = self._pieces[m.tobytes(), axis]
        return rhs - lhs


def _temporal(t: _Covariants, A: Mapping[int, np.ndarray]) -> np.ndarray:
    """The mass-free part of the temporal relation: i (A4 bidirectional in x0) - div."""
    return -sum(t.dbil(A[k], k) for k in (1, 2, 3)) + 1j * t.bidir(A[4], 0)


def _route(fr: Frame, t: _Covariants, kappa: float, guard: float, A: Mapping[int, np.ndarray],
           B: Mapping[int, np.ndarray], massive: bool) -> RecoveredPotential:
    """The pointwise relation for matrix sets A and B, over denominator psi* A4 psi.

    Spatial component j sums, over the axes k = 1, 2, 3 in order, the A4
    bidirectional term at k = j and -eps_jkl d_k (psi* B_l psi) at the other
    two, then i d_0 (psi* A_j psi); the -2 kappa terms enter when `massive`.
    """
    a0 = _temporal(t, A)
    if massive:
        a0 = a0 - 2.0 * kappa * t.value(IDENTITY)
    spatial = []
    for j in (1, 2, 3):
        aj = -2.0 * kappa * t.value(_Gk4[j]) if massive else _SIGNED_ZERO
        for k in (1, 2, 3):
            if k == j:
                aj = aj + t.bidir(A[4], j)
            elif k == j % 3 + 1:  # (j, k, l) cyclic: eps_jkl = +1
                aj = aj - t.dbil(B[6 - j - k], k)
            else:
                aj = aj + t.dbil(B[6 - j - k], k)
        spatial.append(aj + 1j * t.dbil(A[j], 0))
    # a0 is divided by 2 den, ak by 2i den, wherever den passes the guard.
    den = t.value(A[4])
    ok = np.abs(den) > guard * t.value(IDENTITY).real
    den = np.where(ok, den, 1.0)
    raw = np.stack([a0 / (2.0 * den)] + [num / (2j * den) for num in spatial], axis=1)
    residue = np.abs(raw.imag).max(axis=1) / (1.0 + np.abs(raw.real).max(axis=1))
    return RecoveredPotential(fr.points, np.where(ok[:, None], raw.real, np.nan), ok,
                              np.where(ok, residue, np.nan))


# Each route table holds what its routes read, at every axis: the combined
# route's, and the one the two gamma routes share.
def _delta_table(fr: Frame) -> _Covariants:
    return _Covariants(fr, (IDENTITY, *_Gk4.values(), _DELTA[4]),
                       ((range(4), tuple(_DELTA.values())),))


def _gamma_table(fr: Frame) -> _Covariants:
    return _Covariants(fr, (IDENTITY, *_Gk4.values(), _GAMMA[4], _G5GAMMA[4]),
                       ((range(4), (*_GAMMA.values(), *_G5GAMMA.values())),))


def invert_combined(fr: Frame, kappa: float, guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the summed relations, denominator psi* d4 psi (zero on the degenerate locus)."""
    return _route(fr, fr.held(_delta_table), kappa, guard, _DELTA, _DELTA, massive=True)


def invert_gamma4(fr: Frame, kappa: float, guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the first relation family, denominator psi* g4 psi."""
    return _route(fr, fr.held(_gamma_table), kappa, guard, _GAMMA, _G5GAMMA, massive=True)


def invert_gamma5gamma4(fr: Frame, kappa: float,
                        guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the second relation family, denominator psi* g5 g4 psi (mass-free)."""
    return _route(fr, fr.held(_gamma_table), kappa, guard, _G5GAMMA, _GAMMA, massive=False)


# ---------------------------------------------------------------------------
# Mass extraction

def extract_mass_at(fr: Frame, a0: Expr | None,
                    a0_params: Mapping[str, complex] | None = None) -> MassSample:
    """Pointwise mass from the temporal relation; requires the a0 component."""
    # Only what the temporal relation reads: g_k at axis k and g4 at axis 0.
    t = _Covariants(fr, (IDENTITY, _GAMMA[4]), (((0,), (_GAMMA[4],)), ((1,), (_GAMMA[1],)),
                                                ((2,), (_GAMMA[2],)), ((3,), (_GAMMA[3],))))
    norm_sq = t.value(IDENTITY).real
    zero = np.flatnonzero(norm_sq == 0.0)
    if zero.size:
        raise ZeroNorm(f"spinor vanishes at {tuple(fr.points[zero[0]].tolist())}")
    a0_value = 0j if a0 is None else exprlang.evaluate_many(a0, fr.points, a0_params)
    value = (_temporal(t, _GAMMA) - 2.0 * a0_value * t.value(_GAMMA[4])) / (2.0 * norm_sq)
    return MassSample(value.real, np.abs(value.imag))


def extract_mass(sample: SupportSample, a0: Expr | None,
                 a0_params: Mapping[str, complex] | None = None,
                 spread_tol: float = DEFAULT_SPREAD_TOL) -> MassEstimate:
    """Mass over all support points: mean, max spread, and a gauge-fixed cross-check.

    A spread beyond tolerance contradicts mass uniqueness, so the input cannot
    be a Dirac solution; the same applies when the gauge-fixed route disagrees.
    """
    points = sample.frame.points
    samples = extract_mass_at(sample.frame, a0, a0_params)
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
    if a0 is not None and a0 != exprlang.ZERO:
        x0 = points[:, 0]
        fixed = gauge_fix_temporal(sample.frame, a0, np.clip(0.0, x0.min(), x0.max()), a0_params)
        gap = float(np.abs(extract_mass_at(fixed, None).kappa - mean).max())
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


def gauge_fix_temporal(fr: Frame, a0: Expr, k: float,
                       a0_params: Mapping[str, complex] | None = None) -> Frame:
    """psi0 = exp(i Phi) psi, Phi = integral_k^{x0} a0 ds along x0, as a frame from psi's.

    psi0 solves the equation with a0 removed.  By the product rule d_0 psi0
    = exp(i Phi) (d_0 psi + i a0 psi) and d_j psi0 = exp(i Phi) (d_j psi +
    i Phi_j psi), Phi_j the same integral of d_j a0.  A path the quadrature
    cannot integrate raises QuadratureError, a non-finite entry
    EvaluationError.
    """
    params = merge_params(fr.params, a0_params)
    phi, *phi_j = [exprlang.path_integral(e, k, fr.points, params)
                   for e in (a0, *(exprlang.differentiate(a0, j) for j in (1, 2, 3)))]
    rates = np.stack([exprlang.evaluate_many(a0, fr.points, params), *phi_j])  # (4, N)
    with np.errstate(all="ignore"):
        phase = np.exp(1j * phi)[:, None]
        value = phase * fr.value
        derivs = phase * (fr.derivs + 1j * rates[..., None] * fr.value)
    if not (np.isfinite(value).all() and np.isfinite(derivs).all()):
        raise EvaluationError(f"temporal gauge fixing of a0 = {exprlang.to_text(a0)!r} "
                              "produced a non-finite value")
    return Frame(fr.points, value, derivs, params)
