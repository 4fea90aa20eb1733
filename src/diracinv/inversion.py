"""Recover the 4-potential and the mass from a spinor; gauge machinery.

The paper's pointwise relation is written once, in `_relation`, over two
matrix sets: A_mu fills its temporal and bidirectional slots, B_l its curl
slots.  It gives the numerators of a0..a3 and the denominator psi* A4 psi,
and `_recover` divides them.  `invert_gamma4` is the relation of (A = g,
B = g5 g, massive) and `invert_gamma5gamma4` that of (A = g5 g, B = g,
mass-free).  As d_mu = g_mu + g5 g_mu, the paper's combined relation, over
d, is their sum term for term, and `invert_combined` divides the summed
numerators by psi* d4 psi = psi* g4 psi + psi* g5 g4 psi, which vanishes
exactly on the degenerate locus.  `extract_mass_at` solves the temporal
relation of the g set for the mass at each point; `extract_mass` requires
one mass over the whole support.  Both read a `MassTable`, the psi side of
that relation, which `mass_table` builds once per frame and its caller
keeps: each a0 adds only its own term.  No gauge-fixed route can check it
further: exp(i Phi) psi has the bilinears and product-rule sums of psi,
and its x0 bidirectional term moves by 2i a0 psi* M psi, so its temporal
relation without a0 is the direct relation with a0, term for term,
whatever Phi is.

The routes read a `fields.Frame` and evaluate no spinor.  Every bilinear
they read comes from one table of the frame (`_Covariants`): psi* M psi,
and (d_a psi)* M psi and psi* M (d_a psi) at each axis, for each matrix of
the g and g5 g sets, from two stacked `fields.bilinear` calls, the second
made on the first read of a partial.  The table is built on a frame's
first route and held by the frame (`Frame.held`), so the three routes share
one and each of its two relations, once per kappa; the mass table is its
own, with only the pieces its relation reads.  `invert_combined` reads its
guard from the table's values first, and forms nothing more if no point
passes it.  A point whose denominator falls below the guard, relative to |psi|^2
there, is marked in the route's `ok` mask rather than raised; every
recovered component carries its imaginary residue, and
`RecoveredPotential.non_real` flags the points where it is beyond tolerance.

The temporal-slot matrices in the spatial-component relations are pinned by
the residual oracle on manufactured solutions and hard-asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import exprlang
from .clifford import IDENTITY, gamma
from .errors import MassInconsistent, NonRealPotential, ZeroNorm
from .exprlang import Expr
# `frame` only for bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .fields import ExpressionField, Frame, SpinorField, bilinear, frame, merge_params, row_max

DEFAULT_GUARD = 1e-10
DEFAULT_REAL_TOL = 1e-6
DEFAULT_SPREAD_TOL = 1e-8


def real_part(raw: np.ndarray, points: np.ndarray,
              real_tol: float = DEFAULT_REAL_TOL) -> np.ndarray:
    """Real parts of potential values (N, 4) at (N, 4) points, checked, not assumed."""
    worst = row_max(np.abs(raw.imag))
    bad = np.flatnonzero(worst > real_tol * (1.0 + row_max(np.abs(raw.real))))
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


# The matrix sets, indexed 1..4.
_GAMMA = {k: gamma(k) for k in range(1, 5)}
_G5GAMMA = {k: gamma(5) @ gamma(k) for k in range(1, 5)}
_Gk4 = {k: gamma(k) @ gamma(4) for k in (1, 2, 3)}

# -0.0 + x is x for every x, signed zeros included; +0.0 or 0 * kappa is not.
_SIGNED_ZERO = complex(-0.0, -0.0)


class _Covariants:
    """The bilinears of one frame that the relation reads, each formed once.

    `value(M)` is psi* M psi for each M of `values`.  For each (axes,
    matrices) pair of `partials`, and each a of the axes and M of the
    matrices, the table keeps (d_a psi)* M psi and psi* M (d_a psi), which
    `dbil` and `bidir` combine.  The values take one stacked `bilinear` call
    and each pair one more; the pairs' calls are made on the first `dbil`
    or `bidir` read, so a table that only guards builds none.
    """

    def __init__(self, fr: Frame, values: tuple, partials: tuple):
        self.relations: dict = {}
        self._v, self._vc = fr.value, fr.value.conj()
        self._derivs, self._live, self._partials = fr.derivs, fr.live, partials
        self._value = {m.tobytes(): b for m, b in
                       zip(values, bilinear(self._vc, np.stack(values), self._v, self._live))}

    @cached_property
    def _pieces(self) -> dict:
        v, vc, pieces = self._v, self._vc, {}
        for axes, matrices in self._partials:
            d = self._derivs[list(axes)]
            left = np.concatenate([d.conj(), np.broadcast_to(vc, d.shape)])
            right = np.concatenate([np.broadcast_to(v, d.shape), d])
            del d  # each operand goes as soon as it is read, not at the next pair
            for m, products in zip(matrices, bilinear(left, np.stack(matrices), right, self._live)):
                for axis, lhs, rhs in zip(axes, products, products[len(axes):]):
                    pieces[m.tobytes(), axis] = (lhs, rhs)
            del left, right
        return pieces

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


def _relation(t: _Covariants, kappa: float, A: Mapping[int, np.ndarray],
              B: Mapping[int, np.ndarray], massive: bool) -> tuple[np.ndarray, np.ndarray]:
    """The numerators (N, 4) of the pointwise relation for matrix sets A and B, and psi* A4 psi.

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
    return np.stack([a0, *spatial], axis=1), t.value(A[4])


def _passes(fr: Frame, den: np.ndarray, guard: float) -> np.ndarray:
    """Where |den| > guard |psi|^2, from the values of the frame's held table."""
    return np.abs(den) > guard * fr.held(_gamma_table).value(IDENTITY).real


def _recover(fr: Frame, num: np.ndarray, den: np.ndarray, guard: float) -> RecoveredPotential:
    """a0 = n0 / 2 den and ak = nk / 2i den wherever den passes the guard, relative to |psi|^2."""
    ok = _passes(fr, den, guard)
    den = np.where(ok, den, 1.0)
    raw = np.stack([num[:, 0] / (2.0 * den)] + [num[:, k] / (2j * den) for k in (1, 2, 3)],
                   axis=1)
    residue = row_max(np.abs(raw.imag)) / (1.0 + row_max(np.abs(raw.real)))
    return RecoveredPotential(fr.points, np.where(ok[:, None], raw.real, np.nan), ok,
                              np.where(ok, residue, np.nan))


def _gamma_table(fr: Frame) -> _Covariants:
    """What the three routes read, at every axis, held by their frame."""
    return _Covariants(fr, (IDENTITY, *_Gk4.values(), _GAMMA[4], _G5GAMMA[4]),
                       ((range(4), (*_GAMMA.values(), *_G5GAMMA.values())),))


def _held_relation(fr: Frame, kappa: float, massive: bool) -> tuple[np.ndarray, np.ndarray]:
    """The g relation (massive) or the g5 g relation of the frame's held table, once per kappa."""
    t = fr.held(_gamma_table)
    key = (massive, float(kappa).hex())  # hex tells -0.0 from 0.0
    if key not in t.relations:
        A, B = (_GAMMA, _G5GAMMA) if massive else (_G5GAMMA, _GAMMA)
        t.relations[key] = _relation(t, kappa, A, B, massive)
    return t.relations[key]


def invert_combined(fr: Frame, kappa: float, guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the summed relations, denominator psi* d4 psi (zero on the degenerate locus).

    The guard is read first, from the held values with the bits `_recover`
    reads: if no point passes it, no relation and no partial piece is formed.
    """
    t = fr.held(_gamma_table)
    if not _passes(fr, t.value(_GAMMA[4]) + t.value(_G5GAMMA[4]), guard).any():
        n = len(fr.points)
        return RecoveredPotential(fr.points, np.full((n, 4), np.nan), np.zeros(n, dtype=bool),
                                  np.full(n, np.nan))
    num, den = _held_relation(fr, kappa, massive=True)
    num5, den5 = _held_relation(fr, kappa, massive=False)
    return _recover(fr, num + num5, den + den5, guard)


def invert_gamma4(fr: Frame, kappa: float, guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the first relation family, denominator psi* g4 psi."""
    return _recover(fr, *_held_relation(fr, kappa, massive=True), guard)


def invert_gamma5gamma4(fr: Frame, kappa: float,
                        guard: float = DEFAULT_GUARD) -> RecoveredPotential:
    """Solve the second relation family, denominator psi* g5 g4 psi (mass-free)."""
    return _recover(fr, *_held_relation(fr, kappa, massive=False), guard)


# ---------------------------------------------------------------------------
# Mass extraction

@dataclass
class MassTable:
    """The psi side of a frame's temporal relation, which every a0 shares.

    `temporal` is its mass-free part, `gamma4` psi* g4 psi and `norm_sq`
    |psi|^2, nonzero at every point; an a0 adds only its term
    -2 a0 psi* g4 psi (`extract_mass_at`).
    """

    points: np.ndarray    # (N, 4)
    temporal: np.ndarray  # (N,)
    gamma4: np.ndarray    # (N,)
    norm_sq: np.ndarray   # (N,)


def mass_table(fr: Frame) -> MassTable:
    """The mass table of a frame; raises ZeroNorm where psi vanishes."""
    # Only what the temporal relation reads: g_k at axis k and g4 at axis 0.
    t = _Covariants(fr, (IDENTITY, _GAMMA[4]), (((0,), (_GAMMA[4],)), ((1,), (_GAMMA[1],)),
                                                ((2,), (_GAMMA[2],)), ((3,), (_GAMMA[3],))))
    norm_sq = t.value(IDENTITY).real
    zero = np.flatnonzero(norm_sq == 0.0)
    if zero.size:
        raise ZeroNorm(f"spinor vanishes at {tuple(fr.points[zero[0]].tolist())}")
    return MassTable(fr.points, _temporal(t, _GAMMA), t.value(_GAMMA[4]), norm_sq)


def extract_mass_at(table: MassTable, a0: np.ndarray | None,
                    real_tol: float = DEFAULT_REAL_TOL) -> MassSample:
    """Pointwise mass from the temporal relation.

    `a0` is the potential's complex a0 at the table's points, real-checked by
    `real_part`, or None for a0 = 0.
    """
    if a0 is None:
        a0 = 0j
    else:
        real_part(a0[:, None], table.points, real_tol)
    value = (table.temporal - 2.0 * a0 * table.gamma4) / (2.0 * table.norm_sq)
    return MassSample(value.real, np.abs(value.imag))


def extract_mass(table: MassTable, a0: np.ndarray | None,
                 spread_tol: float = DEFAULT_SPREAD_TOL,
                 real_tol: float = DEFAULT_REAL_TOL) -> MassEstimate:
    """Mass over all of a table's points: mean, max spread and max imaginary residue.

    A spread or an imaginary residue beyond tolerance contradicts mass
    uniqueness, so the input cannot be a Dirac solution.  `a0` is as for
    `extract_mass_at`; a non-real a0 raises NonRealPotential before either.
    """
    points = table.points
    samples = extract_mass_at(table, a0, real_tol)
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
    return MassEstimate(mean, spread, len(points), max_imag)


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
    factor = exprlang.Call("exp", exprlang.mul(exprlang.Num(-1j), f))
    transformed = field.scaled_by(factor, f_params)
    shift = FourPotential(
        [exprlang.differentiate(f, 0),
         exprlang.neg(exprlang.differentiate(f, 1)),
         exprlang.neg(exprlang.differentiate(f, 2)),
         exprlang.neg(exprlang.differentiate(f, 3))],
        f_params)
    return transformed, shift
