"""Ground-truth verification: the forward Dirac residual and derived checks.

The residual of (psi, a, kappa) is the evaluated left-hand side of the
coupled first-order system; its vanishing is the acceptance oracle for every
claimed correspondence.  The residual kernels take a `fields.Frame`, and
`residual_norm` the run's `fields.SupportSample`, whose frame it shares.
Potentials enter the residual through their values only, so a potential
may be given as a FourPotential or as (N, 4) numeric component values, such
as a family member's frame values.

The potential-side checks read a `fields.Frame` of each potential and
evaluate nothing: `field_tensor` gives the six gauge-invariant entries
(N, 6) from the frame's partials, and `lightlike_gap` the Minkowski square
(N,) of the difference of two potentials' values.  `tensor_gap` and
`lightlike_gap_max` reduce them to the largest magnitude over the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import gamma
from .errors import NonRealPotential
# `frame` only for bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .fields import Frame, SupportSample, frame
from .inversion import FourPotential

_G = {k: gamma(k) for k in range(1, 5)}


def _potential_values(potential, points: np.ndarray) -> np.ndarray:
    """(N, 4) real potential values at the points."""
    if potential is None:
        return np.zeros((len(points), 4))
    if isinstance(potential, FourPotential):
        return potential.values(points)
    values = np.asarray(potential, dtype=float)
    if values.shape != (len(points), 4):
        raise ValueError(f"potential values must be 4 reals per point, got shape "
                         f"{values.shape} for {len(points)} points")
    return values


def dirac_residual(fr: Frame, potential, kappa: float) -> np.ndarray:
    """Residual 4-vectors (N, 4) of the coupled system at the frame's points."""
    a = _potential_values(potential, fr.points)
    out = kappa * fr.value
    for k in (1, 2, 3):
        out = out + (fr.derivs[k] - 1j * a[:, k, None] * fr.value) @ _G[k].T
    out = out - 1j * ((fr.derivs[0] + 1j * a[:, 0, None] * fr.value) @ _G[4].T)
    return out


def residual_norm_at(fr: Frame, potential, kappa: float) -> np.ndarray:
    return np.linalg.norm(dirac_residual(fr, potential, kappa), axis=1)


@dataclass
class ResidualReport:
    """Residual norms over a sample, restricted to support points."""

    max_norm: float
    argmax_point: tuple[float, ...] | None
    norms: np.ndarray
    relative_max: float
    count: int
    no_support: bool = False

    @property
    def passed(self) -> bool:
        return not self.no_support


def residual_norm(sample: SupportSample, potential, kappa: float) -> ResidualReport:
    """Max and per-point residual norms over the sampled support."""
    if not sample.has_support:
        return ResidualReport(0.0, None, np.zeros(0), 0.0, 0, no_support=True)
    norms = residual_norm_at(sample.frame, potential, kappa)
    rel = norms / ((abs(kappa) + 1.0) * sample.norms[sample.norms > sample.threshold])
    worst = int(np.argmax(norms))
    return ResidualReport(float(norms[worst]), tuple(sample.support[worst].tolist()),
                          norms, float(rel.max()), len(norms))


# Index pairs (mu, nu) of the field tensor entries, in column order.
_TENSOR_ENTRIES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def field_tensor(pf: Frame) -> np.ndarray:
    """Gauge-invariant antisymmetrized derivative (N, 6) from a potential's frame.

    Columns are f01, f02, f03, f12, f13, f23, read off the frame's partials.
    The temporal component couples into the equation with the opposite sign
    to the spatial ones, so a pure gauge shift moves (a0, ak) by (+d0 f,
    -dk f).  The quantity annihilated by every such shift is the curl of
    (-a0, a1, a2, a3): entries f_0i = d0 ai + di a0 and f_ij = di aj - dj ai.
    Up to overall sign the f_0i match the physical electric-field components.
    An entry with a non-negligible imaginary part raises NonRealPotential, at
    the first such point and there at the first such entry.
    """
    d = pf.derivs  # d[mu][:, nu] is d_mu a_nu at every point
    entries = np.stack([d[0][:, nu] + d[nu][:, 0] if mu == 0 else d[mu][:, nu] - d[nu][:, mu]
                        for mu, nu in _TENSOR_ENTRIES], axis=1)
    bad = np.abs(entries.imag) > 1e-8 * (1.0 + np.abs(entries.real))
    if bad.any():
        i, j = divmod(int(np.flatnonzero(bad)[0]), len(_TENSOR_ENTRIES))
        mu, nu = _TENSOR_ENTRIES[j]
        raise NonRealPotential(
            f"field tensor entry ({mu},{nu}) has imaginary part {entries[i, j].imag:.3e}")
    return entries.real.copy()


def tensor_gap(a: Frame, b: Frame) -> float:
    """Max componentwise field-tensor difference of two potential frames at the same points."""
    return float(np.abs(field_tensor(a) - field_tensor(b)).max(initial=0.0))


def lightlike_gap(a: Frame, b: Frame) -> np.ndarray:
    """(a0-b0)^2 - sum_k (ak-bk)^2 at each point of two potential frames."""
    da = a.value - b.value
    return da[:, 0] ** 2 - da[:, 1] ** 2 - da[:, 2] ** 2 - da[:, 3] ** 2


def lightlike_gap_max(a: Frame, b: Frame) -> float:
    return float(np.abs(lightlike_gap(a, b)).max(initial=0.0))
