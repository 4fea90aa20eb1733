"""Ground-truth verification: the forward Dirac residual and derived checks.

The residual of (psi, a, kappa) is the evaluated left-hand side of the
coupled first-order system; its vanishing is the acceptance oracle for every
claimed correspondence.  The residual is computed over a batch of points
from one spinor frame.  Potentials enter it through their values only, so a
potential may be given as a FourPotential or as (N, 4) numeric component
values at the points.

The potential-side checks work on the same batches: `field_tensor` gives
the six gauge-invariant entries (N, 6) from the off-diagonal component
partials, each evaluated once over all points, and `lightlike_gap` the
Minkowski square (N,) of the difference of two potentials.  `tensor_gap` and
`lightlike_gap_max` reduce them to the largest magnitude over the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .clifford import gamma
from .errors import NonRealPotential
from .fields import (Point, SampleDomain, SpinorField, as_point, as_points, frame,
                     sample_support)
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


def dirac_residual(field: SpinorField, potential, kappa: float, points) -> np.ndarray:
    """Residual 4-vectors (N, 4) of the coupled system at the points (exact derivatives)."""
    fr = frame(field, points)
    a = _potential_values(potential, fr.points)
    out = kappa * fr.value
    for k in (1, 2, 3):
        out = out + (fr.derivs[k] - 1j * a[:, k, None] * fr.value) @ _G[k].T
    out = out - 1j * ((fr.derivs[0] + 1j * a[:, 0, None] * fr.value) @ _G[4].T)
    return out


def residual_norm_at(field: SpinorField, potential, kappa: float, points) -> np.ndarray:
    return np.linalg.norm(dirac_residual(field, potential, kappa, points), axis=1)


@dataclass
class ResidualReport:
    """Residual norms over a sample, restricted to support points."""

    max_norm: float
    argmax_point: Point | None
    norms: np.ndarray
    relative_max: float
    count: int
    no_support: bool = False

    @property
    def passed(self) -> bool:
        return not self.no_support


def residual_norm(field: SpinorField, potential, kappa: float, domain: SampleDomain,
                  support_tol: float = 1e-12) -> ResidualReport:
    """Max and per-point residual norms over the sampled support."""
    sample = sample_support(field, domain, support_tol)
    if not sample.has_support:
        return ResidualReport(0.0, None, np.zeros(0), 0.0, 0, no_support=True)
    norms = residual_norm_at(field, potential, kappa, sample.support)
    rel = norms / ((abs(kappa) + 1.0) * sample.norms[sample.norms > sample.threshold])
    worst = int(np.argmax(norms))
    return ResidualReport(float(norms[worst]), as_point(sample.support[worst]),
                          norms, float(rel.max()), len(norms))


# Index pairs (mu, nu) of the field tensor entries, in column order.
_TENSOR_ENTRIES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def field_tensor(potential: FourPotential, points) -> np.ndarray:
    """Gauge-invariant antisymmetrized derivative (N, 6) at (N, 4) points.

    Columns are f01, f02, f03, f12, f13, f23; each of the 12 partials they
    use is evaluated once over all points.  The temporal component
    couples into the equation with the opposite sign to the spatial ones, so
    a pure gauge shift moves (a0, ak) by (+d0 f, -dk f).  The quantity
    annihilated by every such shift is the curl of (-a0, a1, a2, a3):
    entries f_0i = d0 ai + di a0 and f_ij = di aj - dj ai.  Up to overall
    sign the f_0i match the physical electric-field components.  An entry
    with a non-negligible imaginary part raises NonRealPotential, at the
    first such point and there at the first such entry.
    """
    pts = as_points(points)

    def d(mu: int, nu: int) -> np.ndarray:  # d_mu a_nu at every point
        return exprlang.evaluate_many(potential.component_derivative(nu, mu), pts,
                                      potential.params)

    entries = np.stack([d(0, nu) + d(nu, 0) if mu == 0 else d(mu, nu) - d(nu, mu)
                        for mu, nu in _TENSOR_ENTRIES], axis=1)
    bad = np.abs(entries.imag) > 1e-8 * (1.0 + np.abs(entries.real))
    if bad.any():
        i, j = divmod(int(np.flatnonzero(bad)[0]), len(_TENSOR_ENTRIES))
        mu, nu = _TENSOR_ENTRIES[j]
        raise NonRealPotential(
            f"field tensor entry ({mu},{nu}) has imaginary part {entries[i, j].imag:.3e}")
    return entries.real.copy()


def tensor_gap(a: FourPotential, b: FourPotential, points) -> float:
    """Max componentwise field-tensor difference over the given points."""
    return float(np.abs(field_tensor(a, points) - field_tensor(b, points)).max(initial=0.0))


def gauge_equivalent(a: FourPotential, b: FourPotential, domain: SampleDomain,
                     tol: float = 1e-10) -> bool:
    """Field-tensor equality on the sampled box (simply connected)."""
    return tensor_gap(a, b, domain.points()) < tol


def lightlike_gap(a: FourPotential, b: FourPotential, points) -> np.ndarray:
    """(a0-b0)^2 - sum_k (ak-bk)^2 at each of the (N, 4) points."""
    da = a.values(points) - b.values(points)
    return da[:, 0] ** 2 - da[:, 1] ** 2 - da[:, 2] ** 2 - da[:, 3] ** 2


def lightlike_gap_max(a: FourPotential, b: FourPotential, points) -> float:
    return float(np.abs(lightlike_gap(a, b, points)).max(initial=0.0))
