"""Ground-truth verification: the forward Dirac residual and derived checks.

The residual of (psi, a, kappa) is the evaluated left-hand side of the
coupled first-order system; its vanishing is the acceptance oracle for every
claimed correspondence.  The residual is computed over a batch of points
from one spinor frame.  Potentials enter it through their values only, so a
potential may be given as a FourPotential or as (N, 4) numeric component
values at the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import gamma
from .errors import NonRealPotential
from .fields import Point, SampleDomain, SpinorField, as_point, frame, sample_support
from .inversion import FourPotential

_G = {k: gamma(k) for k in range(1, 5)}


def _potential_values(potential, points: np.ndarray) -> np.ndarray:
    """(N, 4) real potential values; FourPotential components are evaluated per point."""
    if potential is None:
        return np.zeros((len(points), 4))
    if isinstance(potential, FourPotential):
        return np.array([potential.values(p) for p in points]).reshape(len(points), 4)
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


@dataclass(frozen=True)
class FieldTensor:
    """The six independent entries of the gauge-invariant curl of a potential."""

    f01: float
    f02: float
    f03: float
    f12: float
    f13: float
    f23: float

    def as_array(self) -> np.ndarray:
        return np.array([self.f01, self.f02, self.f03, self.f12, self.f13, self.f23])


def field_tensor(potential: FourPotential, p) -> FieldTensor:
    """Gauge-invariant antisymmetrized derivative at a point.

    The temporal component couples into the equation with the opposite sign
    to the spatial ones, so a pure gauge shift moves (a0, ak) by
    (+d0 f, -dk f).  The quantity annihilated by every such shift is the curl
    of (-a0, a1, a2, a3): entries f_0i = d0 ai + di a0 and
    f_ij = di aj - dj ai.  Up to overall sign the f_0i match the physical
    electric-field components.
    """
    from . import exprlang

    p = as_point(p)
    grad = np.empty((4, 4), dtype=complex)  # grad[mu, nu] = d_mu a_nu
    for nu in range(4):
        for mu in range(4):
            grad[mu, nu] = exprlang.evaluate(potential.component_derivative(nu, mu),
                                             p, potential.params)
    entries = []
    for mu in range(4):
        for nu in range(mu + 1, 4):
            value = grad[mu, nu] - grad[nu, mu]
            if mu == 0:
                value = grad[0, nu] + grad[nu, 0]
            if abs(value.imag) > 1e-8 * (1.0 + abs(value.real)):
                raise NonRealPotential(
                    f"field tensor entry ({mu},{nu}) has imaginary part {value.imag:.3e}")
            entries.append(float(value.real))
    return FieldTensor(*entries)


def tensor_gap(a: FourPotential, b: FourPotential, points: Sequence) -> float:
    """Max componentwise field-tensor difference over the given points."""
    worst = 0.0
    for p in points:
        diff = field_tensor(a, p).as_array() - field_tensor(b, p).as_array()
        worst = max(worst, float(np.abs(diff).max()))
    return worst


def gauge_equivalent(a: FourPotential, b: FourPotential, domain: SampleDomain,
                     tol: float = 1e-10) -> bool:
    """Field-tensor equality on the sampled box (simply connected)."""
    return tensor_gap(a, b, domain.points()) < tol


def lightlike_gap(a: FourPotential, b: FourPotential, p) -> float:
    """(a0-b0)^2 - sum_k (ak-bk)^2 at the point."""
    p = as_point(p)
    da = a.values(p) - b.values(p)
    return float(da[0] ** 2 - da[1] ** 2 - da[2] ** 2 - da[3] ** 2)


def lightlike_gap_max(a: FourPotential, b: FourPotential, points: Sequence) -> float:
    return max((abs(lightlike_gap(a, b, p)) for p in points), default=0.0)
