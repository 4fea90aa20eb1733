"""Ground-truth verification: the forward Dirac residual and derived checks.

The residual of (psi, a, kappa) is the evaluated left-hand side of the
coupled first-order system; its vanishing is the acceptance oracle for every
claimed correspondence.  The residual kernels take a `fields.Frame`, and
`residual_norm` the run's `fields.SupportSample`, whose frame it shares, and
the residual there if the caller holds it; a sample always has a support
point, so its report always names a worst one.
Potentials enter the residual through their values only, so a potential
may be given as a FourPotential or as (N, 4) numeric component values, such
as a family member's values; a zero potential adds no term.  Each gamma acts
as its gather with signs (`clifford.signed_permutation`), with no matrix
product.  The residual is affine in the potential, and `residual_direction`
gives its change K per unit step along a direction v, with the same
gathers: every potential a + f v, for real f, has the residual R(a) + f K.

The potential-side checks read what a potential holds and evaluate
nothing: `field_tensor` gives the six gauge-invariant entries
(N, 6) from the frame's partials, and `lightlike_gap` the Minkowski square
(N,) of the difference of two potentials' values.  `tensor_gap` of two
field tensors and `lightlike_gap_max` reduce them to the largest magnitude
over the points, or one field tensor to its largest magnitude; a caller
that compares several potentials with one base forms the base's field
tensor once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import signed_permutation
from .errors import NonRealPotential
# `frame` only for bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .fields import Frame, SupportSample, frame, row_norm
from .inversion import DEFAULT_REAL_TOL, FourPotential


def _potential_values(potential, points: np.ndarray) -> np.ndarray | None:
    """(N, 4) real potential values at the points, or None for the zero potential.

    None, or a FourPotential of four zero literals, is zero everywhere: it
    evaluates nothing and adds no term to the residual.
    """
    if potential is None or isinstance(potential, FourPotential) and not any(potential.live):
        return None
    if isinstance(potential, FourPotential):
        return potential.values(points)
    values = np.asarray(potential, dtype=float)
    if values.shape != (len(points), 4):
        raise ValueError(f"potential values must be 4 reals per point, got shape "
                         f"{values.shape} for {len(points)} points")
    return values


def _real_gather(k: int, factor: complex = 1) -> tuple[np.ndarray, np.ndarray]:
    """factor * gamma_k, for a factor +-1 or +-i, as a signed permutation of 8 reals.

    Returns the source index of each real of a 4-vector and its sign: an
    entry +-1 keeps the pair (a, b), times the sign; +-i turns it into
    (-+b, +-a).
    """
    perm, signs = signed_permutation(k)
    signs = factor * signs
    turn = (signs.imag != 0).astype(int)
    source = np.stack([2 * perm + turn, 2 * perm + 1 - turn], axis=1).ravel()
    sign = np.stack([signs.real - signs.imag, signs.real + signs.imag], axis=1).ravel()
    return source, sign


# gamma_1, gamma_2, gamma_3 and i gamma_4, as the residual applies them.
_GAMMA_REALS = {1: _real_gather(1), 2: _real_gather(2), 3: _real_gather(3),
                4: _real_gather(4, 1j)}


def _reals(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(float)


def dirac_residual(fr: Frame, potential, kappa: float) -> np.ndarray:
    """Residual 4-vectors (N, 4) of the coupled system at the frame's points.

    kappa psi + sum_k gamma_k (d_k psi - i a_k psi) - i gamma_4 (d_0 psi +
    i a_0 psi), added in that order.  Each gamma is applied as a gather of
    the reals of its argument times +-1, so every product is exact and the
    bits cannot depend on BLAS threads or on fused multiply-add.  A zero
    potential adds no term: its terms are signed zeros, so the residual
    differs from the general path's only in the signs of zero entries, and
    its `row_norm` not at all.
    """
    a = _potential_values(potential, fr.points)
    out = np.empty(fr.value.shape, dtype=complex)
    np.multiply(kappa, fr.value, out=out)
    reals = out.view(float)
    for k in (1, 2, 3):
        source, sign = _GAMMA_REALS[k]
        reals += _reals(fr.derivs[k] if a is None
                        else fr.derivs[k] - 1j * a[:, k, None] * fr.value)[:, source] * sign
    source, sign = _GAMMA_REALS[4]
    reals -= _reals(fr.derivs[0] if a is None
                    else fr.derivs[0] + 1j * a[:, 0, None] * fr.value)[:, source] * sign
    return out


def residual_direction(fr: Frame, direction: np.ndarray) -> np.ndarray:
    """The residual's change (N, 4) per unit step of the potential along `direction`.

    The residual is affine in the potential: dirac_residual(fr, a + f v) is
    dirac_residual(fr, a) + f K, to rounding, for real values f and
    directions v (N, 4), with K = v_0 gamma_4 psi - i sum_k v_k gamma_k psi.
    Each term is a gather of the reals of -i psi (`_GAMMA_REALS`, as the
    residual applies i gamma_4 and gamma_k), times v_mu, added in the order
    mu = 0, 1, 2, 3.  The reals are held as rows (8, N), so that a gather
    copies whole rows and each product runs along one.
    """
    rows = np.ascontiguousarray(_reals(-1j * fr.value).T)
    weights = np.ascontiguousarray(direction.T)
    out = np.zeros(rows.shape)
    for mu, k in enumerate((4, 1, 2, 3)):
        source, sign = _GAMMA_REALS[k]
        term = rows[source]
        term *= sign[:, None]
        term *= weights[mu]
        out += term
    return np.ascontiguousarray(out.T).view(complex)


def residual_norm_at(fr: Frame, potential, kappa: float) -> np.ndarray:
    return row_norm(dirac_residual(fr, potential, kappa))


@dataclass
class ResidualReport:
    """The largest residual norm over a sample's support points, and where it is."""

    max_norm: float
    argmax_point: tuple[float, ...]
    relative_max: float
    count: int


def residual_norm(sample: SupportSample, potential, kappa: float,
                  residual: np.ndarray | None = None) -> ResidualReport:
    """Max, relative max and argmax of the residual norms over the sampled support.

    `residual` is dirac_residual(sample.frame, potential, kappa), if held;
    it is then read, not formed again.
    """
    if residual is None:
        residual = dirac_residual(sample.frame, potential, kappa)
    norms = row_norm(residual)
    rel = norms / ((abs(kappa) + 1.0) * row_norm(sample.values))
    worst = int(np.argmax(norms))
    return ResidualReport(float(norms[worst]), tuple(sample.support[worst].tolist()),
                          float(rel.max()), len(norms))


# Index pairs (mu, nu) of the field tensor entries, in column order.
_TENSOR_ENTRIES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def field_tensor(pf: Frame, real_tol: float = DEFAULT_REAL_TOL) -> np.ndarray:
    """Gauge-invariant antisymmetrized derivative (N, 6) from a potential's frame.

    Columns are f01, f02, f03, f12, f13, f23, read off the frame's partials.
    The temporal component couples into the equation with the opposite sign
    to the spatial ones, so a pure gauge shift moves (a0, ak) by (+d0 f,
    -dk f).  The quantity annihilated by every such shift is the curl of
    (-a0, a1, a2, a3): entries f_0i = d0 ai + di a0 and f_ij = di aj - dj ai.
    Up to overall sign the f_0i match the physical electric-field components.
    An entry whose imaginary part exceeds real_tol * (1 + |real part|)
    raises NonRealPotential, at the first such point and there at the first
    such entry.  A frame with real partials has nothing to check.
    """
    d = pf.derivs  # d[mu][:, nu] is d_mu a_nu at every point
    entries = np.stack([d[0][:, nu] + d[nu][:, 0] if mu == 0 else d[mu][:, nu] - d[nu][:, mu]
                        for mu, nu in _TENSOR_ENTRIES], axis=1)
    if not np.iscomplexobj(entries):
        return entries
    bad = np.abs(entries.imag) > real_tol * (1.0 + np.abs(entries.real))
    if bad.any():
        i, j = divmod(int(np.flatnonzero(bad)[0]), len(_TENSOR_ENTRIES))
        mu, nu = _TENSOR_ENTRIES[j]
        raise NonRealPotential(
            f"field tensor entry ({mu},{nu}) has imaginary part {entries[i, j].imag:.3e}")
    return entries.real.copy()


def tensor_gap(a: np.ndarray, b: np.ndarray | float = 0.0) -> float:
    """Max componentwise difference of two field tensors (N, 6) at the same points.

    With one tensor, its largest magnitude: the gap from a potential with no
    field, such as a member's step f (1, theta) from its base.
    """
    return float(np.abs(a - b).max(initial=0.0))


def lightlike_gap(a, b) -> np.ndarray:
    """(a0-b0)^2 - sum_k (ak-bk)^2 at each point of two potentials.

    Each is a frame or a `degeneracy.FamilyMember`: only the values (N, 4)
    are read.
    """
    da = a.value - b.value
    return da[:, 0] ** 2 - da[:, 1] ** 2 - da[:, 2] ** 2 - da[:, 3] ** 2


def lightlike_gap_max(a, b) -> float:
    return float(np.abs(lightlike_gap(a, b)).max(initial=0.0))
