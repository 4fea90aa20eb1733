"""Degeneracy classification, theta, and the infinite potential family.

A spinor is degenerate exactly where the indicator bilinear psi* d4 psi
vanishes; on the sampled box the verdict is always relative to the sample.
For degenerate spinors theta_k = Im(psi* g_k g4 psi) / |psi|^2, the
spatial current over the density, directs the potential family
(a0 + f, a1 + f t1, a2 + f t2, a3 + f t3) for any real f on the support.
It is defined wherever psi is nonzero, and equals the paper's ratios of
transpose bilinears (`transpose_theta`) wherever psiT g2 psi is nonzero.

`indicator`, `theta` and `classify` take spinor values or frames already
held and evaluate nothing; every bilinear here is a `fields.bilinear` call.
A family member is a `fields.Frame` built from the spinor's and the base's
frames and f, with theta's partials by the quotient rule (`_direction`).
The direction takes two stacked `fields.bilinear` calls and is computed
once per frame: `theta` and every member read the read-only copy the frame
holds (`Frame.held`).  Both calls read real parts only, of I and of the
Hermitian -i g_k g4, as Im(psi* g_k g4 psi) = Re(psi* (-i g_k g4) psi), so
the kernel forms half the products and keeps float totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .clifford import IDENTITY, delta, gamma
from .errors import NotDegenerate
from .exprlang import Expr
from .fields import Frame, SupportSample, bilinear, merge_params, squared_norm
from .inversion import DEFAULT_REAL_TOL, real_part

_D4 = delta(4)
_G2 = gamma(2)

DEFAULT_CLASSIFY_TOL = 1e-10
ALGEBRA_TOL = 1e-10  # relative zero of the pointwise symmetry test


def indicator(values: np.ndarray, live: tuple[bool, ...] | None = None) -> np.ndarray:
    """psi* d4 psi for spinor values (..., 4); zero exactly on the degenerate locus."""
    return bilinear(values.conj(), _D4, values, live)


@dataclass
class Classification:
    """Sampled degeneracy verdict.

    On exact data the dichotomy admits only the two clean verdicts; a sample
    whose support carries both indicator-zero and indicator-nonzero points is
    reported honestly as "mixed".
    """

    verdict: str  # "degenerate" | "non-degenerate" | "mixed"
    support_points: np.ndarray
    s_points: np.ndarray
    degenerate_points: np.ndarray
    tol: float


def classify(sample: SupportSample, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Partition sampled support points by |psi* d4 psi| <= tol * |psi|^2."""
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    support, values, live = sample.support, sample.values, sample.field.live
    nonzero = np.abs(indicator(values, live)) > tol * squared_norm(values, live)
    s_points = support[nonzero]
    degenerate_points = support[~nonzero]
    if len(s_points) == 0:
        verdict = "degenerate"
    elif len(degenerate_points) == 0:
        verdict = "non-degenerate"
    else:
        verdict = "mixed"
    return Classification(verdict, support, s_points, degenerate_points, tol)


# ---------------------------------------------------------------------------
# Theta

# |psi|^2 and the current psi* g_k g4 psi; each g_k g4 is anti-Hermitian, so
# the current is imaginary and d Im(psi* M psi) = 2 Im((d psi)* M psi).  As
# Im(psi* M psi) = Re(psi* (-i M) psi), the stack holds -i g_k g4 and every
# part the direction reads is a real part: Re((d psi)* M psi) is read as
# Re((d psi)T conj(M) conj(psi)), which copies no partial.
_DIRECTION = np.stack([IDENTITY] + [-1j * (gamma(k) @ gamma(4)) for k in (1, 2, 3)])
_DIRECTION_CONJ = _DIRECTION.conj()


def _direction(fr: Frame) -> tuple[np.ndarray, np.ndarray]:
    """The real direction (1, theta) (N, 4) and its partials (4, N, 4).

    theta_k = Im(psi* g_k g4 psi) / |psi|^2 spans the kernel of the pointwise
    system wherever the indicator vanishes, and is defined wherever psi is
    nonzero.  The partials follow by the quotient rule.  It is taken once
    per frame, through `Frame.held`, and is read-only.
    """
    v, vc = fr.value, fr.value.conj()
    n, *w = bilinear(vc, _DIRECTION, v, fr.live, real=True)
    d_n, *d_w = bilinear(fr.derivs, _DIRECTION_CONJ, vc, fr.live, real=True)
    d_n = 2 * d_n
    u, du = np.ones(v.shape), np.zeros(fr.derivs.shape)
    for k in (1, 2, 3):
        u[:, k] = w[k - 1] / n
        du[..., k] = (2 * d_w[k - 1] - u[:, k] * d_n) / n
    u.flags.writeable = du.flags.writeable = False
    return u, du


def theta(fr: Frame) -> np.ndarray:
    """The three real direction ratios (N, 3) at the frame's points."""
    return fr.held(_direction)[0][:, 1:]


# The paper's explicit ratios theta_j = c_j psiT M_j psi / psiT g2 psi, as the
# (c_j, M_j) pairs.
_THETA_NUMERATORS = ((-1j, gamma(5) @ gamma(3)), (-1j, gamma(4)), (1j, gamma(5) @ gamma(1)))


def transpose_theta(values: np.ndarray) -> np.ndarray:
    """The paper's transpose-bilinear ratios (N, 3) at spinor values (N, 4).

    They equal `theta` on a degenerate Dirac solution wherever psiT g2 psi is
    nonzero; where it vanishes they are undefined, so pass only such values.
    """
    den = bilinear(values, _G2, values)
    nums = bilinear(values, np.stack([m for _, m in _THETA_NUMERATORS]), values)
    return np.stack([c * num / den for (c, _), num in zip(_THETA_NUMERATORS, nums)], axis=1)


def require_degenerate(classification: Classification) -> None:
    """Raise NotDegenerate unless the verdict is degenerate: only then is there a family."""
    if classification.verdict != "degenerate":
        raise NotDegenerate(
            f"potential family requires a degenerate spinor, verdict is "
            f"{classification.verdict!r}")


def potential_family(fr: Frame, base: Frame, f: Expr, classification: Classification,
                     real_tol: float = DEFAULT_REAL_TOL) -> Frame:
    """Frame of the member base + f (1, theta) of a degenerate spinor's family.

    `fr` and `base` are the spinor's and the base potential's frames at the
    same points, where f is evaluated under the parameters of both.  Values
    are real-checked to `real_tol`.
    """
    require_degenerate(classification)
    params = merge_params(base.params, fr.params)
    u, du = fr.held(_direction)
    pts = fr.points
    f_rows = exprlang.evaluate_many([f, *(exprlang.differentiate(f, mu) for mu in range(4))],
                                    pts, params)
    fv, df = f_rows[0], f_rows[1:]
    u_c = u.astype(complex)  # each product with f would cast u again
    partials = du * fv[:, None]  # f d(1, theta) + d f (1, theta) + d base
    for axis in range(4):
        partials[axis] += df[axis][:, None] * u_c
    partials += base.derivs
    value = fv[:, None] * u_c
    value += base.value
    return Frame(pts, real_part(value, pts, real_tol), partials, params)


# ---------------------------------------------------------------------------
# The canonical null form

def zeta(x: np.ndarray) -> np.ndarray:
    """Half-sum/half-difference coordinates of spinor values (..., 4)."""
    x0, x1, x2, x3 = np.moveaxis(np.asarray(x, dtype=complex), -1, 0)
    return 0.5 * np.stack([x0 + x2, x0 - x2, x1 + x3, x1 - x3], axis=-1)


def unzeta(z: np.ndarray) -> np.ndarray:
    """Inverse of the half-sum/half-difference map, exact where zeta's halves are."""
    z0, z1, z2, z3 = np.moveaxis(np.asarray(z, dtype=complex), -1, 0)
    return np.stack([z0 + z1, z2 + z3, z0 - z1, z2 - z3], axis=-1)


def compose_values(u, v, w) -> np.ndarray:
    """u*[conj(w), 1, conj(w), 1] + v*[1, -w, -1, w]; indicator-null by construction.

    u, v and w are complex scalars or arrays that broadcast together; scalars
    give (4,) and arrays (..., 4).  The products u*conj(w) and v*w are
    written out in real arithmetic as numpy's complex scalar product forms
    them, so each element has the bits of a call on its own scalars.
    """
    u, v, w = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in (u, v, w)))
    ur, ui, vr, vi, wr, wi = u.real, u.imag, v.real, v.imag, w.real, w.imag
    ar, ai = ur * wr + ui * wi, ui * wr - ur * wi  # u * conj(w)
    br, bi = vr * wr - vi * wi, vr * wi + vi * wr  # v * w
    x = np.empty(ur.shape + (4,), dtype=complex)
    x.real = np.stack([ar + vr, ur - br, ar - vr, ur + br], axis=-1)
    x.imag = np.stack([ai + vi, ui - bi, ai - vi, ui + bi], axis=-1)
    return x


# ---------------------------------------------------------------------------
# Supporting algebraic identities

_COND_MATRICES = (gamma(1) @ gamma(2) @ gamma(4),
                  gamma(4),
                  gamma(2) @ gamma(3) @ gamma(4))
_SYMMETRY_STACK = np.stack([_G2, *_COND_MATRICES])


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
    z, *conditions = bilinear(x, _SYMMETRY_STACK, x)
    lhs_max = np.zeros(x.shape[:-1])
    for w in conditions:
        lhs_max = np.maximum(lhs_max, np.abs(z * np.conj(w) + w * np.conj(z)))
    rhs_value = np.abs(z * indicator(x))
    return SymmetryConditions(lhs_max <= threshold, rhs_value <= threshold,
                              lhs_max / threshold, rhs_value / threshold)


def zero_mass_system_det(psi1, psi2) -> np.ndarray:
    """|det| of the real 4x4 system for the potential of a collapsed zero-mass spinor.

    psi1 and psi2 are complex scalars or equally shaped arrays; the result
    has their shape.  The determinant vanishes identically, which is what
    makes the collapsed form carry either no potential or infinitely many.
    """
    k1, l1 = np.real(psi1), np.imag(psi1)
    k2, l2 = np.real(psi2), np.imag(psi2)
    m = np.stack([
        np.stack([-k1, -k2, -l2, -k1], axis=-1),
        np.stack([-l1, -l2, k2, -l1], axis=-1),
        np.stack([-k2, -k1, l1, k2], axis=-1),
        np.stack([-l2, -l1, -k1, l2], axis=-1),
    ], axis=-2)
    return np.abs(np.linalg.det(m))
