"""Expression fields, batched frames, the fixed-order bilinear kernel, sampling.

An `ExpressionField`, the base of `SpinorField` and `inversion.FourPotential`,
holds four closed-form complex components over (x0, x1, x2, x3) plus shared
parameter bindings.  Component partials are differentiated symbolically once
and cached per (component, axis); caching is semantically invisible.

Every spinor-side kernel works on a batch of N points at once: a `Frame`
holds the values (N, 4) and the partials (4, N, 4) of the spinor, and every
bilinear covariant, adjoint or transpose, including the bidirectional
derivative, is a call of `bilinear` on values already held.

Only this module samples a spinor: `sample_support` evaluates psi once over
the seeded domain and keeps its support values, `SupportSample.frame` adds
the partials on first use, and a kernel that needs part of the support
takes `Frame.rows` of that frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import exprlang
from .clifford import IDENTITY
from .errors import NoSupportPoints
from .exprlang import Expr

CVector4 = np.ndarray  # shape (4,), complex128

DEFAULT_SUPPORT_TOL = 1e-12


def as_points(points) -> np.ndarray:
    """(N, 4) float array of finite point coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def merge_params(*maps: Mapping[str, complex] | None) -> dict[str, complex]:
    merged: dict[str, complex] = {}
    for m in maps:
        if not m:
            continue
        for k, v in m.items():
            v = complex(v)
            if k in merged and merged[k] != v:
                raise ValueError(f"conflicting values for parameter {k!r}")
            merged[k] = v
    return merged


class ExpressionField:
    """Four expression components with shared parameter bindings; subclasses set NOUN."""

    def __init__(self, components: Sequence[Expr], params: Mapping[str, complex] | None = None):
        components = tuple(components)
        if len(components) != 4:
            raise ValueError(f"{self.NOUN} has exactly 4 components, got {len(components)}")
        self.components = components
        self.params = dict(params) if params else {}
        self._derivatives: dict[tuple[int, int], Expr] = {}

    @classmethod
    def from_strings(cls, texts: Sequence[str], params: Mapping[str, complex] | None = None):
        return cls([exprlang.parse(t) for t in texts], params)

    def component_derivative(self, idx: int, axis: int) -> Expr:
        key = (idx, axis)
        if key not in self._derivatives:
            self._derivatives[key] = exprlang.differentiate(self.components[idx], axis)
        return self._derivatives[key]

    def values(self, points) -> np.ndarray:
        """Componentwise evaluation over (N, 4) finite points; returns (N, 4) complex."""
        pts = as_points(points)
        cols = [exprlang.evaluate_many(c, pts, self.params) for c in self.components]
        return np.stack(cols, axis=1)


class SpinorField(ExpressionField):
    """The four complex components of a spinor."""

    NOUN = "a spinor field"

    def scaled_by(self, factor: Expr,
                  extra_params: Mapping[str, complex] | None = None) -> "SpinorField":
        params = merge_params(self.params, extra_params)
        return SpinorField([exprlang.mul(factor, c) for c in self.components], params)


def bilinear(left: np.ndarray, matrix: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum over r, c of left[..., r] * matrix[r, c] * right[..., c].

    Terms are accumulated one nonzero matrix entry at a time in row-major
    order, so algebraically cancelling terms cancel exactly in floating
    point, which BLAS-blocked products do not guarantee.  Complex products
    are spelled out in real arithmetic, (a+bi)(c+di) = (ac-bd) + (ad+bc)i,
    because numpy's complex multiply may fuse a multiply-add and then give
    a different last bit for a*b and b*a.  Pass `psi.conj()` as `left` for
    the adjoint bilinear and `psi` for the transpose one.
    """
    lr, li = np.real(left), np.imag(left)
    rr, ri = np.real(right), np.imag(right)
    total = np.zeros(left.shape[:-1], dtype=complex)
    for r, c in zip(*np.nonzero(matrix)):
        m = complex(matrix[r, c])
        ar = lr[..., r] * m.real - li[..., r] * m.imag
        ai = lr[..., r] * m.imag + li[..., r] * m.real
        total.real += ar * rr[..., c] - ai * ri[..., c]
        total.imag += ar * ri[..., c] + ai * rr[..., c]
    return total


def squared_norm(values: np.ndarray) -> np.ndarray:
    """|psi|^2 at each point of an (..., 4) array of spinor values."""
    return bilinear(values.conj(), IDENTITY, values).real


@dataclass
class Frame:
    """Spinor values (N, 4) and partials (4, N, 4) over a batch of points."""

    points: np.ndarray
    value: np.ndarray
    derivs: np.ndarray

    def rows(self, index) -> "Frame":
        """The frame at points[index]: a slice, a boolean mask or row numbers."""
        return Frame(self.points[index], self.value[index], self.derivs[:, index])


def frame(field: SpinorField, points, value: np.ndarray | None = None) -> Frame:
    """The frame at (N, 4) finite points; `value` is psi there, if already evaluated."""
    pts = as_points(points)
    value = field.values(pts) if value is None else value
    derivs = np.empty((4,) + value.shape, dtype=complex)
    for axis in range(4):
        for k in range(4):
            derivs[axis, :, k] = exprlang.evaluate_many(
                field.component_derivative(k, axis), pts, field.params)
    return Frame(pts, value, derivs)


@dataclass(frozen=True)
class SampleDomain:
    """Axis-aligned box in (x0..x3) sampled at `count` seeded uniform points."""

    box: tuple[tuple[float, float], tuple[float, float],
               tuple[float, float], tuple[float, float]] = ((-1.0, 1.0),) * 4
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"invalid interval ({lo}, {hi})")

    def points(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return rng.uniform(lo, hi, size=(self.count, 4))


@dataclass
class SupportSample:
    """Sampled points partitioned by spinor magnitude, with psi on the support."""

    field: SpinorField
    support: np.ndarray      # (n, 4) points where the spinor is resolved nonzero
    values: np.ndarray       # (n, 4) spinor values at the support points
    null: np.ndarray         # (m, 4) remaining points
    norms: np.ndarray        # (count,) spinor norms in sampling order
    threshold: float

    @property
    def has_support(self) -> bool:
        return len(self.support) > 0

    @cached_property
    def frame(self) -> Frame:
        """The support frame, built on first use; raises NoSupportPoints if empty."""
        return frame(self.field, require_support(self), self.values)


def sample_support(field: SpinorField, domain: SampleDomain,
                   tol: float = DEFAULT_SUPPORT_TOL) -> SupportSample:
    """Classify sampled points: in support iff |psi| > tol * (1 + max |psi|)."""
    if tol <= 0:
        raise ValueError("support tolerance must be positive")
    pts = domain.points()
    values = field.values(pts)
    norms = np.linalg.norm(values, axis=1)
    threshold = tol * (1.0 + float(norms.max()))
    mask = norms > threshold
    return SupportSample(field, pts[mask], values[mask], pts[~mask], norms, threshold)


def require_support(sample: SupportSample) -> np.ndarray:
    if not sample.has_support:
        raise NoSupportPoints("no sampled point carries a nonzero spinor value")
    return sample.support
