"""Expression fields, batched frames, the fixed-order bilinear kernel, sampling.

An `ExpressionField`, the base of `SpinorField` and `inversion.FourPotential`,
holds four closed-form complex components over (x0, x1, x2, x3) plus shared
parameter bindings.  Component partials are differentiated symbolically once
and cached per (component, axis); caching is semantically invisible.  Points
are checked only in `exprlang`, by the `_columns` that `evaluate` and
`path_integral` call.

Every kernel works on a batch of N points at once: `frame` gives the `Frame`
of a spinor or a potential, its values (N, 4) and partials (4, N, 4), and
every bilinear covariant, adjoint or transpose, including the bidirectional
derivative and theta's partials, is a call of `bilinear` on values held.
One call takes a stack of matrices and forms each product of components
once for all of them.  What several kernels read of one frame, such as the
inversion routes' covariants or theta's direction, is computed once and
kept on that frame by `Frame.held`, for as long as the frame lives.

Only this module samples a spinor: `sample_support` evaluates psi once over
the seeded domain and keeps its support values, `SupportSample.frame` adds
the partials on first use, and a kernel that needs part of the support
takes `Frame.rows` of that frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import exprlang
from .clifford import IDENTITY
from .errors import NoSupportPoints
from .exprlang import Expr

CVector4 = np.ndarray  # shape (4,), complex128

DEFAULT_SUPPORT_TOL = 1e-12


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
        cols = [exprlang.evaluate_many(c, points, self.params) for c in self.components]
        return np.stack(cols, axis=1)


class SpinorField(ExpressionField):
    """The four complex components of a spinor."""

    NOUN = "a spinor field"

    def scaled_by(self, factor: Expr,
                  extra_params: Mapping[str, complex] | None = None) -> "SpinorField":
        params = merge_params(self.params, extra_params)
        return SpinorField([exprlang.mul(factor, c) for c in self.components], params)


def bilinear(left: np.ndarray, matrix: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum over r, c of left[..., r] * matrix[k, r, c] * right[..., c], for every k.

    `matrix` is one (4, 4) matrix, giving the leading shape of `left` and
    `right` broadcast together, or a stack (K, 4, 4), giving (K, ...).  The
    entries some matrix uses are visited once each, in row-major order: the
    product left_r * right_c is formed there and added, times the entry,
    into every matrix that has it.  So each matrix accumulates its terms in
    row-major order from +0.0, algebraically cancelling terms cancel exactly
    in floating point, which BLAS-blocked products do not guarantee, and a
    zero term changes nothing.  Products are spelled out in real arithmetic,
    (a+bi)(c+di) = (ac-bd) + (ad+bc)i, because numpy's complex multiply may
    fuse a multiply-add and then give a different last bit for a*b and b*a.
    The package's matrices have entries 0, +-1, +-i, +-2 and +-2i, and
    multiplying by those is exact, fused or not, so a matrix's result has
    the same bits whichever matrices share the call.  Pass `psi.conj()` as
    `left` for the adjoint bilinear and `psi` for the transpose one.
    """
    single = np.ndim(matrix) == 2
    stack = np.asarray(matrix, dtype=complex).reshape(-1, 16)
    lr, li, rr, ri = left.real, left.imag, right.real, right.imag
    shape = np.broadcast(left, right).shape[:-1]
    total = np.zeros((len(stack),) + shape, dtype=complex)
    p = np.empty(shape, dtype=complex)
    for r, c, users in _entry_users(stack.tobytes()):
        np.multiply(lr[..., r], rr[..., c], out=p.real)
        p.real -= li[..., r] * ri[..., c]
        np.multiply(lr[..., r], ri[..., c], out=p.imag)
        p.imag += li[..., r] * rr[..., c]
        for k, m in users:
            if m == 1:
                total[k] += p
            elif m == -1:
                total[k] -= p
            else:
                total[k] += m * p
    return total[0] if single else total


@lru_cache(maxsize=64)
def _entry_users(stack: bytes) -> tuple[tuple[int, int, tuple[tuple[int, complex], ...]], ...]:
    """(r, c, ((k, m_k[r, c]), ...)) for each entry of the (K, 16) `stack` some matrix uses."""
    entries = np.frombuffer(stack, dtype=complex).reshape(-1, 16)
    return tuple((flat // 4, flat % 4, tuple((k, complex(m)) for k, m in enumerate(column) if m))
                 for flat, column in enumerate(entries.T) if column.any())


def squared_norm(values: np.ndarray) -> np.ndarray:
    """|psi|^2 at each point of an (..., 4) array of spinor values."""
    return bilinear(values.conj(), IDENTITY, values).real


@dataclass
class Frame:
    """Field values (N, 4), partials (4, N, 4) and parameter bindings at N points."""

    points: np.ndarray
    value: np.ndarray
    derivs: np.ndarray
    params: Mapping[str, complex]
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rows(self, index) -> "Frame":
        """The frame at points[index]: a slice, a boolean mask or row numbers."""
        return Frame(self.points[index], self.value[index], self.derivs[:, index], self.params)

    def held(self, build):
        """build(self), computed on first use and kept as long as this frame."""
        if build not in self._held:
            self._held[build] = build(self)
        return self._held[build]


def frame(field: ExpressionField, points, value: np.ndarray | None = None) -> Frame:
    """Spinor or potential frame at (N, 4) finite points; `value` is the field there, if held."""
    pts = np.asarray(points, dtype=float)
    value = field.values(pts) if value is None else value
    derivs = np.empty((4,) + value.shape, dtype=complex)
    for axis in range(4):
        for k in range(4):
            derivs[axis, :, k] = exprlang.evaluate_many(
                field.component_derivative(k, axis), pts, field.params)
    return Frame(pts, value, derivs, field.params)


@dataclass(frozen=True)
class SampleDomain:
    """Axis-aligned box in (x0..x3) sampled at `count` seeded uniform points."""

    box: tuple[tuple[float, float], tuple[float, float],
               tuple[float, float], tuple[float, float]] = ((-1.0, 1.0),) * 4
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count: must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"box: invalid interval ({lo}, {hi})")

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
