"""Expression fields, batched frames, the fixed-order bilinear kernel, sampling.

An `ExpressionField`, the base of `SpinorField` and `inversion.FourPotential`,
holds four closed-form complex components over (x0, x1, x2, x3) plus shared
parameter bindings.  Its 16 partials are differentiated once, into the
tuple `partials`, which `bound` shares with the same trees under other
bindings; the components, and the partials, take one `evaluate` call each.
Points are checked only in `exprlang`, by its `_columns`.

Every kernel works on a batch of N points at once: `frame` gives the `Frame`
of a spinor or a potential, its values (N, 4) and partials (4, N, 4), and
every bilinear covariant, adjoint or transpose, including the bidirectional
derivative and the current whose partials give theta's, is a call of
`bilinear` on values held.
One call takes a stack of matrices and forms each product of components
once for all of them, and none with a component that the field's trees
make a literal zero (`ExpressionField.live`, carried by every `Frame`).
What several kernels read of one frame, such as the
inversion routes' covariants or theta's direction, is computed once and
kept on that frame by `Frame.held`, for as long as the frame lives.
A caller that reads only real parts, |psi|^2 and theta's direction, asks
`bilinear` for them (`real=True`): the same loop then forms only the part
of each product that the entry's matrices read, into float accumulators,
with the bits of the complex result's real parts.

Per-point reductions over an (N, k) row, `row_max` and `row_norm`, run
elementwise ufuncs over the k columns, in the order numpy reduces a short
row, so their bits are those of `a.max(axis=1)` and `np.linalg.norm(x,
axis=1)`.  A numpy reduction along a 4-wide axis pays per row: on (1000, 4)
floats, `max(axis=1)` took 47 us against 4-5 us for three `np.maximum`
calls (2-core x86-64 host, numpy 2.4).

Only this module samples a spinor: `sample_support` evaluates psi once over
the seeded domain and keeps its support values, `SupportSample.frame` adds
the partials on first use, and a kernel that needs part of the support
takes `Frame.rows` of that frame.  `sample_support` raises NoSupportPoints
for a sample with no support point, so every `SupportSample` has one.  A
`HeldDomain` draws its points once and keeps them, for a caller that
samples several spinors on one box.
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

DEFAULT_SUPPORT_TOL = 1e-12


def merge_params(*maps: Mapping[str, complex] | None) -> dict[str, complex]:
    merged: dict[str, complex] = {}
    for m in filter(None, maps):
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

    @classmethod
    def from_strings(cls, texts: Sequence[str], params: Mapping[str, complex] | None = None):
        return cls([exprlang.parse(t) for t in texts], params)

    @cached_property
    def live(self) -> tuple[bool, ...]:
        """False for each component that is a literal zero, whose values and partials are zeros."""
        return tuple(c != exprlang.ZERO for c in self.components)

    @cached_property
    def partials(self) -> tuple[Expr, ...]:
        """The 16 trees d_axis component_k, at index 4 * axis + k."""
        return tuple(exprlang.differentiate(c, axis) for axis in range(4) for c in self.components)

    def bound(self, params: Mapping[str, complex] | None):
        """These trees under other parameter bindings.

        The new field shares this one's components, live flags and partials,
        which are differentiated once, on this field, however often it binds.
        """
        field = type(self)(self.components, params)
        field.live, field.partials = self.live, self.partials
        return field

    def values(self, points) -> np.ndarray:
        """Componentwise evaluation over (N, 4) finite points; returns (N, 4) complex."""
        return np.ascontiguousarray(exprlang.evaluate_many(self.components, points, self.params).T)


class SpinorField(ExpressionField):
    """The four complex components of a spinor."""

    NOUN = "a spinor field"

    def scaled_by(self, factor: Expr,
                  extra_params: Mapping[str, complex] | None = None) -> "SpinorField":
        params = merge_params(self.params, extra_params)
        return SpinorField([exprlang.mul(factor, c) for c in self.components], params)


def bilinear(left: np.ndarray, matrix: np.ndarray, right: np.ndarray,
             live: tuple[bool, ...] | None = None, real: bool = False) -> np.ndarray:
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
    The package's matrices have entries 0, +-1 and +-i, and
    multiplying by those is exact, fused or not, so a matrix's result has
    the same bits whichever matrices share the call.  Pass `psi.conj()` as
    `left` for the adjoint bilinear and `psi` for the transpose one.

    `real=True` gives the real parts alone, as float64, with the bits of
    `bilinear(...).real` wherever every product is finite.  The loop is the
    same, but each entry forms only the part of the product p that its
    users read: Re p for a real entry m, whose term's real part is m Re p,
    and Im p for an imaginary one, whose term's real part is -Im(m) Im p.
    An entry with both a real and an imaginary part raises ValueError.  A
    caller that reads real parts only, such as |psi|^2, or Im(psi* M psi)
    as Re(psi* (-i M) psi), so forms half the products, into float totals.

    `live`, a field's mask (`ExpressionField.live`), leaves out every entry
    whose row or column is a dead component, which is exact zeros of either
    sign in both operands.  That moves no bit: the product there has real
    and imaginary parts of exact +-0, since the other factor is finite (the
    evaluator raises on non-finite values), and the accumulator, which
    starts at +0.0 and so is never -0.0, is unchanged by adding +-0 or
    m * (+-0) for m in {+-1, +-i}.
    """
    single = np.ndim(matrix) == 2
    stack = np.asarray(matrix, dtype=complex).reshape(-1, 16)
    lr, li, rr, ri = left.real, left.imag, right.real, right.imag
    shape = np.broadcast(left, right).shape[:-1]
    total = np.zeros((len(stack),) + shape, dtype=float if real else complex)
    if real:
        p_re, p_im = products = np.empty(shape), np.empty(shape)
    else:
        p = np.empty(shape, dtype=complex)
        p_re, p_im, products = p.real, p.imag, (p,)
    for r, c, paths in _entry_users(stack.tobytes(), live):
        if paths[real] is None:
            raise ValueError("the real path takes entries that are real or imaginary")
        form_re, form_im, users = paths[real]
        if form_re:
            np.multiply(lr[..., r], rr[..., c], out=p_re)
            p_re -= li[..., r] * ri[..., c]
        if form_im:
            np.multiply(lr[..., r], ri[..., c], out=p_im)
            p_im += li[..., r] * rr[..., c]
        for k, part, m in users:
            if m == 1:
                total[k] += products[part]
            elif m == -1:
                total[k] -= products[part]
            else:
                total[k] += m * products[part]
    return total[0] if single else total


@lru_cache(maxsize=64)
def _entry_users(stack: bytes, live: tuple[bool, ...] | None) -> tuple[tuple, ...]:
    """(r, c, (whole, real)) for each entry of the (K, 16) `stack` some matrix uses.

    Each path is (form Re p, form Im p, ((k, part, m), ...)): a user k adds
    m times products[part].  `whole` adds m_k[r, c] times the complex product
    p; `real` adds the real part of that term, m_k[r, c] Re p for a real
    entry and -Im(m_k[r, c]) Im p for an imaginary one, and is None if some
    entry is neither.  An entry whose row or column is a dead component of
    `live` is left out.
    """
    entries = np.frombuffer(stack, dtype=complex).reshape(-1, 16)
    out = []
    for flat, column in enumerate(entries.T):
        r, c = divmod(flat, 4)
        if not column.any() or live is not None and not (live[r] and live[c]):
            continue
        users = [(k, complex(m)) for k, m in enumerate(column) if m]
        real = None
        if all(m.imag == 0 or m.real == 0 for _, m in users):
            parts = tuple((k, 0, m.real) if m.imag == 0 else (k, 1, -m.imag) for k, m in users)
            real = (any(u[1] == 0 for u in parts), any(u[1] == 1 for u in parts), parts)
        out.append((r, c, ((True, True, tuple((k, 0, m) for k, m in users)), real)))
    return tuple(out)


def squared_norm(values: np.ndarray, live: tuple[bool, ...] | None = None) -> np.ndarray:
    """|psi|^2 at each point of an (..., 4) array of spinor values."""
    return bilinear(values.conj(), IDENTITY, values, live, real=True)


def row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1) of an (N, k) array, k < 8, bit for bit: np.maximum column by column."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def row_norm(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of an (N, k) array, k < 8, bit for bit.

    numpy forms s = (x.conj() * x).real and sums each short row in column
    order, ((s0 + s1) + s2) + s3; so does this, one column at a time.
    """
    s = (x.conj() * x).real
    out = s[:, 0].copy()
    for j in range(1, s.shape[1]):
        out += s[:, j]
    return np.sqrt(out)  # in place, it raised a 100 000-point run's peak RSS by 1.9 MB


@dataclass
class Frame:
    """Field values (N, 4), partials (4, N, 4) and parameter bindings at N points.

    `live` is the field's: False for a component that is zero, with its
    partials, at every point.
    """

    points: np.ndarray
    value: np.ndarray
    derivs: np.ndarray
    params: Mapping[str, complex]
    live: tuple[bool, ...] = (True,) * 4
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rows(self, index) -> "Frame":
        """The frame at points[index]: a slice, a boolean mask or row numbers."""
        return Frame(self.points[index], self.value[index], self.derivs[:, index], self.params,
                     self.live)

    def held(self, build):
        """build(self), computed on first use and kept as long as this frame."""
        if build not in self._held:
            self._held[build] = build(self)
        return self._held[build]


def frame(field: ExpressionField, points, value: np.ndarray | None = None) -> Frame:
    """Spinor or potential frame at (N, 4) finite points; `value` is the field there, if held."""
    pts = np.asarray(points, dtype=float)
    value = field.values(pts) if value is None else value
    derivs = exprlang.evaluate_many(field.partials, pts, field.params).reshape(4, 4, len(pts))
    return Frame(pts, value, np.ascontiguousarray(derivs.transpose(0, 2, 1)), field.params,
                 field.live)


def zero_frame(points: np.ndarray) -> Frame:
    """The zero potential's frame at (N, 4) points, evaluating nothing.

    Its values and partials are +0.0, as the zero potential's trees give,
    held as read-only views of one zero.
    """
    count = len(points)
    return Frame(points, np.broadcast_to(0.0, (count, 4)), np.broadcast_to(0j, (4, count, 4)),
                 {}, (False,) * 4)


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


class HeldDomain(SampleDomain):
    """A domain whose points are drawn on first use, then kept, read-only."""

    @cached_property
    def _points(self) -> np.ndarray:
        points = super().points()
        points.flags.writeable = False
        return points

    def points(self) -> np.ndarray:
        return self._points


@dataclass
class SupportSample:
    """The sampled points where the spinor is resolved nonzero, with psi there."""

    field: SpinorField
    support: np.ndarray      # (n, 4) points where the spinor is resolved nonzero
    values: np.ndarray       # (n, 4) spinor values at the support points

    @cached_property
    def frame(self) -> Frame:
        """The support frame, built on first use."""
        return frame(self.field, self.support, self.values)


def sample_support(field: SpinorField, domain: SampleDomain,
                   tol: float = DEFAULT_SUPPORT_TOL) -> SupportSample:
    """Classify sampled points: in support iff |psi| > tol * (1 + max |psi|)."""
    if tol <= 0:
        raise ValueError("support tolerance must be positive")
    pts = domain.points()
    values = field.values(pts)
    norms = row_norm(values)
    mask = norms > tol * (1.0 + float(norms.max()))
    if not mask.any():
        raise NoSupportPoints("no sampled point carries a nonzero spinor value")
    return SupportSample(field, pts[mask], values[mask])
