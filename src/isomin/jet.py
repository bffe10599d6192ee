"""Dense truncated multivariate Taylor arithmetic (jets).

A Jet holds the Taylor coefficients of a smooth function at a point, on
every multi-index of total degree <= order, for 1 to 3 variables. The
function may be array-valued: the coefficients carry a leading shape (a
chart evaluated at one point gives a jet of shape (ambient_dim,)), and
arithmetic, differentiation and truncation broadcast over it. A batch of
points is one more leading axis: a chart evaluated at P points gives one
jet of shape (P, ambient_dim). The expansion point itself is not stored;
coefficients are relative offsets. Multiplication is truncated convolution
driven by a precomputed index table, composition (`jet_compose`: sqrt,
recip, rsqrt = x^(-1/2), sin, cos) is a Horner evaluation of the outer
Taylor series, elementwise over the leading shape, by one jet product and
an in-place add to the constant term per step (the first step is a
scaling). Partials are read one way, by `jet_partials`: every s-th partial,
s orders lower, in one gather of the coefficients with exact integer
factors; no other module reads a partial off the coefficient layout.
sqrt, recip and rsqrt demand a constant term bounded away from zero (eps =
1e-10 by default) at every element; violating that raises DegenerateValue,
so batched callers mask such elements out before composing. The jet of Re
Phi(x0 + i x1) for a holomorphic Phi is read off Phi's derivatives in
closed form.

Cost model. The jets the package multiplies are small (order <= 4 in 3
variables, a few hundred points at most), so an operation costs per numpy
call, not per scalar product, and the core makes few and cheap calls, in
one path for every shape. A product is two `take` gathers by the pair
table, one multiply and one `reduceat`; `jet_dot` adds one reduction over
the last leading axis. Partials are one index gather, one product with
the integer factors and one `transpose` by a permutation built in Python;
the gather lays its result out as (k, size, leading axes), and the
transpose keeps that layout, on which the route of a matrix product of the
partials' values depends. A composition is its outer series and one
product per Horner step. `Jet` is a plain class with two slots and is not
frozen: an operation builds a new jet, and only the function that built a
jet writes its coefficients in place. A gather copies its operand's values
whatever their strides (a broadcast, transposed or reversed view), and
`reduceat` sums each run of pairs in one order, so the bits of a product
or a partial do not depend on the layout of the operands.
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (DegenerateValue, DimensionMismatch, InvalidData,
                     OrderExceeded, ShapeMismatch)

EPS_DEG = 1e-10


class JetSpace:
    """Index bookkeeping for jets with a fixed (nvars, order).

    Holds the canonical multi-index list (sorted by total degree, then
    lexicographically) and factorials; the truncated-convolution table and
    the gather map of holomorphic jets are built on first use.
    """

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        idx = [m for m in itertools.product(range(order + 1), repeat=nvars)
               if sum(m) <= order]
        idx.sort(key=lambda m: (sum(m), m))
        self.indices: tuple[tuple[int, ...], ...] = tuple(idx)
        self.size = len(idx)
        self.pos = {m: i for i, m in enumerate(idx)}
        self.factorial = np.array(
            [math.prod(math.factorial(k) for k in m) for m in idx], dtype=float)

    @cached_property
    def _mul_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # product pairs (ia, ib) -> io sorted by output; every output has the
        # pair (0, io), so the run starts open one nonempty run per output
        idx = self.indices
        pairs = sorted((self.pos[tuple(a + b for a, b in zip(ma, mb))], i, j)
                       for i, ma in enumerate(idx) for j, mb in enumerate(idx)
                       if sum(ma) + sum(mb) <= self.order)
        io, ia, ib = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        return ia, ib, np.searchsorted(io, np.arange(self.size))

    @cached_property
    def _holomorphic_map(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # positions of the indices (a, b, 0...), with a + b and i^b / (a! b!)
        if self.nvars < 2:
            raise DimensionMismatch(
                "holomorphic jets need 2 or 3 variables, got 1")
        pos = np.array([p for p, m in enumerate(self.indices)
                        if not any(m[2:])], dtype=np.intp)
        a, b = np.array([self.indices[p][:2] for p in pos]).T
        return (pos, a + b,
                np.array([1, 1j, -1, -1j])[b % 4] / self.factorial[pos])


@lru_cache(maxsize=None)
def get_space(nvars: int, order: int) -> JetSpace:
    if not 1 <= nvars <= 3:
        raise InvalidData(f"jets support 1 to 3 variables, got {nvars}")
    if order < 0:
        raise InvalidData(f"jet order must be nonnegative, got {order}")
    return JetSpace(nvars, order)


_ALL = (slice(None),)  # the coefficient axis, appended to a leading index


class Jet:
    """Taylor coefficients of shape `shape + (space.size,)` in a space."""

    __slots__ = ("space", "coeffs")

    # numpy operands defer to the Jet operators instead of iterating the jet
    __array_ufunc__ = None

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    def __repr__(self) -> str:
        return f"Jet(space={self.space!r}, coeffs={self.coeffs!r})"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    @property
    def value(self):
        """Values at the expansion point: a float for a scalar jet, else an
        array of the leading shape."""
        return self.coeffs[..., 0][()]  # [()] turns a 0-d array into a float

    def __getitem__(self, idx) -> "Jet":
        """Index the leading shape (numpy rules); the coefficients ride along."""
        if self.coeffs.ndim == 1:
            raise ShapeMismatch("a scalar jet cannot be indexed")
        idx = idx + _ALL if isinstance(idx, tuple) else (idx,) + _ALL
        return Jet(self.space, self.coeffs[idx])

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a scalar jet")
        return self.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def T(self) -> "Jet":
        """The jet with its leading axes reversed."""
        n = len(self.shape)
        return Jet(self.space, self.coeffs.transpose(*range(n - 1, -1, -1), n))

    def reshape(self, *shape: int) -> "Jet":
        return Jet(self.space, self.coeffs.reshape(*shape, self.space.size))

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ShapeMismatch("jets from different spaces")
            return other
        return jet_constant(self.space, other)

    def __add__(self, other):
        return Jet(self.space, self.coeffs + self._coerce(other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return Jet(self.space, self.coeffs - self._coerce(other).coeffs)

    def __rsub__(self, other):
        return Jet(self.space, self._coerce(other).coeffs - self.coeffs)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.space,
                   self.coeffs * np.asarray(other, dtype=float)[..., None])

    __rmul__ = __mul__


@lru_cache(maxsize=None)
def _partial_map(nvars: int, order: int, s: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    # for each multi-index al of degree s, in descending lexicographic
    # order, and each index mu of the (order - s) space: the position of
    # mu + al and the exact integer (mu + al)! / mu!, shape (k, size)
    sp, low = get_space(nvars, order), get_space(nvars, order - s)
    alphas = [m for m in reversed(sp.indices) if sum(m) == s]
    src = [[sp.pos[tuple(x + a for x, a in zip(mu, al))] for mu in low.indices]
           for al in alphas]
    fac = [[math.prod(math.perm(x + a, a) for x, a in zip(mu, al))
            for mu in low.indices] for al in alphas]
    return np.array(src, dtype=np.intp), np.array(fac, dtype=float)


def jet_partials(a: Jet, s: int = 1, axis: int = 0) -> Jet:
    """Every s-th partial of a, s orders lower, stacked on a new leading
    axis at `axis` (a negative axis counts from the end of the result's
    leading shape), one per multi-index al of degree s in descending
    lexicographic order: the variable order at s = 1, d_u^(s-k) d_v^k for
    k = 0..s in two variables. One gather of the coefficients: that of mu
    in d^al a is the exact integer (mu + al)! / mu! times that of mu + al
    in a."""
    sp, n = a.space, len(a.shape)
    if s < 1:
        raise InvalidData(f"partials have order s >= 1, got {s}")
    if s > sp.order:
        raise OrderExceeded(
            f"cannot take order-{s} partials of an order-{sp.order} jet")
    if not -n - 1 <= axis <= n:
        raise ShapeMismatch(f"axis {axis} is out of range for a jet of "
                            f"shape {a.shape}")
    src, fac = _partial_map(sp.nvars, sp.order, s)
    # (..., k, size of the lower space), laid out as (k, size, ...) by the
    # index gather and the product; the transpose below keeps that layout,
    # which decides the route of the matrix products the values feed
    out = a.coeffs[..., src] * fac
    axis %= n + 1
    if axis != n:
        out = out.transpose(*range(axis), n, *range(axis, n), n + 1)
    return Jet(get_space(sp.nvars, sp.order - s), out)


def jet_constant(space: JetSpace, value) -> Jet:
    """Constant jet; an array value gives a jet of its shape."""
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (space.size,))
    c[..., 0] = value
    return Jet(space, c)


def jet_stack(jets: Sequence[Jet]) -> Jet:
    """Stack jets of one space and one shape along a new first axis."""
    jets = list(jets)
    if not jets or any(j.space is not jets[0].space or j.shape != jets[0].shape
                       for j in jets):
        raise ShapeMismatch("stacking needs jets of one space and one shape")
    return Jet(jets[0].space, np.stack([j.coeffs for j in jets]))


def jet_variable(space: JetSpace, var: int, value) -> Jet:
    """Jet of the coordinate function x_var at a point where it equals value;
    an array of values gives a jet of its shape, one point per element."""
    if not 0 <= var < space.nvars:
        raise DimensionMismatch(f"no variable {var} in a {space.nvars}-jet")
    x = jet_constant(space, value)
    if space.order >= 1:
        unit = tuple(1 if i == var else 0 for i in range(space.nvars))
        x.coeffs[..., space.pos[unit]] = 1.0
    return x


def jet_holomorphic_re(space: JetSpace, derivs) -> Jet:
    """Jet of Re Phi(x0 + i x1) for Phi holomorphic, from the values
    derivs[..., k] = Phi^(k)(z), k = 0..order, at the expansion point z;
    the leading shape of derivs is the jet's shape.

    By Cauchy-Riemann, d_0^a d_1^b Re Phi = Re(i^b Phi^(a+b)), so the
    coefficient at (a, b) is Re(i^b derivs[a + b]) / (a! b!). In a
    3-variable space Re Phi does not depend on x2, and every coefficient
    with a power of x2 is 0."""
    d = np.asarray(derivs, dtype=complex)
    if d.shape[-1:] != (space.order + 1,):
        raise ShapeMismatch(f"need {space.order + 1} derivatives for an "
                            f"order-{space.order} jet, got {d.shape}")
    pos, k, w = space._holomorphic_map
    c = np.zeros(d.shape[:-1] + (space.size,))
    terms = d[..., k]  # multiplied in place: a second temporary costs more
    c[..., pos] = np.multiply(terms, w, out=terms).real
    return Jet(space, c)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated product, broadcast over the leading shapes. Every shape
    sums the products of one output coefficient by the same reduction, so
    a product does not depend on the batch it is part of."""
    sp = a.space
    if b.space is not sp:
        raise ShapeMismatch("jets from different spaces")
    ia, ib, starts = sp._mul_table
    prod = a.coeffs.take(ia, axis=-1) * b.coeffs.take(ib, axis=-1)
    return Jet(sp, np.add.reduceat(prod, starts, axis=-1))


def jet_dot(a: Jet, b: Jet) -> Jet:
    """Sum of a * b over the last leading axis."""
    p = jet_mul(a, b)
    if p.coeffs.ndim == 1:
        raise ShapeMismatch("jet_dot needs vector jets")
    return Jet(p.space, np.add.reduce(p.coeffs, axis=-2))


def jet_truncate(a: Jet, order: int) -> Jet:
    """Forget coefficients above a lower order. The canonical index list of
    the lower space is a prefix of the higher one, so this is a slice."""
    if order > a.space.order:
        raise OrderExceeded(
            f"cannot extend an order-{a.space.order} jet to order {order}")
    if order == a.space.order:
        return a
    low = get_space(a.space.nvars, order)
    return Jet(low, a.coeffs[..., :low.size].copy())


def _outer_series(kind: str, a0: np.ndarray, order: int,
                  eps: float) -> list[np.ndarray]:
    # Taylor coefficients of the outer function at every value in a0, up to
    # the jet order: one array of a0's shape per power.
    if kind == "recip":
        bad = np.abs(a0) <= eps
        if bad.any():
            raise DegenerateValue(
                f"recip at value {a0[bad].flat[0]!r} within eps {eps!r}")
        c = [1.0 / a0]
        for _ in range(order):
            c.append(-c[-1] / a0)
        return c
    if kind in ("sqrt", "rsqrt"):
        bad = a0 <= eps
        if bad.any():
            raise DegenerateValue(
                f"{kind} at value {a0[bad].flat[0]!r} within eps {eps!r}")
        c = [np.sqrt(a0)]
        e = 0.5
        if kind == "rsqrt":
            # the guards of recip(sqrt(a)): sqrt(a0) is also bounded by eps
            bad = c[0] <= eps
            if bad.any():
                raise DegenerateValue(
                    f"rsqrt at value {a0[bad].flat[0]!r} within eps {eps!r}")
            c, e = [1.0 / c[0]], -0.5
        for j in range(1, order + 1):
            c.append(c[-1] * (e - j + 1) / (j * a0))
        return c
    if kind in ("sin", "cos"):
        sin, cos = np.sin(a0), np.cos(a0)
        cycle = [sin, cos, -sin, -cos]
        shift = 0 if kind == "sin" else 1
        return [cycle[(j + shift) % 4] / math.factorial(j)
                for j in range(order + 1)]
    raise InvalidData(f"unknown composition {kind!r}")


def jet_compose(kind: str, a: Jet, eps: float = EPS_DEG) -> Jet:
    """Compose an outer function (sqrt, recip, rsqrt = x^(-1/2), sin, cos)
    with a jet, elementwise over its leading shape. rsqrt is one
    composition with the eps guards of recip(sqrt(a, eps), eps); eps does
    not apply to sin and cos."""
    sp = a.space
    a0 = a.coeffs[..., 0]
    series = _outer_series(kind, a0, sp.order, eps)
    if sp.order == 0:
        return jet_constant(sp, series[0])
    # the offset a - a0: the constant term a0 - a0, the others as they are
    off = a.coeffs.copy()
    off[..., 0] -= a0
    # the first step scales by a constant
    acc = Jet(sp, off * np.asarray(series[-1])[..., None])
    acc.coeffs[..., 0] += series[-2]
    offset = Jet(sp, off)
    for c in reversed(series[:-2]):
        acc = jet_mul(acc, offset)
        acc.coeffs[..., 0] += c
    acc.coeffs[..., 1:] += 0.0  # -0.0 -> 0.0, as adding constant jets did
    return acc
