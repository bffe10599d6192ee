"""Dense truncated multivariate Taylor arithmetic (jets).

A Jet holds the Taylor coefficients of a smooth real-valued function at a
point, on every multi-index of total degree <= order, for 1 to 3 variables.
The expansion point itself is not stored; coefficients are relative offsets.
Multiplication is truncated convolution driven by a precomputed index table,
composition (sqrt, recip, sin, cos) is a Horner evaluation of the outer
Taylor series in jet arithmetic, and differentiation shifts coefficients
down one order. sqrt and recip demand a constant term bounded away from
zero (eps = 1e-10 by default); violating that raises DegenerateValue, which
chart-level code surfaces as a degenerate point. The jet of Re Phi(x0 + i x1)
for a holomorphic Phi is read off Phi's derivatives in closed form.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DegenerateValue, DimensionMismatch, InvalidData,
                     OrderExceeded, ShapeMismatch)

EPS_DEG = 1e-10


class JetSpace:
    """Index bookkeeping for jets with a fixed (nvars, order).

    Holds the canonical multi-index list (sorted by total degree, then
    lexicographically), the truncated-convolution table, factorials for
    derivative extraction, and the coefficient shift maps used by
    differentiation.
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
        ia, ib, io = [], [], []
        for i, ma in enumerate(idx):
            for j, mb in enumerate(idx):
                if sum(ma) + sum(mb) <= order:
                    ia.append(i)
                    ib.append(j)
                    io.append(self.pos[tuple(a + b for a, b in zip(ma, mb))])
        self._mul_a = np.array(ia, dtype=np.intp)
        self._mul_b = np.array(ib, dtype=np.intp)
        self._mul_o = np.array(io, dtype=np.intp)
        # derivative maps: for each variable, source positions and factors
        # aligned with the index list of the (order - 1) space
        self._deriv: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._holo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _deriv_maps(self):
        if self._deriv is None:
            low = get_space(self.nvars, self.order - 1)
            maps = []
            for var in range(self.nvars):
                src, fac = [], []
                for m in low.indices:
                    m_up = tuple(k + (1 if i == var else 0)
                                 for i, k in enumerate(m))
                    src.append(self.pos[m_up])
                    fac.append(m[var] + 1)
                maps.append((np.array(src, dtype=np.intp),
                             np.array(fac, dtype=float)))
            self._deriv = maps
        return self._deriv

    def _holomorphic_map(self):
        # positions of the indices (a, b, 0...), with a + b and i^b / (a! b!)
        if self._holo is None:
            if self.nvars < 2:
                raise DimensionMismatch(
                    "holomorphic jets need 2 or 3 variables, got 1")
            pos, k, w = [], [], []
            for p, m in enumerate(self.indices):
                if any(m[2:]):
                    continue
                a, b = m[:2]
                pos.append(p)
                k.append(a + b)
                w.append((1, 1j, -1, -1j)[b % 4]
                         / (math.factorial(a) * math.factorial(b)))
            self._holo = (np.array(pos, dtype=np.intp),
                          np.array(k, dtype=np.intp),
                          np.array(w, dtype=complex))
        return self._holo


@lru_cache(maxsize=None)
def get_space(nvars: int, order: int) -> JetSpace:
    if not 1 <= nvars <= 3:
        raise InvalidData(f"jets support 1 to 3 variables, got {nvars}")
    if order < 0:
        raise InvalidData(f"jet order must be nonnegative, got {order}")
    return JetSpace(nvars, order)


@dataclasses.dataclass(frozen=True, eq=False)
class Jet:
    space: JetSpace
    coeffs: np.ndarray  # shape (space.size,), Taylor coefficients

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ShapeMismatch("jets from different spaces")
            return other
        return jet_constant(self.space, float(other))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.space, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.space, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        return Jet(self.space, o.coeffs - self.coeffs)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.space, self.coeffs * float(other))

    __rmul__ = __mul__

    def derivative(self, var: int) -> "Jet":
        """Jet of the partial derivative in variable var, one order lower."""
        sp = self.space
        if sp.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        if not 0 <= var < sp.nvars:
            raise DimensionMismatch(f"no variable {var} in a {sp.nvars}-jet")
        src, fac = sp._deriv_maps()[var]
        low = get_space(sp.nvars, sp.order - 1)
        return Jet(low, self.coeffs[src] * fac)


def jet_constant(space: JetSpace, value: float) -> Jet:
    c = np.zeros(space.size)
    c[0] = value
    return Jet(space, c)


def jet_variable(space: JetSpace, var: int, value: float) -> Jet:
    """Jet of the coordinate function x_var at a point where it equals value."""
    if not 0 <= var < space.nvars:
        raise DimensionMismatch(f"no variable {var} in a {space.nvars}-jet")
    c = np.zeros(space.size)
    c[0] = value
    if space.order >= 1:
        unit = tuple(1 if i == var else 0 for i in range(space.nvars))
        c[space.pos[unit]] = 1.0
    return Jet(space, c)


def jet_holomorphic_re(space: JetSpace, derivs: Sequence[complex]) -> Jet:
    """Jet of Re Phi(x0 + i x1) for Phi holomorphic, from the values
    derivs[k] = Phi^(k)(z), k = 0..order, at the expansion point z.

    By Cauchy-Riemann, d_0^a d_1^b Re Phi = Re(i^b Phi^(a+b)), so the
    coefficient at (a, b) is Re(i^b derivs[a + b]) / (a! b!). In a
    3-variable space Re Phi does not depend on x2, and every coefficient
    with a power of x2 is 0."""
    d = np.asarray(derivs, dtype=complex)
    if d.shape != (space.order + 1,):
        raise ShapeMismatch(f"need {space.order + 1} derivatives for an "
                            f"order-{space.order} jet, got {d.shape}")
    pos, k, w = space._holomorphic_map()
    c = np.zeros(space.size)
    c[pos] = (w * d[k]).real
    return Jet(space, c)


def jet_mul(a: Jet, b: Jet) -> Jet:
    sp = a.space
    if b.space is not sp:
        raise ShapeMismatch("jets from different spaces")
    prod = a.coeffs[sp._mul_a] * b.coeffs[sp._mul_b]
    return Jet(sp, np.bincount(sp._mul_o, weights=prod, minlength=sp.size))


def jet_truncate(a: Jet, order: int) -> Jet:
    """Forget coefficients above a lower order. The canonical index list of
    the lower space is a prefix of the higher one, so this is a slice."""
    if order > a.space.order:
        raise OrderExceeded(
            f"cannot extend an order-{a.space.order} jet to order {order}")
    if order == a.space.order:
        return a
    low = get_space(a.space.nvars, order)
    return Jet(low, a.coeffs[:low.size].copy())


def _outer_series(kind: str, a0: float, order: int, eps: float) -> list[float]:
    # Taylor coefficients of the outer function at a0, up to the jet order.
    if kind == "recip":
        if abs(a0) <= eps:
            raise DegenerateValue(f"recip at value {a0!r} within eps {eps!r}")
        c = [1.0 / a0]
        for _ in range(order):
            c.append(-c[-1] / a0)
        return c
    if kind == "sqrt":
        if a0 <= eps:
            raise DegenerateValue(f"sqrt at value {a0!r} within eps {eps!r}")
        c = [math.sqrt(a0)]
        e = 0.5
        for j in range(1, order + 1):
            c.append(c[-1] * (e - j + 1) / (j * a0))
        return c
    if kind in ("sin", "cos"):
        cycle = [math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)]
        shift = 0 if kind == "sin" else 1
        return [cycle[(j + shift) % 4] / math.factorial(j)
                for j in range(order + 1)]
    raise InvalidData(f"unknown composition {kind!r}")


def jet_compose(kind: str, a: Jet, eps: float = EPS_DEG) -> Jet:
    """Compose an outer function (sqrt, recip, sin, cos) with a jet."""
    series = _outer_series(kind, a.value, a.space.order, eps)
    offset = Jet(a.space, a.coeffs.copy())
    offset.coeffs[0] = 0.0
    acc = jet_constant(a.space, series[-1])
    for c in reversed(series[:-1]):
        acc = jet_mul(acc, offset) + c
    return acc


def jet_sqrt(a: Jet, eps: float = EPS_DEG) -> Jet:
    return jet_compose("sqrt", a, eps)


def jet_recip(a: Jet, eps: float = EPS_DEG) -> Jet:
    return jet_compose("recip", a, eps)


def jet_sin(a: Jet) -> Jet:
    return jet_compose("sin", a)


def jet_cos(a: Jet) -> Jet:
    return jet_compose("cos", a)


def jet_extract(a: Jet, idx: Sequence[int]) -> float:
    """Partial derivative for a multi-index: Taylor coefficient times idx!."""
    m = tuple(int(k) for k in idx)
    if len(m) != a.space.nvars:
        raise DimensionMismatch(
            f"multi-index length {len(m)} for a {a.space.nvars}-variable jet")
    if any(k < 0 for k in m):
        raise InvalidData(f"negative multi-index {m}")
    if sum(m) > a.space.order:
        raise OrderExceeded(
            f"derivative {m} exceeds jet order {a.space.order}")
    p = a.space.pos[m]
    return float(a.coeffs[p] * a.space.factorial[p])
