"""Dense complex polynomials in one variable, and vectors of them.

Coefficients are Python complex numbers indexed by power of z and stored
trimmed: the trailing coefficient is nonzero unless the polynomial is zero
(empty tuple). The dot product used throughout the package is the bilinear
one, sum(a_k * b_k) with no conjugation; null curves are exactly the curves
whose self-product vanishes under this pairing.
"""
from __future__ import annotations

import cmath
import dataclasses
import itertools
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InvalidData


def _trim(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class ComplexPoly:
    """Polynomial sum(coeffs[k] * z**k) with trimmed coefficients."""

    coeffs: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: ComplexPoly) -> ComplexPoly:
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return ComplexPoly(tuple(a + b for a, b in pairs))

    def __sub__(self, other: ComplexPoly) -> ComplexPoly:
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return ComplexPoly(tuple(a - b for a, b in pairs))

    def __neg__(self) -> ComplexPoly:
        return ComplexPoly(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, ComplexPoly):
            return poly_mul(self, other)
        return ComplexPoly(tuple(a * other for a in self.coeffs))

    __rmul__ = __mul__

    def __call__(self, z: complex) -> complex:
        return poly_eval(self, z)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)


PolyVec = tuple[ComplexPoly, ...]

ZERO = ComplexPoly()
ONE = ComplexPoly((1,))


def poly(*coeffs: complex) -> ComplexPoly:
    """Convenience constructor, low powers first: poly(1, 0, 2) = 1 + 2z^2."""
    return ComplexPoly(tuple(coeffs))


def poly_mul(a: ComplexPoly, b: ComplexPoly) -> ComplexPoly:
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [0j] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return ComplexPoly(tuple(out))


def poly_diff(a: ComplexPoly) -> ComplexPoly:
    return ComplexPoly(tuple(k * c for k, c in enumerate(a.coeffs) if k > 0))


def poly_int(a: ComplexPoly, constant: complex = 0) -> ComplexPoly:
    """Antiderivative with a chosen value at z = 0."""
    return ComplexPoly((complex(constant),)
                       + tuple(c / (k + 1) for k, c in enumerate(a.coeffs)))


def poly_eval(a: ComplexPoly, z: complex) -> complex:
    acc = 0j
    for c in reversed(a.coeffs):
        acc = acc * z + c
    return acc


def bilinear_dot(a: Sequence[ComplexPoly], b: Sequence[ComplexPoly]) -> ComplexPoly:
    """Unconjugated dot product sum_k a_k * b_k of two polynomial vectors."""
    if len(a) != len(b):
        raise DimensionMismatch(
            f"bilinear_dot needs equal lengths, got {len(a)} and {len(b)}")
    acc = ZERO
    for pa, pb in zip(a, b):
        acc = acc + poly_mul(pa, pb)
    return acc


def vec_diff(v: Sequence[ComplexPoly]) -> PolyVec:
    return tuple(poly_diff(p) for p in v)


def vec_int(v: Sequence[ComplexPoly],
            constants: Sequence[complex] | None = None) -> PolyVec:
    if constants is None:
        constants = (0,) * len(v)
    if len(constants) != len(v):
        raise DimensionMismatch(
            f"{len(v)} components but {len(constants)} integration constants")
    return tuple(poly_int(p, c) for p, c in zip(v, constants))


def vec_max_abs_coeff(v: Sequence[ComplexPoly]) -> float:
    return max((p.max_abs_coeff() for p in v), default=0.0)


def poly_to_json(a: ComplexPoly) -> list[list[float]]:
    """JSON form: array of [re, im] pairs, index = power of z."""
    return [[c.real, c.imag] for c in a.coeffs]


def complex_list_from_json(data) -> tuple[complex, ...]:
    """A list of [re, im] pairs of finite numbers."""
    try:
        values = tuple(complex(float(re), float(im)) for re, im in data)
    except (TypeError, ValueError) as exc:
        raise InvalidData(f"need a list of [re, im] pairs: {exc}")
    if not all(cmath.isfinite(c) for c in values):
        raise InvalidData("complex numbers must be finite")
    return values


def poly_from_json(data) -> ComplexPoly:
    return ComplexPoly(complex_list_from_json(data))


def vec_to_json(v: Sequence[ComplexPoly]) -> list[list[list[float]]]:
    return [poly_to_json(p) for p in v]


def vec_from_json(data) -> PolyVec:
    if not isinstance(data, list):
        raise InvalidData("polynomial vector must be a JSON array")
    return tuple(poly_from_json(p) for p in data)
