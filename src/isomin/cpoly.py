"""Complex polynomials in one variable as arrays, and vectors of them.

A polynomial is a complex array whose last axis holds the coefficients by
power of z; a vector of d polynomials is one (d, L) array, row i component
i and column k the coefficient of z^k, every row zero-padded to the common
length L. A zero row is the zero polynomial. Every operation broadcasts
over the leading axes. Trimming happens only in the JSON form, which lists
each polynomial without its trailing zeros (the zero polynomial is []).
The dot product used throughout the package is the bilinear one,
sum(a_k * b_k) with no conjugation; null curves are exactly the curves
whose self-product vanishes under this pairing.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidData


@lru_cache(maxsize=None)
def _pair_table(la: int, lb: int) -> tuple[np.ndarray, np.ndarray]:
    # the positions i * lb + j of the outer product a_i b_j, sorted by output
    # power i + j and then by i, and the start of each power's run; every
    # power 0..la + lb - 2 has at least one pair
    i, j = np.divmod(np.arange(la * lb), lb)
    order = np.lexsort((i, i + j))
    return order, np.searchsorted((i + j)[order], np.arange(la + lb - 1))


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials of lengths la, lb >= 1, length la + lb - 1,
    broadcast over the leading axes: one gather of the outer product in
    (output power, power in a) order and one reduction per output power."""
    la, lb = a.shape[-1], b.shape[-1]
    order, starts = _pair_table(la, lb)
    ar, ai = a.real[..., :, None], a.imag[..., :, None]
    br, bi = b.real[..., None, :], b.imag[..., None, :]
    # the complex products in real arithmetic, rounded as Python rounds
    # them: numpy's complex multiply may fuse a multiply and an add, and
    # then x y and (i x)(i y) are not exact negatives, so the top
    # coefficients of the self-product of a null curve's integral no
    # longer cancel to exact zeros
    real = ar * br - ai * bi
    outer = np.empty(real.shape, dtype=complex)
    outer.real = real
    outer.imag = ar * bi + ai * br
    outer = outer.reshape(outer.shape[:-2] + (la * lb,))
    return np.add.reduceat(outer[..., order], starts, axis=-1)


def bilinear_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconjugated dot product sum_i a_i * b_i of two polynomial vectors
    (..., d, L)."""
    if a.shape[-2] != b.shape[-2]:
        raise DimensionMismatch(
            f"bilinear_dot needs equal lengths, got {a.shape[-2]} and "
            f"{b.shape[-2]}")
    return poly_mul(a, b).sum(axis=-2)


def poly_diff(a: np.ndarray) -> np.ndarray:
    """Derivatives, one column shorter."""
    return a[..., 1:] * np.arange(1, a.shape[-1])


def poly_int(a: np.ndarray, constants=0) -> np.ndarray:
    """Antiderivatives, one column longer, with the given values at z = 0
    (broadcast over the leading axes)."""
    head = np.broadcast_to(constants, a.shape[:-1])[..., None]
    return np.concatenate([head, a / np.arange(1, a.shape[-1] + 1)], axis=-1)


def stack(polys) -> np.ndarray:
    """The (d, L) array of d one-dimensional coefficient arrays, zero-padded
    to the longest."""
    out = np.zeros((len(polys), max(map(len, polys), default=0)),
                   dtype=complex)
    for row, p in zip(out, polys):
        row[:len(p)] = p
    return out


def to_json(a: np.ndarray) -> list:
    """JSON form: each polynomial a list of [re, im] pairs by power of z,
    without trailing zeros, nested as the leading axes are. One mask over
    the whole array gives every polynomial's kept length (one past its last
    nonzero coefficient), and the pairs are cut to it as lists."""
    kept = ((a != 0) * np.arange(1, a.shape[-1] + 1)).max(axis=-1, initial=0)
    return _cut(np.stack((a.real, a.imag), axis=-1).tolist(), kept.tolist())


def _cut(pairs: list, kept):
    """Nested lists of pairs, each innermost list cut to its kept length."""
    if isinstance(kept, int):
        return pairs[:kept]
    return [_cut(p, k) for p, k in zip(pairs, kept)]


def complex_list_from_json(data) -> np.ndarray:
    """A list of [re, im] pairs of finite numbers: one polynomial, or a list
    of integration constants."""
    try:
        values = np.array([complex(float(re), float(im)) for re, im in data],
                          dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidData(f"need a list of [re, im] pairs: {exc}")
    if not np.isfinite(values).all():
        raise InvalidData("complex numbers must be finite")
    return values


def from_json(data) -> np.ndarray:
    """The (d, L) array of a JSON list of d polynomials."""
    if not isinstance(data, list):
        raise InvalidData("polynomial vector must be a JSON array")
    return stack([complex_list_from_json(p) for p in data])
