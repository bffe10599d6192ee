"""Polynomial array arithmetic against numpy.polynomial oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isomin import cpoly
from isomin.errors import DimensionMismatch, InvalidData
from isomin.weierstrass import surface_chart

from oracles import poly_json_trim_zeros

P = np.polynomial.polynomial

# leading shapes of up to two axes
SHAPES = st.lists(st.integers(1, 3), max_size=2).map(tuple)


@st.composite
def poly_arrays(draw, shape, max_length=6):
    """A complex array of the shape plus a coefficient axis of length 1 to
    max_length: coefficients uniform in the unit square, the last columns
    of every polynomial zero-padded and some polynomials zero."""
    length = draw(st.integers(1, max_length))
    pad = draw(st.integers(0, length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, size=shape + (length, 2)).view(complex)[..., 0]
    a[..., length - pad:] = 0
    zero = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    a[np.array(zero, dtype=bool).reshape(shape)] = 0
    return a


@st.composite
def broadcast_shapes(draw, shape):
    """A shape that broadcasts against `shape`: some axes 1, some leading
    axes dropped."""
    sizes = tuple(draw(st.sampled_from([n, 1])) for n in shape)
    return sizes[draw(st.integers(0, len(sizes))):]


def padded(c, length):
    """The coefficients c zero-padded to length; those past it are zero."""
    assert not np.any(c[length:])
    out = np.zeros(length, dtype=complex)
    out[:min(len(c), length)] = c[:length]
    return out


def true_length(c):
    """The number of coefficients up to the last nonzero one."""
    return len(np.trim_zeros(c, trim="b"))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), shape=SHAPES)
def test_mul_matches_numpy(data, shape):
    """poly_mul against polymul at every index of the broadcast leading
    shape; a zero polynomial gives exactly zero, and a padded one exact
    zeros past the true degree of the product. (i a)(i b) is exactly
    -(a b), so that such terms of a null curve's self-product cancel to
    exact zeros."""
    a = data.draw(poly_arrays(shape))
    b = data.draw(poly_arrays(data.draw(broadcast_shapes(shape))))
    got = cpoly.poly_mul(a, b)
    assert np.array_equal(cpoly.poly_mul(1j * a, 1j * b), -got)
    la, lb = a.shape[-1], b.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    assert got.shape == lead + (la + lb - 1,)
    A = np.broadcast_to(a, lead + (la,))
    B = np.broadcast_to(b, lead + (lb,))
    for idx in np.ndindex(lead):
        ref = padded(P.polymul(A[idx], B[idx]), la + lb - 1)
        np.testing.assert_allclose(got[idx], ref, rtol=0, atol=1e-13)
        ta, tb = true_length(A[idx]), true_length(B[idx])
        assert not got[idx][max(ta + tb - 1, 0):].any()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), shape=SHAPES, d=st.integers(1, 3),
       z=st.complex_numbers(max_magnitude=1.0))
def test_bilinear_dot_matches_polyval(data, shape, d, z):
    """The dot of two vectors, one broadcast over the other's leading
    shape, evaluated at z, is sum_i a_i(z) b_i(z)."""
    a = data.draw(poly_arrays(shape + (d,)))
    b = data.draw(poly_arrays((d,)))
    got = cpoly.bilinear_dot(a, b)
    assert got.shape == shape + (a.shape[-1] + b.shape[-1] - 1,)
    for idx in np.ndindex(shape):
        ref = sum(P.polyval(z, a[idx][i]) * P.polyval(z, b[i])
                  for i in range(d))
        assert abs(P.polyval(z, got[idx]) - ref) < 1e-12


def test_bilinear_dot_is_unconjugated():
    a = np.array([[1j, 0], [1, 0]])
    b = np.array([[1j, 0], [0, 1]])
    d = cpoly.bilinear_dot(a, b)
    # 1j*1j + 1*z = -1 + z, no conjugation anywhere
    assert d.tolist() == [-1 + 0j, 1 + 0j, 0j]
    with pytest.raises(DimensionMismatch):
        cpoly.bilinear_dot(a, np.array([[1.0]]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), shape=SHAPES)
def test_diff_int_roundtrip(data, shape):
    """poly_diff against polyder and poly_int against polyint with a value
    at z = 0 per polynomial; differentiating the antiderivative gives the
    polynomial back."""
    a = data.draw(poly_arrays(shape))
    consts = data.draw(poly_arrays(shape, max_length=1))[..., 0]
    length = a.shape[-1]
    der, anti = cpoly.poly_diff(a), cpoly.poly_int(a, consts)
    assert der.shape == shape + (length - 1,)
    assert anti.shape == shape + (length + 1,)
    for idx in np.ndindex(shape):
        np.testing.assert_allclose(
            der[idx], padded(P.polyder(a[idx]), length - 1), rtol=0,
            atol=1e-14)
        np.testing.assert_allclose(
            anti[idx], padded(P.polyint(a[idx], k=consts[idx]), length + 1),
            rtol=0, atol=1e-15)
        assert anti[idx][0] == consts[idx]
    np.testing.assert_allclose(cpoly.poly_diff(anti), a, rtol=0, atol=1e-15)
    assert not cpoly.poly_int(a)[..., 0].any()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), d=st.integers(1, 4),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=4))
def test_eval_horner_matches_numpy(data, d, points):
    """A surface chart of a (d, L) array, zero rows and padded columns
    included, takes the value Re Phi_i(u + iv) of polyval at every point of
    a batch."""
    a = data.draw(poly_arrays((d,), max_length=8))
    got = surface_chart(a).eval_jets(points, 0).value
    for p, row in zip(points, got):
        z = complex(*p)
        ref = [P.polyval(z, c).real for c in a]
        np.testing.assert_allclose(row, ref, rtol=0, atol=1e-13)


def test_trim_and_degree():
    """The JSON form drops trailing zeros, and only those: -0.0 is a zero,
    1e-30 and NaN are not; the zero polynomial is []."""
    assert cpoly.to_json(np.array([1.0, 2.0, 0.0, -0.0])) == [[1.0, 0.0],
                                                              [2.0, 0.0]]
    assert cpoly.to_json(np.zeros(3, dtype=complex)) == []
    assert cpoly.to_json(np.array([0.0, 1e-30, 0.0])) == [[0.0, 0.0],
                                                          [1e-30, 0.0]]
    doc = cpoly.to_json(np.array([[math.nan, 0.0], [0.0, 0.0]]))
    assert math.isnan(doc[0][0][0]) and doc[1] == []


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.lists(st.integers(0, 3), max_size=3).map(tuple),
       length=st.integers(0, 6), real=st.booleans())
def test_json_form_matches_one_trim_per_polynomial(seed, shape, length,
                                                   real):
    """to_json gives the very lists of one `np.trim_zeros` per polynomial
    (the same values, signs of zeros and types): real or complex arrays
    with zero-length axes, trailing zeros of either sign trimmed, and NaN,
    infinities, 1e-300 and zero real or imaginary parts kept."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=shape + (length, 2)).view(complex)[..., 0]
    pick = rng.random(a.shape)
    for value, lo, hi in ((0.0, 0.0, 0.2), (-0.0, 0.2, 0.3),
                          (complex(-0.0, 0.0), 0.3, 0.35),
                          (complex(0.0, -0.0), 0.35, 0.4),
                          (math.nan, 0.4, 0.43), (math.inf, 0.43, 0.45),
                          (1e-300, 0.45, 0.47), (0.5j, 0.47, 0.5)):
        a[(pick >= lo) & (pick < hi)] = value
    pad = rng.integers(0, length + 1, size=shape)
    a[np.arange(length) >= (length - pad)[..., None]] = 0.0
    if real:
        a = a.real.copy()
    assert repr(cpoly.to_json(a)) == repr(poly_json_trim_zeros(a))


def test_json_roundtrip():
    v = np.array([[1.0 + 2.0j, 0.0, -0.5j], [3.0, 0.0, 0.0]])
    doc = cpoly.to_json(v)
    assert doc == [[[1.0, 2.0], [0.0, 0.0], [0.0, -0.5]], [[3.0, 0.0]]]
    back = cpoly.from_json(doc)
    assert back.dtype == complex and np.array_equal(back, v)
    assert np.array_equal(cpoly.from_json([[], [[1.0, 0.0]]]), [[0], [1]])
    assert cpoly.from_json([]).shape == (0, 0)
    assert np.array_equal(cpoly.complex_list_from_json(doc[0]), v[0])
    # not a list; one polynomial where a list of them belongs
    for bad in ("nope", [[1.0, 0.0]]):
        with pytest.raises(InvalidData):
            cpoly.from_json(bad)


@pytest.mark.parametrize("doc", [
    [[1.0]],            # pair missing
    [["a", 0.0]],       # not a number
    "nope",
    [[1.0, 0.0, 0.0]],
    [[1.0, 0.0], [math.nan, 0.0]],   # not finite
    [[0.0, math.inf]],
])
def test_json_malformed(doc):
    with pytest.raises(InvalidData):
        cpoly.complex_list_from_json(doc)
    with pytest.raises(InvalidData):
        cpoly.from_json([doc])
