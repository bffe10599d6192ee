"""Complex polynomial arithmetic against numpy.polynomial oracles."""
import math

import numpy as np
import pytest

from isomin import cpoly
from isomin.errors import DimensionMismatch, InvalidData


def rand_poly(rng, deg):
    c = rng.uniform(-1, 1, size=(deg + 1, 2))
    return cpoly.poly(*(complex(a, b) for a, b in c))


def test_trim_and_degree():
    p = cpoly.poly(1.0, 2.0, 0.0, 0.0)
    assert p.degree == 1
    assert cpoly.poly(0.0).degree == -1
    assert cpoly.poly(0.0).is_zero()
    assert not cpoly.poly(0.0, 1e-30).is_zero()


def test_mul_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rand_poly(rng, int(rng.integers(0, 5)))
        b = rand_poly(rng, int(rng.integers(0, 5)))
        got = (a * b).coeffs
        ref = np.polynomial.polynomial.polymul(np.array(a.coeffs),
                                               np.array(b.coeffs))
        assert np.allclose(np.array(got), ref[:len(got)], atol=1e-14)


def test_eval_horner_matches_numpy():
    rng = np.random.default_rng(4)
    p = rand_poly(rng, 6)
    for z in (0.3 + 0.1j, -1.2j, 2.0):
        ref = np.polynomial.polynomial.polyval(z, np.array(p.coeffs))
        assert abs(p(z) - ref) < 1e-13 * (1 + abs(ref))


def test_diff_int_roundtrip():
    rng = np.random.default_rng(5)
    p = rand_poly(rng, 5)
    q = cpoly.poly_diff(cpoly.poly_int(p, constant=2.0 + 1.0j))
    assert q.degree == p.degree
    assert np.allclose(np.array(q.coeffs), np.array(p.coeffs))
    # antiderivative really integrates: d/dz of z^k/k coefficients
    r = cpoly.poly_int(p)
    assert r.coeffs[0] == 0
    assert cpoly.poly_int(p, constant=3.0).coeffs[0] == 3.0


def test_bilinear_dot_is_unconjugated():
    a = (cpoly.poly(1j), cpoly.poly(1.0))
    b = (cpoly.poly(1j), cpoly.poly(0.0, 1.0))
    d = cpoly.bilinear_dot(a, b)
    # 1j*1j + 1*z = -1 + z, no conjugation anywhere
    assert d.coeffs == (-1 + 0j, 1 + 0j)
    with pytest.raises(DimensionMismatch):
        cpoly.bilinear_dot(a, (cpoly.poly(1.0),))


def test_vec_helpers():
    v = (cpoly.poly(0.0, 2.0), cpoly.poly(1.0))
    dv = cpoly.vec_diff(v)
    assert dv[0].coeffs == (2 + 0j,)
    assert dv[1].is_zero()
    iv = cpoly.vec_int(v, constants=(1.0, 2.0))
    assert iv[0](0) == 1.0 and iv[1](0) == 2.0
    vals = [p(0.5) for p in v]
    assert np.allclose(vals, [1.0, 1.0])
    assert cpoly.vec_max_abs_coeff(v) == 2.0


def test_scalar_ops():
    p = cpoly.poly(1.0, 1.0)
    assert ((2 * p) - p).coeffs == (1 + 0j, 1 + 0j)
    assert (-p).coeffs == (-1 + 0j, -1 + 0j)
    assert (p * (1 + 1j)).coeffs == (1 + 1j, 1 + 1j)


def test_json_roundtrip():
    p = cpoly.poly(1.0 + 2.0j, 0.0, -0.5j)
    doc = cpoly.poly_to_json(p)
    assert doc == [[1.0, 2.0], [0.0, 0.0], [0.0, -0.5]]
    q = cpoly.poly_from_json(doc)
    assert q.coeffs == p.coeffs
    v = (p, cpoly.poly(3.0))
    assert cpoly.vec_from_json(cpoly.vec_to_json(v))[0].coeffs == p.coeffs


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
        cpoly.poly_from_json(doc)
