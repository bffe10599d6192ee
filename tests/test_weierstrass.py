"""Null recursion on polynomial data and the generated surface charts."""
import math

import numpy as np
import pytest

import isomin.weierstrass as W
from isomin.catalog import demo_weierstrass_data, random_weierstrass_data
from isomin.errors import DimensionMismatch, InvalidData

from oracles import point_row


ONE = np.ones(1, dtype=complex)


def coeffs(p, length):
    """The first `length` coefficients of p; those past them are zero."""
    assert not p[length:].any()
    out = np.zeros(length, dtype=complex)
    out[:min(len(p), length)] = p[:length]
    return out


def test_isotropic_step_scalar_seed():
    # alpha = (1): phi = z, s = z^2 -> (1 - z^2, i(1 + z^2), 2z)
    out = W.isotropic_step(np.ones((1, 1), dtype=complex), ONE)
    assert len(out) == 3
    assert np.allclose(coeffs(out[0], 3), [1, 0, -1])
    assert np.allclose(coeffs(out[1], 3), [1j, 0, 1j])
    assert np.allclose(coeffs(out[2], 3), [0, 2, 0])


def test_isotropic_step_empty_seed():
    out = W.isotropic_step(np.zeros((0, 0), dtype=complex), ONE)
    assert len(out) == 2
    assert np.allclose(coeffs(out[0], 1), [1])
    assert np.allclose(coeffs(out[1], 1), [1j])


def test_step_output_is_null():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(0, 3))
        alpha = rng.uniform(-1, 1, size=(d, 3, 2)).view(complex)[..., 0]
        beta = np.array([1.0 + rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)],
                        dtype=complex)
        out = W.isotropic_step(alpha, beta)
        assert W.null_residual(out) < 1e-14


def test_n4_symbolic():
    rep = W.generate_surface(demo_weierstrass_data(4))
    a2 = rep.alpha2
    assert np.allclose(coeffs(a2[0], 2), [1, 0])
    assert np.allclose(coeffs(a2[1], 2), [1j, 0])
    assert np.allclose(coeffs(a2[2], 2), [0, 2])
    assert np.allclose(coeffs(a2[3], 2), [0, 2j])
    # g = Re integral: (u, -v, u^2 - v^2, -2uv)
    for u, v in ((0.3, 0.2), (-0.7, 0.45)):
        got = rep.chart.value((u, v))
        assert np.allclose(got, [u, -v, u * u - v * v, -2 * u * v],
                           atol=1e-14)


def test_n5_symbolic():
    rep = W.generate_surface(demo_weierstrass_data(5))
    a2 = rep.alpha2
    assert np.allclose(coeffs(a2[0], 5), [1, 0, 0, 0, 1 / 3])
    assert np.allclose(coeffs(a2[1], 5), [1j, 0, 0, 0, -1j / 3])
    assert np.allclose(coeffs(a2[2], 5), [0, 2, 0, -2 / 3, 0])
    assert np.allclose(coeffs(a2[3], 5), [0, 2j, 0, 2j / 3, 0])
    assert np.allclose(coeffs(a2[4], 5), [0, 0, 2, 0, 0])


def test_null_identities_random():
    rng = np.random.default_rng(7)
    for n in (4, 5, 6, 8):
        for _ in range(3):
            data = random_weierstrass_data(rng, n)
            rep = W.generate_surface(data)
            for key in ("alpha1_null", "alpha2_null",
                        "alpha2_derivative_null"):
                assert rep.residuals[key] < 1e-12, (n, key)


def test_final_integration_flag():
    """Without the final integration the chart takes Re(alpha2) directly;
    for n=4 that is an affine plane."""
    rep = W.generate_surface(demo_weierstrass_data(4, final_integration=False))
    assert rep.chart.name.endswith("noint")
    for u, v in ((0.3, 0.2), (-0.1, 0.6)):
        got = rep.chart.value((u, v))
        assert np.allclose(got, [1.0, 0.0, 2 * u, -2 * v], atol=1e-14)


def test_unintegrated_generic_is_not_isotropic():
    """Generic data: the literal reading stays minimal but its first
    curvature ellipse is not a circle; the integrated chart is."""
    data = demo_weierstrass_data(5, final_integration=False)
    rep = W.generate_surface(data)
    p = (0.23, 0.14)
    assert point_row(rep.chart, p)["order"] == 0
    rep_int = W.generate_surface(demo_weierstrass_data(5))
    assert point_row(rep_int.chart, p)["order"] >= 1


def test_integration_constants():
    base = demo_weierstrass_data(5)
    data = W.WeierstrassData(n=5, alpha0=base.alpha0, beta1=base.beta1,
                             beta2=base.beta2,
                             int_constants={"phi2": (0.5,) * 5})
    rep = W.generate_surface(data)
    shifted = rep.chart.value((0.0, 0.0))
    base_val = W.generate_surface(base).chart.value((0.0, 0.0))
    assert np.allclose(shifted - base_val, 0.5)
    # identities do not care about the constants
    assert max(rep.residuals.values()) < 1e-12


def test_data_validation():
    one, none = ONE, np.zeros((0, 1), dtype=complex)
    with pytest.raises(InvalidData):
        W.WeierstrassData(n=3, alpha0=none, beta1=one, beta2=one)
    with pytest.raises(DimensionMismatch):  # alpha0 length must be n - 4
        W.WeierstrassData(n=5, alpha0=none, beta1=one, beta2=one)
    with pytest.raises(InvalidData):  # betas nonzero, padding included
        W.WeierstrassData(n=4, alpha0=none, beta1=np.zeros(3), beta2=one)
    with pytest.raises(InvalidData):  # alpha0 must not vanish when n > 4
        W.WeierstrassData(n=5, alpha0=np.zeros((1, 2)), beta1=one,
                          beta2=one)
    with pytest.raises(DimensionMismatch):  # constants length
        W.WeierstrassData(n=4, alpha0=none, beta1=one, beta2=one,
                          int_constants={"phi2": (1.0,)})


def test_json_roundtrip():
    data = demo_weierstrass_data(6)
    doc = data.to_json()
    back = W.WeierstrassData.from_json(doc)
    assert back.n == data.n
    assert back.final_integration == data.final_integration
    assert np.array_equal(back.alpha0, data.alpha0)
    assert np.array_equal(back.beta1, data.beta1)
    with pytest.raises((InvalidData, DimensionMismatch)):
        W.WeierstrassData.from_json({"n": 5})
    with pytest.raises(InvalidData):
        W.WeierstrassData.from_json([1, 2])


@pytest.mark.parametrize("consts", [
    [1], {"phi2": 5}, {"phi2": [[1.0, 0.0]] * 3 + [[math.nan, 0.0]]},
    {"phi3": []},
])
def test_integration_constants_from_json_are_checked(consts):
    with pytest.raises(InvalidData):
        W.WeierstrassData.from_json({"n": 4, "int_constants": consts})


def test_surface_report_json():
    rep = W.generate_surface(demo_weierstrass_data(4))
    doc = rep.to_json()
    assert doc["data"]["n"] == 4
    assert set(doc["residuals"]) == {"alpha1_null", "alpha2_null",
                                     "alpha2_derivative_null"}
    assert len(doc["alpha2"]) == 4


@pytest.mark.parametrize("doc", [
    {"n": 4.9}, {"n": 5.0, "alpha0": [[[1, 0]]]}, {"n": "5"}, {"n": True},
    {"n": 4, "final_integration": 0}, {"n": 4, "final_integration": "no"},
    {"n": 4, "final_integration": None},
])
def test_from_json_rejects_non_integer_n_and_non_boolean_flag(doc):
    with pytest.raises(InvalidData):
        W.WeierstrassData.from_json(doc)


def test_from_json_keeps_final_integration():
    for final in (True, False):
        data = demo_weierstrass_data(5, final_integration=final)
        back = W.WeierstrassData.from_json(data.to_json())
        assert back.final_integration is final


def test_surface_charts_keep_their_curve_trimmed_to_its_degree():
    """The chart of a curve with padded columns keeps the curve through
    its degree; the recursion's charts keep phi2, or alpha2 without the
    final integration."""
    curve = np.zeros((5, 6), dtype=complex)
    curve[0, :3] = [1.0, 2.0j, -0.5]
    curve[3, 1] = 1.0
    np.testing.assert_array_equal(W.surface_chart(curve).curve, curve[:, :3])
    for final in (True, False):
        rep = W.generate_surface(demo_weierstrass_data(7, final))
        kept = rep.phi2 if final else rep.alpha2
        degree = np.flatnonzero(kept.any(axis=0))[-1]
        np.testing.assert_array_equal(rep.chart.curve, kept[:, :degree + 1])
