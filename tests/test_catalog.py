"""Fixture factories and the named registry."""
import numpy as np
import pytest

import isomin.geometry as geo
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            make_geodesic_sphere, make_great_sphere,
                            make_holomorphic_curve, make_plane, make_veronese,
                            random_weierstrass_data)
from isomin.errors import InvalidData
from isomin.weierstrass import generate_surface

from oracles import make_graph, nullity_at


def _sphere_norms(chart, counts):
    pts = geo.grid_points(geo.grid_axes(chart, counts))
    return np.array([np.linalg.norm(chart.value(p)) for p in pts])


def test_veronese_lives_on_sphere():
    ver = make_veronese()
    assert ver.ambient == "sphere" and ver.ambient_dim == 5
    assert np.allclose(_sphere_norms(ver, (6, 6)), 1.0, atol=1e-12)


def test_great_and_geodesic_spheres():
    assert np.allclose(_sphere_norms(make_great_sphere(), (5, 5)), 1.0,
                       atol=1e-12)
    gs = make_geodesic_sphere()
    assert gs.domain_dim == 3 and gs.periodic == (False, False, True)
    assert np.allclose(_sphere_norms(gs, (3, 3, 5)), 1.0, atol=1e-12)
    H = nullity_at(gs, (1.0, 1.5, 0.7)).mean_curvature_norm
    # |H| = 3 cot(r), exactly 3 at r = pi/4
    assert H == pytest.approx(3.0, abs=1e-10)
    with pytest.raises(InvalidData):
        make_geodesic_sphere(radius=0.0)


def test_plane_default_pad():
    plane = make_plane()
    assert plane.ambient_dim == 5
    assert plane.name == "plane-pad3"
    assert np.allclose(plane.value((0.3, -0.7)), [0.3, -0.7, 0, 0, 0])
    with pytest.raises(InvalidData):
        make_plane(pad=0)


def test_curve_values_and_validation():
    curve = make_holomorphic_curve((1, 2))
    z = complex(0.4, -0.3)
    want = [z.real, z.imag, (z * z).real, (z * z).imag]
    assert np.allclose(curve.value((0.4, -0.3)), want, atol=1e-14)
    assert curve.name == "curve-1-2"
    padded = make_holomorphic_curve((1, 2), pad=1)
    assert padded.ambient_dim == 5 and padded.name == "curve-1-2-pad1"
    with pytest.raises(InvalidData):
        make_holomorphic_curve(())
    with pytest.raises(InvalidData):
        make_holomorphic_curve((0, 2))
    with pytest.raises(InvalidData):
        make_holomorphic_curve((1, 2), pad=-1)


def test_graph_ambient_dim():
    """The test-side quadratic graph chart: R^3, or R^4 with a second
    height."""
    assert make_graph(1.0, 0.0, 0.0).ambient_dim == 3
    assert make_graph(1.0, 0.0, 0.0, extra=(0, 1, 0)).ambient_dim == 4


def test_fixture_registry():
    assert make_fixture("veronese").name == "veronese"
    assert make_fixture("plane").ambient_dim == 5
    assert make_fixture("plane", pad=2).ambient_dim == 4
    assert make_fixture("great-sphere").name == "great-sphere"
    assert make_fixture("geodesic-sphere", radius=0.5).name.endswith("r0.5")
    assert make_fixture("curve-1-2-3").ambient_dim == 6
    assert make_fixture("curve-1-3-pad1").ambient_dim == 5
    assert make_fixture("curve-1-2", pad=1).ambient_dim == 5
    for bad in ("curve-1-x", "curve-2-padx", "torus"):
        with pytest.raises(InvalidData):
            make_fixture(bad)


def test_demo_data_identities():
    for n in (4, 5, 6, 7, 8):
        data = demo_weierstrass_data(n)
        assert data.n == n and len(data.alpha0) == n - 4
        rep = generate_surface(data)
        assert max(rep.residuals.values()) < 1e-12
    with pytest.raises(InvalidData):
        demo_weierstrass_data(9)


def test_demo_n7_seed_is_null():
    from isomin.cpoly import bilinear_dot
    data = demo_weierstrass_data(7)
    assert not bilinear_dot(data.alpha0, data.alpha0).any()


def test_random_data_deterministic():
    a = random_weierstrass_data(np.random.default_rng(11), 6)
    b = random_weierstrass_data(np.random.default_rng(11), 6)
    assert a.to_json() == b.to_json()
    c = random_weierstrass_data(np.random.default_rng(12), 6)
    assert c.to_json() != a.to_json()


def _reference_random_json(rng, n, max_degree=4):
    """The JSON of random_weierstrass_data drawn one Python complex at a
    time: for each alpha0 component, then beta1 and beta2, a degree and then
    its coefficients; the betas' constant terms pushed away from zero."""
    def poly(floor=0.0):
        deg = int(rng.integers(0, max_degree + 1))
        c = [complex(a, b) for a, b in rng.uniform(-1.0, 1.0, (deg + 1, 2))]
        if floor:
            c[0] = c[0] / max(abs(c[0]), 1e-3) * (floor + abs(c[0]))
        return [[z.real, z.imag] for z in c]
    alpha0 = [poly() for _ in range(n - 4)]
    return {"n": n, "alpha0": alpha0, "beta1": poly(0.5),
            "beta2": poly(0.5), "final_integration": True}


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_random_data_draws_the_reference_numbers(seed):
    """The random-nN fixtures do not move: the same numbers, in the same
    order, bit for bit."""
    for n in (4, 5, 6, 8):
        got = random_weierstrass_data(np.random.default_rng(seed), n)
        ref = _reference_random_json(np.random.default_rng(seed), n)
        assert got.to_json() == ref


def test_random_data_well_formed():
    rng = np.random.default_rng(3)
    for n in (4, 5, 6, 8):
        data = random_weierstrass_data(rng, n)
        assert len(data.alpha0) == n - 4
        assert data.beta1[0] != 0 and data.beta2[0] != 0
        assert max(len(data.beta1), len(data.beta2)) <= 5
    with pytest.raises(InvalidData):
        random_weierstrass_data(rng, 3)
