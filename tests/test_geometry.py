"""Flags, fundamental forms, ellipticity, curvature ellipses, isotropy."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isomin.geometry as geo
import isomin.jet as J
from isomin.bundles import relative_nullity
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            make_geodesic_sphere, make_graph,
                            make_great_sphere, make_holomorphic_curve,
                            make_plane, make_veronese,
                            random_weierstrass_data)
from isomin.errors import (DegeneratePoint, NotElliptic, OrderOutOfRange,
                           ShapeMismatch)
from isomin.weierstrass import generate_surface

import oracles


@pytest.fixture(scope="module")
def n4():
    return generate_surface(demo_weierstrass_data(4)).chart


@pytest.fixture(scope="module")
def n5():
    return generate_surface(demo_weierstrass_data(5)).chart


def test_grid_axes_semantics():
    chart = make_geodesic_sphere()
    axes = geo.grid_axes(chart, (3, 3, 4))
    # non-periodic axes include both endpoints
    assert axes[0][0] == pytest.approx(chart.domain[0][0])
    assert axes[0][-1] == pytest.approx(chart.domain[0][1])
    # the periodic fiber axis excludes the wrap point
    assert axes[2][0] == pytest.approx(0.0)
    assert axes[2][-1] == pytest.approx(2 * math.pi * 3 / 4)
    pts = geo.grid_points(axes)
    assert pts.shape == (36, 3)
    # row-major: the last coordinate varies fastest
    assert pts[1][2] > pts[0][2]


def test_metric_identity_at_origin(n4):
    G = geo.fundamental_forms(n4, (0.0, 0.0)).metric
    assert np.allclose(G, np.eye(2), atol=1e-14)


def test_metric_matches_fd_oracle(n5):
    for p in ((0.21, -0.33), (0.4, 0.1)):
        G = geo.fundamental_forms(n5, p).metric
        ref = oracles.metric_fd(n5, p)
        assert np.allclose(G, ref, rtol=1e-7, atol=1e-9)


def test_degenerate_point():
    curve = make_holomorphic_curve((2, 3))
    with pytest.raises(DegeneratePoint):
        geo.fundamental_forms(curve, (0.0, 0.0))


def test_flag_dims_n5(n5):
    flag = geo.osculating_flag(n5, (0.0, 0.0))
    assert flag.dims == (2, 2, 1)
    assert flag.tau == 2
    assert flag.tau_o == 1  # codimension 3 is odd
    assert flag.complete
    # orthonormality of the stacked flag
    Q = flag.stack()
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)


def test_flag_dims_curve():
    curve = make_holomorphic_curve((1, 2, 3))
    for p in ((1.0, 0.0), (0.3, -0.2)):
        flag = geo.osculating_flag(curve, p)
        assert flag.dims == (2, 2, 2)
        assert flag.tau == 2
        assert flag.tau_o == 2  # codimension 4 is even


def test_flag_plane_and_sphere():
    flag = geo.osculating_flag(make_plane(), (0.1, 0.2))
    assert flag.dims == (2,)
    assert flag.tau == 0
    gs = make_great_sphere()
    flag = geo.osculating_flag(gs, (0.3, 0.45))
    assert flag.dims == (2,)
    assert flag.position is not None
    # position is projected out of the flag
    assert np.max(np.abs(flag.bases[0].T @ flag.position)) < 1e-12


def test_second_form_n4(n4):
    forms = geo.fundamental_forms(n4, (0.0, 0.0))
    alpha = forms.tables[2]
    assert np.allclose(alpha[0, 0], [0, 0, 2, 0], atol=1e-12)
    assert np.allclose(alpha[0, 1], [0, 0, 0, -2], atol=1e-12)
    assert np.allclose(alpha[1, 1], [0, 0, -2, 0], atol=1e-12)


def test_second_form_matches_fd_oracle(n5):
    for p in ((0.21, -0.33), (-0.15, 0.4)):
        forms = geo.fundamental_forms(n5, p)
        ref = oracles.second_form_fd(n5, p)
        assert np.allclose(forms.tables[2], ref, rtol=1e-6, atol=1e-6)


def test_third_form_norm():
    # (z, z^2, z^3) at the origin: alpha^3(du, du, du) = d^3/du^3 projected,
    # and the only surviving component is (0, ..., 6) from z^3
    curve = make_holomorphic_curve((1, 2, 3))
    T = geo.fundamental_forms(curve, (0.0, 0.0), max_s=3).tables[3]
    assert np.linalg.norm(T[0, 0, 0]) == pytest.approx(6.0, abs=1e-10)


def test_mean_curvature_vector(n5):
    H = relative_nullity(n5, (0.2, -0.1)).mean_curvature_norm
    assert H < 1e-12
    graph = make_graph(1.0, 0.0, -0.25, extra=(0.0, 0.5, 0.0))
    H = relative_nullity(graph, (0.0, 0.0)).mean_curvature_norm
    assert H == pytest.approx(1.5, abs=1e-12)


def test_ellipticity_cases():
    # parabolic graph: alpha(Y, Y) = 0, no elliptic combination
    rep = geo.ellipticity(make_graph(1.0, 0.0, 0.0), (0.0, 0.0))
    assert not rep.exists
    # minimal graph: (1, 0, 1) in the orthonormal frame
    rep = geo.ellipticity(make_graph(1.0, 0.0, -1.0), (0.0, 0.0))
    assert rep.exists and not rep.totally_geodesic
    assert np.allclose(rep.coeffs, (1.0, 0.0, 1.0), atol=1e-12)
    # a non-minimal surface can still be elliptic
    rep = geo.ellipticity(make_graph(1.0, 0.0, -0.25, extra=(0.0, 0.5, 0.0)),
                          (0.0, 0.0))
    assert rep.exists
    assert np.allclose(rep.coeffs, (0.25, 0.0, 1.0), atol=1e-12)


def test_ellipticity_frozen_off_the_identity_metric():
    """Pins the frame convention where G != I: the tangent frame is
    Gram-Schmidt of the coordinate axes in order, so it is upper
    triangular with a positive diagonal."""
    graph = make_graph(1.0, 0.3, -0.25, extra=(0.2, 0.5, 0.1))
    rep = geo.ellipticity(graph, (0.3, -0.2))
    np.testing.assert_allclose(
        rep.coeffs, (0.3772077779841516, -0.2896059112174522, 1.0),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        rep.frame, [[0.8797691788472336, -0.07955086661053258],
                    [0.0, 0.9807225158474052]], rtol=0, atol=1e-12)


def test_ellipticity_totally_geodesic_convention():
    plane = make_plane()
    rep = geo.ellipticity(plane, (0.1, 0.1))
    assert rep.exists and rep.totally_geodesic
    assert np.allclose(rep.coeffs, (1.0, 0.0, 1.0))


def test_ellipticity_J_squares_to_minus_one(n5):
    rep = geo.ellipticity(n5, (0.3, -0.2))
    assert np.allclose(rep.J_matrix @ rep.J_matrix, -np.eye(2), atol=1e-10)


def test_minimality_iff_order0_circle():
    """The order-0 ellipse is a circle exactly at minimal points."""
    # the saddle u^2 - v^2 is minimal at the origin only
    minimal = make_graph(1.0, 0.0, -1.0)
    rep = geo.curvature_ellipse(minimal, (0.0, 0.0), 0)
    assert rep.residual < 1e-10
    bent = make_graph(1.0, 0.0, -0.25, extra=(0.0, 0.5, 0.0))
    rep = geo.curvature_ellipse(bent, (0.0, 0.0), 0)
    assert rep.residual > 1e-3


def test_first_ellipse_n4(n4):
    rep = geo.curvature_ellipse(n4, (0.0, 0.0), 1)
    assert rep.semiaxes[0] == pytest.approx(2.0, abs=1e-10)
    assert rep.semiaxes[1] == pytest.approx(2.0, abs=1e-10)
    assert rep.residual < 1e-12


def test_ellipse_ladder_n5(n5):
    # first ellipse at the origin: circle of radius 2
    rep = geo.curvature_ellipse(n5, (0.0, 0.0), 1)
    assert rep.semiaxes[0] == pytest.approx(2.0, abs=1e-10)
    assert rep.residual < 1e-12
    # the last normal space is a line, so the top ellipse degenerates
    rep2 = geo.curvature_ellipse(n5, (0.0, 0.0), 2)
    assert rep2.residual > 0.9
    with pytest.raises(OrderOutOfRange):
        geo.curvature_ellipse(n5, (0.0, 0.0), 3)
    with pytest.raises(OrderOutOfRange):
        geo.curvature_ellipse(n5, (0.0, 0.0), -1)


def test_ellipse_not_elliptic():
    with pytest.raises(NotElliptic):
        geo.curvature_ellipse(make_graph(1.0, 0.0, 0.0), (0.0, 0.0), 0)


def test_isotropy_orders(n4, n5):
    assert geo.isotropy_order(n4, (0.2, 0.3)) == 1
    assert geo.isotropy_order(n5, (0.13, 0.21)) == 1
    curve = make_holomorphic_curve((1, 2, 3))
    assert geo.isotropy_order(curve, (0.2, 0.1)) == 2
    bent = make_graph(1.0, 0.0, -0.25, extra=(0.0, 0.5, 0.0))
    assert geo.isotropy_order(bent, (0.0, 0.0)) == -1


def test_isotropy_order_two_seed():
    """Seed data built by one extra recursion step has a null alpha0, which
    buys one more circular ellipse."""
    data = demo_weierstrass_data(7)
    rep = generate_surface(data)
    assert geo.isotropy_order(rep.chart, (0.19, 0.23)) == 2


def test_point_report_rows(n5):
    row = geo.point_report(n5, (0.1, 0.2))
    assert not row["singular"]
    assert row["dims"] == [2, 2, 1]
    assert row["order"] == 1
    assert len(row["ellipses"]) == 3
    curve = make_holomorphic_curve((2, 3))
    row = geo.point_report(curve, (0.0, 0.0))
    assert row["singular"] and row["dims"] is None


def test_nicely_curved_certificate(n5):
    cert = geo.nicely_curved_certificate(n5, counts=(7, 7))
    assert cert["nicely_curved"]
    assert cert["dims"] == [2, 2, 1]
    # (z, z^3): the first normal space dies at the origin
    curve = make_holomorphic_curve((1, 3), pad=1)
    cert = geo.nicely_curved_certificate(curve, counts=(5, 5))
    assert not cert["nicely_curved"]
    assert len(cert["variants"]) > 1


def test_sphere_chart_validation():
    ver = make_veronese()
    pts = geo.grid_points(geo.grid_axes(ver, (5, 5)))
    vals = np.array([ver.value(p) for p in pts])
    assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, atol=1e-12)
    flag = geo.osculating_flag(ver, (0.1, 0.2))
    assert flag.dims == (2, 2)
    assert flag.tau_o == flag.tau == 1  # codimension in the sphere is 2


def _assert_row_matches_public_functions(chart, point):
    """A point_report row against the public functions called one by one,
    each evaluating the chart on its own."""
    row = geo.point_report(chart, point)
    flag = geo.osculating_flag(chart, point)
    forms = geo.fundamental_forms(chart, point, max_s=max(flag.tau + 1, 2))
    ellip = geo.ellipticity(chart, point, forms=forms)
    assert row["dims"] == list(flag.dims) and row["tau"] == flag.tau
    assert row["elliptic"] == ellip.exists
    if not ellip.exists:
        with pytest.raises(NotElliptic):
            geo.isotropy_order(chart, point)
        return
    assert np.allclose(row["coeffs"], ellip.coeffs, rtol=1e-12, atol=1e-12)
    assert [e["order"] for e in row["ellipses"]] == list(range(flag.tau + 1))
    for got in row["ellipses"]:
        ref = geo.curvature_ellipse(chart, point, got["order"])
        scale = max(ref.semiaxes[0], 1.0)
        assert np.allclose(got["semiaxes"], ref.semiaxes, rtol=1e-12,
                           atol=1e-12 * scale)
        assert got["residual"] == pytest.approx(ref.residual, rel=1e-12,
                                                abs=1e-12)
    assert geo.isotropy_order(chart, point) == row["order"]


@pytest.mark.parametrize("name", ["n4", "n5", "n6", "n7", "n8",
                                  "curve-1-2-3", "plane", "flat-graph"])
def test_point_report_matches_public_functions(name):
    if name == "flat-graph":
        chart = make_graph(1.0, 0.0, 0.0)  # not elliptic
    elif name.startswith("n"):
        chart = generate_surface(demo_weierstrass_data(int(name[1:]))).chart
    else:
        chart = make_fixture(name)
    for point in ((0.0, 0.0), (0.17, -0.23), (0.31, 0.12)):
        _assert_row_matches_public_functions(chart, point)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
def test_point_report_matches_public_functions_on_random_data(seed, n, frac):
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    point = tuple(lo + (hi - lo) * f for (lo, hi), f in zip(chart.domain, frac))
    assume(not geo.point_report(chart, point)["singular"])
    _assert_row_matches_public_functions(chart, point)


def test_point_report_evaluates_the_chart_once(n5, monkeypatch):
    calls = []
    real = geo.ImmersionChart.eval_jets

    def counted(chart, point, order):
        calls.append(order)
        return real(chart, point, order)

    monkeypatch.setattr(geo.ImmersionChart, "eval_jets", counted)
    for chart in (n5, make_holomorphic_curve((1, 2, 3)), make_veronese()):
        for point in ((0.1, 0.2), (-0.2, 0.05)):
            calls.clear()
            geo.point_report(chart, point)
            assert calls == [geo.DEFAULT_JET_ORDER]
            calls.clear()
            geo.isotropy_order(chart, point)
            assert calls == [geo.DEFAULT_JET_ORDER]


def test_eval_jets_needs_one_vector_jet():
    """A chart evaluates to one jet of shape (ambient_dim,); a list of
    component jets or a jet of another shape is rejected."""

    def chart_of(jet_fn):
        return geo.ImmersionChart(domain_dim=2, ambient_dim=3,
                                  ambient="euclidean", jet_fn=jet_fn,
                                  domain=((-1.0, 1.0), (-1.0, 1.0)))

    good = chart_of(lambda p, sp: J.jet_constant(
        sp, np.arange(3.0) + np.zeros((len(p), 1))))
    assert good.eval_jets((0.1, 0.2), 2).shape == (3,)
    assert np.array_equal(good.value((0.1, 0.2)), [0.0, 1.0, 2.0])
    for bad in (lambda sp: [J.jet_constant(sp, 0.0)] * 3,
                lambda sp: J.jet_constant(sp, np.zeros(2)),
                lambda sp: J.jet_constant(sp, 0.0),
                lambda sp: J.jet_constant(sp, np.zeros((3, 1)))):
        with pytest.raises(ShapeMismatch):
            chart_of(lambda p, sp: bad(sp)).eval_jets((0.1, 0.2), 2)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
def test_closed_form_ellipses_match_sampled_oracle(seed, n, frac):
    """Semiaxes, centre and residual of every ellipse at a point agree with
    the 64-sample SVD within 1e-12 of the ellipse's scale."""
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    point = tuple(lo + (hi - lo) * f for (lo, hi), f in zip(chart.domain, frac))
    row = geo.point_report(chart, point)
    assume(row["elliptic"])
    for ell in range(row["tau"] + 1):
        got = geo.curvature_ellipse(chart, point, ell)
        ref = oracles.curvature_ellipse_sampled(chart, point, ell)
        scale = max(ref.semiaxes[0], np.linalg.norm(ref.center), 1.0)
        assert np.allclose(got.semiaxes, ref.semiaxes, rtol=1e-12,
                           atol=1e-12 * scale)
        assert np.allclose(got.center, ref.center, rtol=1e-12,
                           atol=1e-12 * scale)
        assert got.residual == pytest.approx(ref.residual, rel=1e-12,
                                             abs=1e-12)
