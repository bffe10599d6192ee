"""Flags, fundamental forms, ellipticity, curvature ellipses, isotropy:
report rows of `point_rows` (one point's row through `oracles.point_row`)
and the stacked passes behind them read at one point
(`oracles.stacked_at`)."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isomin.geometry as geo
import isomin.jet as J
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            make_geodesic_sphere, make_great_sphere,
                            make_holomorphic_curve, make_plane,
                            make_veronese, random_weierstrass_data)
from isomin.errors import DegeneratePoint, InvalidData, ShapeMismatch
from isomin.weierstrass import generate_surface, surface_chart

import oracles
from oracles import make_graph, point_row, stacked_at, value_at


def _chart(name):
    """A demo surface (nN, or nN-noint without the final integration), the
    flat graph (not elliptic), the bent graph (elliptic, not minimal) or a
    catalog fixture."""
    if name == "flat-graph":
        return make_graph(1.0, 0.0, 0.0)
    if name == "bent-graph":
        return make_graph(1.0, 0.0, -0.25, extra=(0.0, 0.5, 0.0))
    if name.startswith("n"):
        return generate_surface(demo_weierstrass_data(
            int(name[1]), final_integration=not name.endswith("-noint"))).chart
    return make_fixture(name)


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
    G = stacked_at(n4, (0.0, 0.0))["G"]
    assert np.allclose(G, np.eye(2), atol=1e-14)


def test_metric_matches_fd_oracle(n5):
    for p in ((0.21, -0.33), (0.4, 0.1)):
        G = stacked_at(n5, p)["G"]
        ref = oracles.metric_fd(n5, p)
        assert np.allclose(G, ref, rtol=1e-7, atol=1e-9)


def test_degenerate_point():
    curve = make_holomorphic_curve((2, 3))
    row = point_row(curve, (0.0, 0.0))
    assert row["singular"] and row["ellipses"] == []
    jets = curve.eval_jets(np.zeros((1, 2)), 2)
    assert not geo._tangent_stage(curve, jets, geo.EPS_DEG)[0][0]


def _tangent_basis(chart, point):
    """The oracle's orthonormal basis of position (sphere charts) and
    tangent space at a point."""
    jets = chart.eval_jets(np.asarray(point, dtype=float)[None], 1)
    return oracles.position_and_tangent(chart, jets)


def test_flag_dims_n5(n5):
    row = point_row(n5, (0.0, 0.0))
    assert row["dims"] == [2, 2, 1]
    assert row["tau"] == 2
    # the rank-1 last normal space carries a segment, residual 1
    assert row["ellipses"][2]["residual"] == 1.0
    assert row["order"] == 1
    assert sum(row["dims"]) == n5.ambient_dim  # the flag is complete
    # the tangent basis and the complement Z of the tangent stage make one
    # orthonormal basis, and the normal spaces use Z up at tau: the flag
    # reads no order past tau + 1, though it may read max_s = 4
    at = stacked_at(n5, (0.0, 0.0), max_s=4)
    Q = np.concatenate([_tangent_basis(n5, (0.0, 0.0)), at["Z"]], axis=1)
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    assert sum(row["dims"][1:]) == at["Z"].shape[1]
    assert max(at["forms"]) == row["tau"] + 1


def test_flag_dims_curve():
    curve = make_holomorphic_curve((1, 2, 3))
    for p in ((1.0, 0.0), (0.3, -0.2)):
        row = point_row(curve, p)
        assert row["dims"] == [2, 2, 2]
        assert row["tau"] == 2
        assert row["order"] == row["tau"]  # circles through the top


def test_flag_plane_and_sphere():
    row = point_row(make_plane(), (0.1, 0.2))
    assert row["dims"] == [2]
    assert row["tau"] == 0
    gs = make_great_sphere()
    row = point_row(gs, (0.3, 0.45))
    assert row["dims"] == [2]
    # the complement Z of position and tangent space, which the flag
    # leaves whole, completes them to an orthonormal basis
    Z = stacked_at(gs, (0.3, 0.45), max_s=4)["Z"]
    Q = np.concatenate([_tangent_basis(gs, (0.3, 0.45)), Z], axis=1)
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    assert np.max(np.abs(Z.T @ value_at(gs, (0.3, 0.45)))) < 1e-12


def test_second_form_n4(n4):
    # the entries (alpha_uu, alpha_uv, alpha_vv)
    alpha = stacked_at(n4, (0.0, 0.0))["forms"][2]
    assert np.allclose(alpha[:, 0], [0, 0, 2, 0], atol=1e-12)
    assert np.allclose(alpha[:, 1], [0, 0, 0, -2], atol=1e-12)
    assert np.allclose(alpha[:, 2], [0, 0, -2, 0], atol=1e-12)


def test_second_form_matches_fd_oracle(n5):
    for p in ((0.21, -0.33), (-0.15, 0.4)):
        alpha = oracles.form_table(stacked_at(n5, p)["forms"][2], 2)
        ref = oracles.second_form_fd(n5, p)
        assert np.allclose(alpha, ref, rtol=1e-6, atol=1e-6)


def test_third_form_norm():
    # (z, z^2, z^3) at the origin: alpha^3(du, du, du) = d^3/du^3 projected,
    # and the only surviving component is (0, ..., 6) from z^3
    curve = make_holomorphic_curve((1, 2, 3))
    T = stacked_at(curve, (0.0, 0.0), max_s=3)["forms"][3]
    assert np.linalg.norm(T[:, 0]) == pytest.approx(6.0, abs=1e-10)


def test_mean_curvature_vector(n5):
    H = oracles.nullity_at(n5, (0.2, -0.1)).mean_curvature_norm
    assert H < 1e-12
    H = oracles.nullity_at(_chart("bent-graph"), (0, 0)).mean_curvature_norm
    assert H == pytest.approx(1.5, abs=1e-12)


def test_ellipticity_cases():
    # parabolic graph: alpha(Y, Y) = 0, no elliptic combination
    at = stacked_at(_chart("flat-graph"), (0.0, 0.0))
    assert not at["elliptic"] and np.isnan(at["coeffs"]).all()
    # minimal graph: (1, 0, 1) in the orthonormal frame
    at = stacked_at(make_graph(1.0, 0.0, -1.0), (0.0, 0.0))
    assert at["elliptic"] and not at["tg"]
    assert np.allclose(at["coeffs"], (1.0, 0.0, 1.0), atol=1e-12)
    # a non-minimal surface can still be elliptic
    row = point_row(_chart("bent-graph"), (0.0, 0.0))
    assert row["elliptic"]
    assert np.allclose(row["coeffs"], (0.25, 0.0, 1.0), atol=1e-12)


def test_ellipticity_frozen_off_the_identity_metric():
    """Pins the frame convention where G != I: the tangent frame is
    Gram-Schmidt of the coordinate axes in order, so it is upper
    triangular with a positive diagonal."""
    graph = make_graph(1.0, 0.3, -0.25, extra=(0.2, 0.5, 0.1))
    at = stacked_at(graph, (0.3, -0.2))
    np.testing.assert_allclose(
        at["coeffs"], (0.3772077779841516, -0.2896059112174522, 1.0),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        at["E"], [[0.8797691788472336, -0.07955086661053258],
                    [0.0, 0.9807225158474052]], rtol=0, atol=1e-12)


def test_ellipticity_totally_geodesic_convention():
    plane = make_plane()
    at = stacked_at(plane, (0.1, 0.1))
    assert at["elliptic"] and at["tg"]
    assert np.allclose(at["coeffs"], (1.0, 0.0, 1.0))
    assert point_row(plane, (0.1, 0.1))["coeffs"] == [1.0, 0.0, 1.0]


def test_ellipticity_J_squares_to_minus_one(n5):
    Jm = stacked_at(n5, (0.3, -0.2))["J"]
    assert np.allclose(Jm @ Jm, -np.eye(2), atol=1e-10)


def _ellipse(chart, point, ell):
    """The ellipse of order ell in the point's report row."""
    return point_row(chart, point)["ellipses"][ell]


def test_minimality_iff_order0_circle():
    """The order-0 ellipse is a circle exactly at minimal points."""
    # the saddle u^2 - v^2 is minimal at the origin only
    minimal = make_graph(1.0, 0.0, -1.0)
    assert _ellipse(minimal, (0.0, 0.0), 0)["residual"] < 1e-10
    assert _ellipse(_chart("bent-graph"), (0.0, 0.0), 0)["residual"] > 1e-3


def test_first_ellipse_n4(n4):
    e1 = _ellipse(n4, (0.0, 0.0), 1)
    assert e1["semiaxes"][0] == pytest.approx(2.0, abs=1e-10)
    assert e1["semiaxes"][1] == pytest.approx(2.0, abs=1e-10)
    assert e1["residual"] < 1e-12


def test_ellipse_ladder_n5(n5):
    row = point_row(n5, (0.0, 0.0))
    # first ellipse at the origin: circle of radius 2
    e1 = row["ellipses"][1]
    assert e1["semiaxes"][0] == pytest.approx(2.0, abs=1e-10)
    assert e1["residual"] < 1e-12
    # the last normal space is a line, so the top ellipse degenerates
    assert row["ellipses"][2]["residual"] > 0.9
    # a row holds the orders 0..tau and no other
    assert [e["order"] for e in row["ellipses"]] == [0, 1, 2] == list(
        range(row["tau"] + 1))


def test_ellipse_not_elliptic():
    row = point_row(_chart("flat-graph"), (0.0, 0.0))
    assert not row["singular"] and row["elliptic"] is False
    assert row["ellipses"] == [] and row["order"] is None


def test_isotropy_orders(n4, n5):
    assert point_row(n4, (0.2, 0.3))["order"] == 1
    assert point_row(n5, (0.13, 0.21))["order"] == 1
    curve = make_holomorphic_curve((1, 2, 3))
    assert point_row(curve, (0.2, 0.1))["order"] == 2
    assert point_row(_chart("bent-graph"), (0.0, 0.0))["order"] == -1


def test_isotropy_order_two_seed():
    """Seed data built by one extra recursion step has a null alpha0, which
    buys one more circular ellipse."""
    data = demo_weierstrass_data(7)
    rep = generate_surface(data)
    assert point_row(rep.chart, (0.19, 0.23))["order"] == 2


def test_point_report_rows(n5):
    row = point_row(n5, (0.1, 0.2))
    assert not row["singular"]
    assert row["dims"] == [2, 2, 1]
    assert row["order"] == 1
    assert len(row["ellipses"]) == 3
    curve = make_holomorphic_curve((2, 3))
    row = point_row(curve, (0.0, 0.0))
    assert row["singular"] and row["dims"] is None


def _certificate(chart, counts):
    return geo.flag_certificate(
        [r["dims"] for r in geo.point_rows(chart, _grid(chart, counts))])


def test_nicely_curved_certificate(n5):
    cert = _certificate(n5, (7, 7))
    assert cert["nicely_curved"]
    assert cert["dims"] == [2, 2, 1]
    # (z, z^3): the first normal space dies at the origin
    curve = make_holomorphic_curve((1, 3), pad=1)
    cert = _certificate(curve, (5, 5))
    assert not cert["nicely_curved"]
    assert len(cert["variants"]) > 1


def test_sphere_chart_validation():
    ver = make_veronese()
    pts = geo.grid_points(geo.grid_axes(ver, (5, 5)))
    vals = ver.eval_jets(pts, 0).value
    assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, atol=1e-12)
    row = point_row(ver, (0.1, 0.2))
    assert row["dims"] == [2, 2]
    # codimension in the sphere is 2: one normal plane, and its circle
    assert row["order"] == row["tau"] == 1


def _assert_row_matches_stacked_passes(chart, point):
    """A one-point row against its parts computed on their own: the
    dims and tau of the per-point flag loop, the stacked passes at the
    point with a flag only as deep as its tau (`stacked_at`, one chart
    evaluation of its own) and the isotropy order counted off those
    ellipses."""
    row = point_row(chart, point)
    dims, tau = oracles.flag_per_point(chart, point)
    at = stacked_at(chart, point, max_s=max(tau + 1, 2))
    assert row["dims"] == list(dims) and row["tau"] == tau
    assert row["elliptic"] == at["elliptic"]
    if not at["elliptic"]:
        assert row["ellipses"] == [] and row["order"] is None
        return
    assert np.allclose(row["coeffs"], at["coeffs"], rtol=1e-12, atol=1e-12)
    assert [e["order"] for e in row["ellipses"]] == list(range(tau + 1))
    for ell, got in enumerate(row["ellipses"]):
        semiaxes, residual = at["semiaxes"][ell], at["residuals"][ell]
        scale = max(semiaxes[0], 1.0)
        assert np.allclose(got["semiaxes"], semiaxes, rtol=1e-12,
                           atol=1e-12 * scale)
        assert got["residual"] == pytest.approx(residual, rel=1e-12,
                                                abs=1e-12)
    # the circular orders 0, 1, ... in a row, through tau
    order = -1
    for ell in range(tau + 1):
        if not at["residuals"][ell] < geo.CIRCLE_TOL:
            break
        order = ell
    assert row["order"] == order


@pytest.mark.parametrize("name", ["n4", "n5", "n6", "n7", "n8",
                                  "curve-1-2-3", "plane", "flat-graph"])
def test_point_report_matches_public_functions(name):
    chart = _chart(name)
    for point in ((0.0, 0.0), (0.17, -0.23), (0.31, 0.12)):
        _assert_row_matches_stacked_passes(chart, point)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
def test_point_report_matches_public_functions_on_random_data(seed, n, frac):
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    point = tuple(lo + (hi - lo) * f for (lo, hi), f in zip(chart.domain, frac))
    assume(not point_row(chart, point)["singular"])
    _assert_row_matches_stacked_passes(chart, point)


def test_point_report_evaluates_the_chart_once(n5, monkeypatch):
    """One chart evaluation per row, at the order that reads the whole
    flag: the codimension + 1 for n5 in R^5 (3 + 1) and veronese in S^4
    (2 + 1), deg F for curve-1-2-3 (codimension 4, but no partial above
    the 3rd)."""
    calls = []
    real = geo.ImmersionChart.eval_jets

    def counted(chart, point, order):
        calls.append(order)
        return real(chart, point, order)

    monkeypatch.setattr(geo.ImmersionChart, "eval_jets", counted)
    for chart, order in ((n5, 4), (make_holomorphic_curve((1, 2, 3)), 3),
                         (make_veronese(), 3)):
        assert geo._flag_depth(chart) + 1 == order
        for point in ((0.1, 0.2), (-0.2, 0.05)):
            calls.clear()
            point_row(chart, point)
            assert calls == [order]


def test_point_rows_reads_each_order_once(monkeypatch):
    """One `point_rows` call reads the partials of each order the flag
    reads once: the forms are the flag's own reads. The flag of n8 in R^8
    reads s = 1..top + 2 (depth 6 allows s = 7): no row's flag spans R^8
    (dims [2, 2, 1, 1, 1] or [2, 2, 2, 1]), so the flag ends where order
    top + 2 has rank 0 at every row."""
    n8 = _chart("n8")
    calls = []
    real = J.jet_partials

    def counted(a, s=1, axis=0):
        calls.append(s)
        return real(a, s, axis)

    monkeypatch.setattr(J, "jet_partials", counted)
    rows = geo.point_rows(n8, _grid(n8))
    top = max(row["tau"] for row in rows)
    assert top == 4
    assert calls == list(range(1, top + 3))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(powers=st.sets(st.integers(1, 10), min_size=1, max_size=6),
       pad=st.integers(0, 2))
def test_curve_flags_read_to_their_end(powers, pad):
    """On the default grid of curve-P1-...-Pk, k <= 6 distinct powers,
    every point off z = 0 reads the dims and isotropy order of the rule
    `oracles.holomorphic_curve_flag`, [2] * k and k - 1, however deep; and
    zero padding changes no row's dims, tau or order."""
    name = "curve-" + "-".join(str(p) for p in sorted(powers))
    chart = make_fixture(name + (f"-pad{pad}" if pad else ""))
    dims, order = oracles.holomorphic_curve_flag(powers)
    points = _grid(chart)
    rows = geo.point_rows(chart, points)
    plain = rows if not pad else geo.point_rows(make_fixture(name), points)
    for row, same in zip(rows, plain):
        assert ([row[k] for k in ("dims", "tau", "order")]
                == [same[k] for k in ("dims", "tau", "order")])
        if row["point"] != [0.0, 0.0]:
            assert (row["dims"], row["order"]) == (list(dims), order), \
                f"{chart.name} at {row['point']}"


def test_point_rows_multiply_no_jets(monkeypatch):
    """A sweep reads its deep flag off the chart's jets and multiplies none
    of them, so no product table of the deep space is built."""
    def no_product(a, b):
        raise AssertionError("a sweep multiplied jets")

    monkeypatch.setattr(J, "jet_mul", no_product)
    chart = make_fixture("curve-1-2-3-4-5")
    assert [r["tau"] for r in geo.point_rows(chart, _grid(chart))] == [4] * 81


def test_default_depth_reads_the_whole_flag():
    """Charts whose flag is deeper than 3 read it to its end: the six
    planes of random-n12 (seed 0) in R^12, and the per-point flag, which
    reads through the codimension, agrees."""
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(0), 12)).chart
    for point in ((0.0, 0.0), (0.3, -0.2)):
        row = point_row(chart, point)
        assert row["dims"] == [2] * 6 and row["tau"] == 5
        assert oracles.flag_per_point(chart, point) == ((2,) * 6, 5)


@pytest.mark.parametrize("top", [14, 20])
def test_deep_curve_rows_read_the_rule_or_carry_a_note(top):
    """On the default grid of curve-1-2-...-top the flag is conditioned
    worse the deeper it reads and the larger |z|: every row off z = 0
    reads the rule of `oracles.holomorphic_curve_flag` or carries the note
    `geo.UNRESOLVED`, so no row reads wrong dims or a wrong order without
    it. Through power 14 every row reads the rule with no note; through
    power 20 some rows are unresolved."""
    powers = range(1, top + 1)
    chart = make_fixture("curve-" + "-".join(map(str, powers)))
    dims, order = oracles.holomorphic_curve_flag(powers)
    rows = geo.point_rows(chart, _grid(chart))
    noted = [r for r in rows if "note" in r]
    assert all(r["note"] == geo.UNRESOLVED for r in noted)
    for row in rows:
        if row["point"] != [0.0, 0.0] and "note" not in row:
            assert (row["dims"], row["order"]) == (list(dims), order), \
                f"{chart.name} at {row['point']}"
    assert (len(noted) > 0) == (top > 14)


def test_order_stays_within_tau():
    """The order reads residuals through each row's tau only, whatever the
    circle tolerance: at tol 2 every residual (at most 1) is circular, and
    each elliptic row of n8 reads order tau, 3 or 4, never beyond it."""
    n8 = _chart("n8")
    rows = geo.point_rows(n8, _grid(n8), tol=2.0)
    assert {(r["tau"], r["order"]) for r in rows} == {(3, 3), (4, 4)}


def test_point_rows_checks_the_shape_of_its_points(n5):
    """Points are (P, 2), one point a batch of one; an empty batch gives no
    rows, and any other shape, one point (2,) included, is rejected, never
    re-read as pairs."""
    assert geo.point_rows(n5, np.zeros((0, 2))) == []
    for bad in ([[0.1, 0.3, 0.2], [0.2, 0.1, 0.3]], (0.1, 0.2, 0.3),
                (0.1, 0.2), np.zeros((2, 2, 2))):
        with pytest.raises(ShapeMismatch):
            geo.point_rows(n5, bad)


def test_eval_jets_needs_one_vector_jet():
    """A chart evaluates points (P, 2) to one jet of shape (P, ambient_dim);
    a list of component jets or a jet of another shape is rejected, and so
    is one point (2,) or any other shape of points."""

    def chart_of(jet_fn):
        return geo.ImmersionChart(domain_dim=2, ambient_dim=3,
                                  ambient="euclidean", jet_fn=jet_fn,
                                  domain=((-1.0, 1.0), (-1.0, 1.0)))

    good = chart_of(lambda p, sp: J.jet_constant(
        sp, np.arange(3.0) + np.zeros((len(p), 1))))
    assert good.eval_jets([(0.1, 0.2)], 2).shape == (1, 3)
    assert np.array_equal(value_at(good, (0.1, 0.2)), [0.0, 1.0, 2.0])
    for bad in (lambda sp: [J.jet_constant(sp, 0.0)] * 3,
                lambda sp: J.jet_constant(sp, np.zeros(2)),
                lambda sp: J.jet_constant(sp, 0.0),
                lambda sp: J.jet_constant(sp, np.zeros((3, 1)))):
        with pytest.raises(ShapeMismatch):
            chart_of(lambda p, sp: bad(sp)).eval_jets([(0.1, 0.2)], 2)
    for points in ((0.1, 0.2), np.zeros((2, 3)), np.zeros((1, 1, 2))):
        with pytest.raises(ShapeMismatch, match="chart needs"):
            good.eval_jets(points, 2)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
def test_closed_form_ellipses_match_sampled_oracle(seed, n, frac):
    """Semiaxes and residual of every ellipse of a point's report row
    agree with the 64-sample SVD within 1e-12 of the ellipse's scale."""
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    point = tuple(lo + (hi - lo) * f for (lo, hi), f in zip(chart.domain, frac))
    row = point_row(chart, point)
    assume(row["elliptic"])
    _assert_ellipses_match_sampled_oracle(chart, point, row)


@pytest.mark.parametrize("name, point, tau", [
    ("curve-1-2-3-4-5", (0.0, 0.0), 4), ("curve-1-2-3-4-5", (0.3, -0.2), 4),
    # a rank-1 last level at v = 0: its ellipse is a segment
    ("n8", (0.3, 0.0), 4), ("n8", (0.17, -0.23), 3)])
def test_closed_form_deep_ellipses_match_sampled_oracle(name, point, tau):
    """The sampled-oracle check of every ellipse at flag depth 5, through
    the 5th form: curve-1-2-3-4-5 (the 5th with semiaxis 120) and n8."""
    chart = _chart(name)
    row = point_row(chart, point, max_order=5)
    assert row["elliptic"] and row["tau"] == tau
    _assert_ellipses_match_sampled_oracle(chart, point, row)


def _assert_ellipses_match_sampled_oracle(chart, point, row):
    for ell, got in enumerate(row["ellipses"]):
        ref = oracles.curvature_ellipse_sampled(chart, point, ell)
        scale = max(ref.semiaxes[0], np.linalg.norm(ref.center), 1.0)
        assert np.allclose(got["semiaxes"], ref.semiaxes, rtol=1e-12,
                           atol=1e-12 * scale)
        assert got["residual"] == pytest.approx(ref.residual, rel=1e-12,
                                                abs=1e-12)


def _assert_rows_match_single_points(chart, points, max_order=None):
    """point_rows over a batch against the one-point row at each point,
    exactly, as JSON text: a row does not depend on its batch. Also the dims
    and tau of each row against the per-point flag oracle."""
    rows = geo.point_rows(chart, points, max_order=max_order)
    assert len(rows) == len(points)
    for p, row in zip(points, rows):
        single = point_row(chart, p, max_order=max_order)
        assert (json.dumps(row, sort_keys=True, allow_nan=False)
                == json.dumps(single, sort_keys=True, allow_nan=False)), \
            f"{chart.name} at {tuple(p)}"
        try:
            dims, tau = oracles.flag_per_point(chart, p, max_order=max_order)
        except DegeneratePoint:
            assert row["singular"]
        else:
            assert (row["dims"], row["tau"]) == (list(dims), tau)
    return rows


def _grid(chart, counts=(9, 9), ranges=None):
    return geo.grid_points(geo.grid_axes(chart, counts, ranges))


@pytest.mark.parametrize("name, max_order", [
    ("n4", None), ("n5", None), ("n6", None), ("n7", None), ("n8", None),
    ("curve-1-2-3", None), ("curve-1-2-3-4-5", None), ("curve-2-3", None),
    ("curve-1-3-pad1", None), ("veronese", None),
    ("great-sphere", None), ("plane", None), ("flat-graph", None),
    ("n7", 1)])
def test_point_rows_match_single_points(name, max_order):
    """One batched sweep gives each point's one-point row; the per-point
    rank mask gives the flag of the per-point loop, also where dims vary
    over the grid (n6, n8), at a singular point (curve-2-3 at z = 0), where
    the flag stops early at one point of the batch (curve-1-3-pad1 at z = 0:
    rank 0 at order 2, rank 2 at order 3) and where the flag is censored (n7
    at max_order 1). Every rank and circularity decision there lies well
    away from its threshold: no row has a note."""
    ranges = None
    chart = _chart(name)
    if name.startswith("curve-") and name != "curve-1-2-3":
        ranges = ((-0.5, 0.5), (-0.5, 0.5))  # through z = 0
    rows = _assert_rows_match_single_points(
        chart, _grid(chart, (9, 9), ranges), max_order)
    kinds = {tuple(r["dims"]) for r in rows if not r["singular"]}
    singular = sum(r["singular"] for r in rows)
    assert (singular == 1) == (name == "curve-2-3")
    assert (len(kinds) > 1) == (name in ("n6", "n8", "curve-1-3-pad1"))
    assert not [r for r in rows if "note" in r]
    if name == "flat-graph":
        assert not any(r["elliptic"] for r in rows)
    if max_order == 1:
        assert kinds == {(2, 2)}


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       counts=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_point_rows_match_single_points_on_random_data(seed, n, counts):
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    _assert_rows_match_single_points(chart, _grid(chart, counts))


def test_triangular_frame_is_the_metric_gram_schmidt():
    """Read off the R factor of the ambient vectors F^T B, the frame B E is
    the Gram-Schmidt of B in the metric F F^T, the oracle's Cholesky
    frame. A rank-deficient B, whose R has a zero on its diagonal, gives
    a NaN frame and a false mask in its own row only; every other row
    equals its frame computed alone."""
    rng = np.random.default_rng(3)
    F = rng.standard_normal((5, 3, 6))
    B = rng.standard_normal((5, 3, 3))
    B[2, :, 1] = 0.0
    R = np.linalg.qr(F.mT @ B, mode="r")
    assert R[2, 1, 1] == 0.0
    E, ok = geo._triangular_frame(R)
    assert ok.tolist() == [True, True, False, True, True]
    assert np.isnan(E[2]).all()
    ref, ref_ok = oracles.metric_frame(F @ F.mT, B)
    for i in (0, 1, 3, 4):
        assert ref_ok[i]
        np.testing.assert_allclose(B[i] @ E[i], ref[i], rtol=0, atol=1e-13)
        alone, alone_ok = geo._triangular_frame(R[i])
        assert alone_ok and np.array_equal(E[i], alone)
    alone, alone_ok = geo._triangular_frame(R[2])
    assert not alone_ok and np.isnan(alone).all()


FLOOR_MARGIN = 1e-13  # relative to |G|_2 + |eps_deg|


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]),
       eps_deg=st.sampled_from([geo.EPS_DEG, 1e-3, 1.0, 1e3, -1.0]),
       log_scale=st.floats(-12.0, 6.0))
def test_metric_floor_decides_as_the_least_eigenvalue(seed, m, eps_deg,
                                                      log_scale):
    """The LDL^T pivots of G - eps_deg I decide the metric floor as the
    least eigenvalue of `eigvalsh` does, on every row whose least
    eigenvalue is off eps_deg by more than FLOOR_MARGIN (|G|_2 + |eps_deg|);
    the stacks put the least eigenvalue at gaps from 1e-17 to 1 of that
    scale on both sides of eps_deg, so rows inside the margin occur and
    are the only ones left unchecked. A row's mask does not depend on its
    batch."""
    rng = np.random.default_rng(seed)
    n, scale = 64, 10.0 ** log_scale
    Q, _ = np.linalg.qr(rng.standard_normal((n, m, m)))
    gap = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17, 0, n)
           * (scale + abs(eps_deg)))
    lam = eps_deg + gap[:, None] + np.concatenate(
        [np.zeros((n, 1)), rng.uniform(0.0, scale, (n, m - 1))], axis=1)
    G = Q @ (lam[..., None] * Q.mT)
    ok = geo._above_floor(G, eps_deg)
    ref = oracles.metric_floor_eigvalsh(G, eps_deg)
    w = np.linalg.eigvalsh(G)
    decided = (np.abs(w[:, 0] - eps_deg)
               > FLOOR_MARGIN * (np.abs(w).max(axis=1) + abs(eps_deg)))
    assert decided.sum() > n // 2
    assert ok[decided].tolist() == ref[decided].tolist()
    oracles.assert_rows_alone_match(
        lambda a: geo._above_floor(a, eps_deg), G, ok)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]))
def test_back_substituted_frame_matches_the_inverse(seed, m):
    """The back-substituted inverse of signed upper-triangular stacks,
    whose diagonals span two decades with either sign, matches
    `np.linalg.inv` within 1e-13 relative to the row's largest entry; a
    row with a zero, NaN or infinite diagonal entry is NaN with a false
    mask, as in the reference. Each row has the same bits alone, in a
    stack of one or with no leading axis, as in its batch."""
    rng = np.random.default_rng(seed)
    n = 64
    R = np.triu(rng.standard_normal((n, m, m)))
    R[:, range(m), range(m)] = (rng.choice([-1.0, 1.0], (n, m))
                                * 10.0 ** rng.uniform(-1, 1, (n, m)))
    R[0, m - 1, m - 1] = 0.0
    R[1, 0, 0] = np.nan
    R[2, 1, 1] = -np.inf
    E, ok = geo._triangular_frame(R)
    ref, ref_ok = oracles.triangular_frame_inv(R)
    assert ok.tolist() == ref_ok.tolist() == [False] * 3 + [True] * (n - 3)
    assert np.isnan(E[:3]).all()
    big = np.abs(ref[ok]).max(axis=(1, 2))[:, None, None]
    assert (np.abs(E[ok] - ref[ok]) <= 1e-13 * big).all()
    oracles.assert_rows_alone_match(geo._triangular_frame, R, (E, ok))
    for i in range(n):
        alone, alone_ok = geo._triangular_frame(R[i])
        assert alone.tobytes() == E[i].tobytes() and alone_ok == ok[i]


def test_point_without_metric_frame_is_singular_in_its_batch():
    """With the eigenvalue floor off (eps_deg < 0), the vanishing metric of
    curve-2-3 at z = 0 reaches the Cholesky factorization and fails it:
    that row reads singular, as under the floor, and the batch around it
    is unchanged."""
    chart = make_fixture("curve-2-3")
    pts = _grid(chart, (9, 9), ((-0.5, 0.5), (-0.5, 0.5)))
    rows = geo.point_rows(chart, pts, eps_deg=-1.0)
    assert [r["singular"] for r in rows].count(True) == 1
    assert rows[40]["singular"] and rows[40]["point"] == [0.0, 0.0]
    assert rows == geo.point_rows(chart, pts)


def _point_row_texts(chart, points) -> list[str]:
    return [json.dumps(r, sort_keys=True, allow_nan=False)
            for r in geo.point_rows(chart, points)]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       frac=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
       half=st.floats(0.01, 0.4),
       counts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       data=st.data())
def test_point_rows_do_not_depend_on_their_batch(seed, n, frac, half, counts,
                                                 data):
    """The JSON text of every row of a surface sweep equals its one-point
    row, and the rows of any split of the points into sub-batches, and of
    any permutation of them, are the same text."""
    chart = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    centre = [lo + (hi - lo) * f for (lo, hi), f in zip(chart.domain, frac)]
    points = _grid(chart, counts, [(c - half, c + half) for c in centre])
    rows = _point_row_texts(chart, points)
    assert rows == [_point_row_texts(chart, p[None])[0] for p in points]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(points) - 1),
                                    max_size=3))) if len(points) > 1 else []
    parts = np.split(points, cuts)
    assert rows == [t for part in parts for t in _point_row_texts(chart, part)]
    order = data.draw(st.permutations(range(len(points))))
    assert [rows[i] for i in order] == _point_row_texts(chart, points[order])


def _isotropy_probe(row):
    """What the one-point bipolar probe (`oracles.isotropy_probe`) reads
    off a row: the order when it is below 1, True when it is not, or why
    there is none."""
    if row["singular"]:
        return "singular"
    if not row["elliptic"]:
        return "not elliptic"
    return row["order"] if row["order"] < 1 else True


def _spot_check(row):
    """What a spot check of `generate` reads off a one-point row."""
    return (row["singular"], row["elliptic"],
            [e["residual"] for e in row["ellipses"][:2]])


def _assert_shallow_flags_agree(chart):
    centre = tuple((lo + hi) / 2.0 for lo, hi in chart.domain)
    points = np.array([centre] + list(_grid(chart, (3, 3))))
    for p, row, two, one in zip(
            points, geo.point_rows(chart, points),
            geo.point_rows(chart, points, max_order=2),
            geo.point_rows(chart, points, max_order=1)):
        assert _isotropy_probe(two) == _isotropy_probe(row), \
            f"{chart.name} at {tuple(p)}"
        assert _spot_check(one) == _spot_check(row), \
            f"{chart.name} at {tuple(p)}"


@pytest.mark.parametrize("name", [
    "n4", "n5", "n6", "n7", "n8", "veronese", "plane", "great-sphere",
    "curve-1-2-3", "curve-2-3", "curve-1-3-pad1", "curve-1-2-pad1",
    "curve-2-3-pad1", "bent-graph", "flat-graph", "n4-noint", "n5-noint",
    "n6-noint", "n7-noint", "n8-noint"])
def test_depth_two_isotropy_probe_agrees_with_the_default_depth(name):
    """A flag of depth 2 decides the ellipses of orders 0 and 1, so the
    probe of `oracles.isotropy_probe`, at max_order 2, gives the same
    order < 1 verdict, the same order below 1 and the same singular or
    non-elliptic row as the default depth, at the domain centre and on a
    3x3 grid of each fixture. The outcomes seen: order at least 1 (the
    generated surfaces, veronese, the curves off z = 0), order 0 (plane,
    great-sphere, curve-1-3-pad1 at z = 0, the surfaces without the final
    integration), singular
    (curve-2-3 and curve-2-3-pad1 at z = 0), -1 (the bent graph, not
    minimal) and not elliptic (the flat graph). The residuals of those two
    ellipses, which the spot checks of `generate` read at max_order 1, are
    those of the default depth exactly: the order-1 ellipse is the second
    form projected off position and tangent space."""
    _assert_shallow_flags_agree(_chart(name))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8))
def test_depth_two_isotropy_probe_agrees_on_random_surfaces(seed, n):
    _assert_shallow_flags_agree(generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart)


@pytest.mark.parametrize("max_order", [0, -1])
def test_flag_depth_below_one_is_invalid_data(max_order):
    """A flag needs at least the first normal space: a depth below 1 is
    malformed input, raised before the chart is evaluated."""
    def jet_fn(points, space):
        raise AssertionError("the chart was evaluated")

    chart = geo.ImmersionChart(domain_dim=2, ambient_dim=3,
                               ambient="euclidean", jet_fn=jet_fn,
                               domain=((0.0, 1.0),) * 2, name="unused")
    with pytest.raises(InvalidData, match="flag depth must be at least 1"):
        geo.point_rows(chart, [(0.5, 0.5)], max_order=max_order)


_FIXTURES = ["curve-1-2-3", "curve-1-2-3-4-5", "curve-2-3", "curve-1-3-pad1",
             "curve-1-2-pad1", "curve-2-3-pad1", "veronese"]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(source=st.integers(4, 8) | st.sampled_from(_FIXTURES),
       seed=st.integers(0, 2**32 - 1),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
def test_flag_read_in_its_complement_matches_double_projection(source, seed,
                                                               frac):
    """At a random regular point of random Weierstrass data (n = 4..8), of
    a curve fixture or of the Veronese surface (a sphere chart), the
    tangent stage's complement Z has orthonormal columns orthogonal to
    position and the first partials, and at every order the flag reads,
    the singular values of its form in the narrowing complement equal
    those of the partials projected twice off the flag so far
    (`oracles.flag_levels_per_point`), within 1e-12 of the scale."""
    chart = (make_fixture(source) if isinstance(source, str)
             else generate_surface(random_weierstrass_data(
                 np.random.default_rng(seed), source)).chart)
    point = np.array([lo + (hi - lo) * f
                      for (lo, hi), f in zip(chart.domain, frac)])
    depth = geo._flag_depth(chart)
    jets = chart.eval_jets(point[None], depth + 1)
    regular, P1, _, Z = geo._tangent_stage(chart, jets, geo.EPS_DEG)
    assume(regular[0])
    P1, Z = P1[0], Z[0]
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() < 1e-13
    assert (np.abs(Z.T @ P1).max()
            < 1e-13 * max(np.linalg.norm(P1, axis=0).max(), 1.0))
    if chart.ambient == "sphere":
        assert np.abs(Z.T @ value_at(chart, point)).max() < 1e-13
    forms = geo._flag_pass(chart, jets, depth, geo.EPS_RANK, geo.EPS_DEG)[3]
    dims, svs, scales = oracles.flag_levels_per_point(chart, point, depth)
    assert len(dims) <= max(forms) <= max(svs)
    for s in range(2, max(forms) + 1):
        got = np.linalg.svd(forms[s][0], compute_uv=False)
        ref = svs[s]
        tol = 1e-12 * max(scales[s], 1.0)
        assert np.abs(got - ref[:len(got)]).max(initial=0.0) < tol, s
        assert np.abs(ref[len(got):]).max(initial=0.0) < tol, s


def test_chart_without_room_for_its_tangent_plane_is_singular():
    """A surface chart into R^1 has no room for its tangent plane: every
    row of a batch reads singular, as in a chart with room whose metric
    degenerates everywhere."""
    chart = surface_chart(np.array([[0.0, 1.0, 0.5]], dtype=complex))
    rows = geo.point_rows(chart, _grid(chart, (2, 2)))
    assert [r["singular"] for r in rows] == [True] * 4
