"""Bipolar and polar charts, nullity, splitting tensor."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isomin.cpoly as cp
import isomin.geometry as geo
import isomin.jet as J
from isomin.bundles import (_form_singular_values, _nullity_field,
                            _pivoted_frame, _splitting_scalars,
                            sweep_and_split,
                            unit_normal_chart, unit_tangent_chart)
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            make_geodesic_sphere, make_great_sphere,
                            make_plane, make_veronese,
                            random_weierstrass_data)
from isomin.errors import (DegeneratePoint, FlagCollapse, InvalidData,
                           IsominError, ShapeMismatch)
from isomin.geometry import ImmersionChart
from isomin.weierstrass import (NULL_TOL, generate_surface, null_residual,
                                surface_chart)

from oracles import (assert_rows_alone_match, bundle_jets_three_variable,
                     form_singular_values_svd, isotropy_probe, make_graph,
                     nullity_at, nullity_fd, pivoted_frame_one_at_a_time,
                     point_row, splitting_fd, splitting_scalars_from_metric,
                     stacked_at, unit_normal_check_full)


@pytest.fixture(scope="module")
def n5base():
    return generate_surface(demo_weierstrass_data(5)).chart


@pytest.fixture(scope="module")
def bipolar_n5(n5base):
    return unit_tangent_chart(n5base)


@pytest.fixture(scope="module")
def polar_ver():
    return unit_normal_chart(make_veronese())


def _random_bipolar(seed, n):
    """The unit tangent chart of the surface of seeded random data."""
    return unit_tangent_chart(generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart)


def _sweep_rows(chart, points, **eps) -> list[dict]:
    return sweep_and_split(chart, points, [], **eps)[0]


def _split_row(chart, point) -> dict:
    """The splitting row of one point, with no sweep next to it."""
    return sweep_and_split(chart, [], [point])[1][0]


def test_unit_tangent_frozen_value(bipolar_n5):
    # over the origin the frame is constant along the fiber
    for th in (0.0, 0.3, 2.0):
        val = bipolar_n5.chart.value((0.0, 0.0, th))
        want = [math.cos(th), -math.sin(th), 0.0, 0.0, 0.0]
        assert np.allclose(val, want, atol=1e-12)


def test_unit_tangent_values_on_sphere(bipolar_n5):
    c = bipolar_n5.chart
    assert c.ambient == "sphere"
    assert c.periodic == (False, False, True)
    assert c.domain[2] == (0.0, 2.0 * math.pi)
    pts = geo.grid_points(geo.grid_axes(c, (3, 3, 5)))
    vals = np.array([c.value(p) for p in pts])
    assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, atol=1e-12)


def test_pivot_order_is_a_gauge_choice(n5base, bipolar_n5):
    """Swapping the pivot rotates each fiber circle but keeps its image."""
    other = unit_tangent_chart(n5base, pivot_order=(1, 0))
    p = (0.2, -0.1)
    e1 = bipolar_n5.chart.value((*p, 0.0))
    e2 = bipolar_n5.chart.value((*p, math.pi / 2.0))
    w = other.chart.value((*p, 0.7))
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    resid = w - (w @ e1) * e1 - (w @ e2) * e2
    assert np.linalg.norm(resid) < 1e-10
    with pytest.raises(InvalidData):
        unit_tangent_chart(n5base, pivot_order=(0, 0))


def _gram_schmidt_values(vectors):
    """Orthonormal vectors from the given ones in order, by Gram-Schmidt."""
    out = []
    for v in vectors:
        for b in out:
            v = v - (v @ b) * b
        out.append(v / np.linalg.norm(v))
    return out


def test_pivoted_frame_takes_a_later_candidate_where_one_is_rejected():
    """The frame builder takes, per point, the first two accepted
    candidates of the last level, which must span a plane. Random order-2
    jets at six points, with a position-like first level p and a last
    level (c0, c1, c2): at point 0, c2 is a combination of p, c0 and c1,
    and the frame is (c0, c1); at points 1 and 2, c0 is a multiple of p, so
    it is rejected against the lower level and the frame is (c1, c2); at
    point 3, c1 is a multiple of c0, so it is rejected against its own
    level and the frame is (c0, c2); at point 4 both happen and only c1
    is left; at point 5, p is zero, so the first level is not whole. The
    directions and the mask match the one-candidate-at-a-time reference,
    and at each framed point the values of the directions are the
    Gram-Schmidt of p and the candidates taken. A single level of two
    candidates (the unit tangent frame) is masked where its second
    candidate is a multiple of the first."""
    rng = np.random.default_rng(19)
    sp = J.get_space(2, 2)
    p = J.Jet(sp, rng.standard_normal((1, 6, 5, sp.size)))
    c = J.Jet(sp, rng.standard_normal((3, 6, 5, sp.size)))
    c.coeffs[0, [1, 2, 4]] = 2.5 * p.coeffs[0, [1, 2, 4]]
    c.coeffs[1, 3] = -1.5 * c.coeffs[0, 3]
    c.coeffs[2, 4] = 0.5 * c.coeffs[1, 4]
    c.coeffs[2, 0] = (c.coeffs[0, 0] - 0.3 * c.coeffs[1, 0]
                      + 2.0 * p.coeffs[0, 0])
    p.coeffs[0, 5] = 0.0
    picks = {0: (0, 1), 1: (1, 2), 2: (1, 2), 3: (0, 2)}
    e1, e2, ok = _pivoted_frame([p, c], geo.EPS_RANK)
    r1, r2, rok = pivoted_frame_one_at_a_time([p, c], geo.EPS_RANK)
    assert ok.tolist() == rok.tolist() == [True] * 4 + [False] * 2
    for got, ref in ((e1, r1), (e2, r2)):
        np.testing.assert_allclose(got.coeffs[ok], ref.coeffs[ok],
                                   rtol=0, atol=1e-13)
    for q, (i, j) in picks.items():
        _, f1, f2 = _gram_schmidt_values([p.value[0, q], c.value[i, q],
                                          c.value[j, q]])
        np.testing.assert_allclose(e1.value[q], f1, rtol=0, atol=1e-13)
        np.testing.assert_allclose(e2.value[q], f2, rtol=0, atol=1e-13)
    pair = J.jet_stack([c[0], c[0] * 0.5 + 1e-3 * c[2]])
    pair.coeffs[1, 2] = 3.0 * pair.coeffs[0, 2]
    e1, e2, ok = _pivoted_frame([pair], geo.EPS_RANK)
    r1, r2, rok = pivoted_frame_one_at_a_time([pair], geo.EPS_RANK)
    assert ok.tolist() == rok.tolist() == [True, True, False, True, True,
                                           True]
    for got, ref in ((e1, r1), (e2, r2)):
        np.testing.assert_allclose(got.coeffs[ok], ref.coeffs[ok],
                                   rtol=0, atol=1e-13)


def test_unit_tangent_base_validation(n5base):
    with pytest.raises(InvalidData, match="zero-pad"):
        unit_tangent_chart(make_fixture("curve-1-2"))
    with pytest.raises(InvalidData):
        unit_tangent_chart(make_veronese())
    with pytest.raises(ShapeMismatch):
        unit_tangent_chart(make_geodesic_sphere())


def test_bipolar_minimal_with_nullity_one(bipolar_n5):
    for p in ((0.1, 0.2, 0.7), (-0.3, 0.15, 3.9)):
        rep = nullity_at(bipolar_n5.chart, p)
        assert rep.mean_curvature_norm < 1e-8
        assert rep.nu == 1 and not rep.totally_geodesic
        assert rep.singular_values[-1] < 1e-8
        assert rep.singular_values[1] > 1e-3
        assert rep.kernel.shape == (3, 1)


def test_oracle_nullity_line_is_the_fiber(bipolar_n5):
    """The kernel of the oracle's nullity pass (`nullity_at`) on the bipolar
    chart is the fiber direction: its metric alignment with d_theta is 1,
    as the splitting rows find for the package's nullity field
    (`test_nullity_leaves_are_the_fiber_circles`)."""
    p = (0.1, 0.2, 0.7)
    rep = nullity_at(bipolar_n5.chart, p)
    G = stacked_at(bipolar_n5.chart, p)["G"]
    T = rep.kernel[:, 0]
    T = T / math.sqrt(float(T @ G @ T))
    align = abs(float(T @ G @ np.array([0.0, 0.0, 1.0]))) / math.sqrt(G[2, 2])
    assert align == pytest.approx(1.0, abs=1e-8)


def test_totally_geodesic_bundle_agreement():
    """Flag test on the base and nullity test on the bundle agree."""
    tg_base = make_fixture("curve-1-2-pad1")
    curved_base = make_fixture("curve-1-2-3")
    rng = np.random.default_rng(7)
    for _ in range(6):
        u, v = rng.uniform(0.1, 0.8, size=2)
        th = rng.uniform(0.0, 2.0 * math.pi)
        # no second normal space on the base
        flag_says = point_row(tg_base, (u, v), max_order=2)["tau"] < 2
        rep = nullity_at(unit_tangent_chart(tg_base).chart, (u, v, th))
        assert flag_says and rep.totally_geodesic and rep.nu == 3
        flag_says = point_row(curved_base, (u, v),
                                     max_order=2)["tau"] < 2
        rep = nullity_at(unit_tangent_chart(curved_base).chart, (u, v, th))
        assert not flag_says and not rep.totally_geodesic and rep.nu == 1


def test_plane_bundle_everywhere_singular():
    bc = unit_tangent_chart(make_plane())
    with pytest.raises(DegeneratePoint):
        nullity_at(bc.chart, (0.1, 0.2, 0.5))
    row = _sweep_rows(bc.chart, [(0.1, 0.2, 0.5)])[0]
    assert row["singular"] and row["H"] is None


def test_totally_geodesic_base_keeps_an_isotropy_note():
    """The plane's phi' is the zero polynomial (no column at all): isotropy
    order 0, noted without a residual."""
    base = make_plane()
    assert cp.poly_diff(cp.poly_diff(base.curve)).shape == (5, 0)
    assert unit_tangent_chart(base).notes == [
        "base isotropy order 0 < 1: phi' = 0, the base is totally "
        "geodesic; the unit tangent chart need not be minimal"]


def test_base_without_a_curve_cannot_be_verified(n5base):
    """A base chart that is not built from a polynomial curve (the n5 base
    moved rigidly) still gives its chart, with a note."""
    moved = _moved(n5base, np.eye(5), np.zeros(5))
    assert moved.curve is None
    bc = unit_tangent_chart(moved)
    assert bc.notes == ["could not verify base isotropy: the base chart has "
                        "no polynomial curve"]
    assert np.isfinite(bc.chart.value((0.1, 0.2, 0.7))).all()


@pytest.mark.parametrize("scale, residual", [(1e200, "nan"), (1.0, "2")])
def test_failing_rung_names_its_residual_and_bound(scale, residual):
    """F = (z^2, z^2, 0, 0, 0) s: <phi, phi> = 8 s^2 z^2 fails rung 0,
    relative residual 8 s^2 / (2 s)^2 = 2; the phi' rung is not read. The
    product of coefficients 2e200 overflows, silently, even where
    overflows raise, and the residual is not finite."""
    curve = np.zeros((5, 3), dtype=complex)
    curve[:2, 2] = scale
    with np.errstate(over="raise"):
        notes = unit_tangent_chart(surface_chart(curve)).notes
    assert notes == [f"base isotropy order -1 < 1: <phi, phi> has relative "
                     f"residual {residual}, bound 1e-12; the unit tangent "
                     "chart need not be minimal"]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8),
       final=st.booleans(),
       fracs=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
                      min_size=4, max_size=4))
def test_isotropy_ladder_predicts_the_probe_order(seed, n, final, fracs):
    """The two rungs <phi, phi> and <phi', phi'> of a random base's curve
    pass exactly when the unit tangent chart notes nothing, and then, and
    only then, the retired one-point probe (`oracles.isotropy_probe`)
    reads isotropy order >= 1 at every random regular, elliptic point
    where tau >= 1."""
    data = dataclasses.replace(
        random_weierstrass_data(np.random.default_rng(seed), n),
        final_integration=final)
    base = generate_surface(data).chart
    phi = cp.poly_diff(base.curve)
    passed = all(null_residual(v) <= NULL_TOL
                 for v in (phi, cp.poly_diff(phi)))
    assert (unit_tangent_chart(base).notes == []) == passed
    checked = 0
    for frac in fracs:
        point = [lo + (hi - lo) * f for (lo, hi), f in zip(base.domain, frac)]
        row, _ = isotropy_probe(base, point)
        if row["singular"] or not row["elliptic"] or row["tau"] < 1:
            continue
        assert (row["order"] >= 1) == passed
        checked += 1
    assume(checked)


def test_unit_normal_chart_veronese(polar_ver):
    c = polar_ver.chart
    assert polar_ver.tau == 1
    assert c.ambient == "sphere" and c.domain_dim == 3
    pts = geo.grid_points(geo.grid_axes(c, (3, 3, 4)))
    vals = np.array([c.value(p) for p in pts])
    assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, atol=1e-10)
    # fiber vectors are normal to the base surface
    p = (0.2, 0.1)
    jets = make_veronese().eval_jets(p, 1)
    pos = np.array([j.value for j in jets])
    du, dv = J.jet_partials(jets).value
    for th in (0.0, 1.1, 4.4):
        w = c.value((*p, th))
        for other in (pos, du, dv):
            assert abs(w @ other) < 1e-10


def test_polar_veronese_minimal_nullity_one(polar_ver):
    for p in ((0.2, 0.1, 0.4), (-0.3, 0.25, 2.2)):
        rep = nullity_at(polar_ver.chart, p)
        assert rep.mean_curvature_norm < 1e-8
        assert rep.nu == 1
        assert rep.singular_values[-1] < 1e-8


def test_unit_normal_chart_reads_the_centre_off_one_evaluation(monkeypatch):
    """One batched evaluation of the base at the 9x9 certificate grid gives
    the flag certificate, and its centre row the flag probe and the top
    ellipse. Counts are in points."""
    calls = []
    real = geo.ImmersionChart.eval_jets

    def counted(chart, point, order):
        calls.extend([chart.name] * len(np.reshape(point, (-1, 2))))
        return real(chart, point, order)

    monkeypatch.setattr(geo.ImmersionChart, "eval_jets", counted)
    unit_normal_chart(make_veronese())
    assert calls == ["veronese"] * 81


def test_unit_normal_chart_finishes_only_the_centre_row(monkeypatch):
    """The ellipticity and ellipse passes of the base check see the centre
    row alone, and no row when a flag check fails before them."""
    seen = []
    for name in ("_ellipticity_pass", "_ellipse_pass"):
        def counted(E, *args, _name=name, _real=getattr(geo, name)):
            seen.append((_name, len(E)))
            return _real(E, *args)

        monkeypatch.setattr(geo, name, counted)
    unit_normal_chart(make_veronese())
    assert seen == [("_ellipticity_pass", 1), ("_ellipse_pass", 1)]
    seen.clear()
    with pytest.raises(FlagCollapse):
        unit_normal_chart(make_great_sphere())
    assert seen == []


def test_unit_normal_rejections():
    with pytest.raises(FlagCollapse, match="no first normal space"):
        unit_normal_chart(make_great_sphere())
    with pytest.raises(ShapeMismatch):
        unit_normal_chart(make_geodesic_sphere())
    with pytest.raises(InvalidData):
        unit_normal_chart(make_plane())


def _small_sphere_surface() -> ImmersionChart:
    """Umbilic 2-sphere of radius pi/4 in S^4: rank-1 first normal space."""
    cr = sr = math.sqrt(0.5)

    def jet_fn(points, space):
        u = J.jet_variable(space, 0, points[:, 0])
        v = J.jet_variable(space, 1, points[:, 1])
        u2, v2 = J.jet_mul(u, u), J.jet_mul(v, v)
        inv = J.jet_compose("recip", u2 + v2 + 1.0)
        return J.jet_stack([J.jet_constant(space, np.full(len(points), cr)),
                            sr * 2.0 * J.jet_mul(u, inv),
                            sr * 2.0 * J.jet_mul(v, inv),
                            sr * J.jet_mul(1.0 - u2 - v2, inv),
                            J.jet_constant(space, np.zeros(len(points)))]).T

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=((-0.5, 0.5), (-0.5, 0.5)),
                          name="small-sphere")


def _bent_sphere_surface() -> ImmersionChart:
    """Normalized graph over a sphere chart: substantial first normal plane
    but a visibly non-circular first curvature ellipse."""

    def jet_fn(points, space):
        u = J.jet_variable(space, 0, points[:, 0])
        v = J.jet_variable(space, 1, points[:, 1])
        comps = [u, v,
                 J.jet_mul(u, u) - 0.25 * J.jet_mul(v, v),
                 J.jet_mul(u, v),
                 J.jet_constant(space, np.ones(len(points)))]
        norm2 = comps[0] * comps[0]
        for c in comps[1:]:
            norm2 = norm2 + J.jet_mul(c, c)
        scale = J.jet_compose("recip", J.jet_compose("sqrt", norm2))
        return J.jet_stack([J.jet_mul(c, scale) for c in comps]).T

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=((-0.3, 0.3), (-0.3, 0.3)),
                          name="bent-sphere")


def test_unit_normal_umbilic_collapse():
    with pytest.raises(FlagCollapse, match="need a plane"):
        unit_normal_chart(_small_sphere_surface())


def test_unit_normal_noncircular_warns():
    bc = unit_normal_chart(_bent_sphere_surface())
    [note] = bc.notes
    assert "curvature ellipse of order 0 is not a circle" in note
    val = bc.chart.value((0.05, -0.04, 1.3))
    assert np.linalg.norm(val) == pytest.approx(1.0, abs=1e-12)


def _z5_sphere() -> ImmersionChart:
    """(1, z, ..., z^5) normalized onto S^10: tau = 4."""
    comps = np.zeros((11, 6), dtype=complex)
    comps[0, 0] = 1
    for k in range(1, 6):
        comps[2 * k - 1:2 * k + 1, k] = 1, -1j
    flat = surface_chart(comps)

    def jet_fn(points, space):
        f = flat.jet_fn(points, space)
        return f * J.jet_compose("rsqrt", J.jet_dot(f, f))[:, None]

    return ImmersionChart(domain_dim=2, ambient_dim=11, ambient="sphere",
                          jet_fn=jet_fn, domain=flat.domain, name="z5-sphere")


def _veronese_pad1() -> ImmersionChart:
    """Veronese zero-padded into S^5: flag (2, 2)."""
    ver = make_veronese()

    def jet_fn(points, space):
        f = ver.jet_fn(points, space)
        return J.Jet(space, np.concatenate(
            [f.coeffs, np.zeros_like(f.coeffs[:, :1])], axis=1))

    return ImmersionChart(domain_dim=2, ambient_dim=6, ambient="sphere",
                          jet_fn=jet_fn, domain=ver.domain,
                          name="veronese-pad1")


def test_unit_normal_chart_reads_the_whole_flag():
    """(1, z, ..., z^5) normalized onto S^10 has tau = 4: the flag depth
    follows the base's codimension, so the chart is built on the last
    normal space N_4, where the nullity is 1. A flag cut at depth 3 would
    build it on N_3, where the nullity is 0 at every point."""
    bc = unit_normal_chart(_z5_sphere())
    assert bc.tau == 4
    rows = _sweep_rows(bc.chart,
                       geo.grid_points(geo.grid_axes(bc.chart, (3, 3, 4))))
    assert {r["nu"] for r in rows} == {1}


def test_unit_normal_chart_of_an_incomplete_flag():
    """Veronese zero-padded into S^5: its flag (2, 2) leaves one direction
    of R^6 unreached, and its polar chart is still minimal with nullity 1
    and splitting scalars (u, v) = (1, 0)."""
    base = _veronese_pad1()
    assert point_row(base, (0.1, 0.2), max_order=3)["dims"] == [2, 2]
    bc = unit_normal_chart(base)
    assert bc.tau == 1 and bc.notes == []
    rows, [split] = sweep_and_split(
        bc.chart, geo.grid_points(geo.grid_axes(bc.chart, (5, 5, 8))),
        [(0.15, -0.1, 0.9)])
    assert {r["nu"] for r in rows} == {1}
    assert max(r["H"] for r in rows) < 1e-12
    assert split["u"] == pytest.approx(1.0, abs=1e-12)
    assert split["v"] == pytest.approx(0.0, abs=1e-12)
    assert split["span_residual"] < 1e-12


def _singular_centre() -> ImmersionChart:
    """Veronese, undefined (NaN) at the centre of its domain."""
    ver = make_veronese()

    def jet_fn(points, space):
        f = ver.jet_fn(points, space)
        f.coeffs[np.all(points == 0.0, axis=1)] = np.nan
        return f

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=ver.domain,
                          name="veronese-hole")


def _varying_flag() -> ImmersionChart:
    """The graph (u, v, u^2 - v^2 / 4, u^3, 1) normalized onto S^4: flag
    (2, 2) where u != 0, and (2, 1, 1) on the grid column u = 0, off the
    centre u = 1/4."""

    def jet_fn(points, space):
        u = J.jet_variable(space, 0, points[:, 0])
        v = J.jet_variable(space, 1, points[:, 1])
        f = J.jet_stack([u, v, u * u - 0.25 * (v * v), u * u * u,
                         J.jet_constant(space, np.ones(len(points)))]).T
        return f * J.jet_compose("rsqrt", J.jet_dot(f, f))[:, None]

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=((-0.25, 0.75), (-0.5, 0.5)),
                          name="varying-flag")


@pytest.mark.parametrize("make, outcome", [
    (make_veronese, 1), (make_great_sphere, FlagCollapse),
    (_veronese_pad1, 1), (_z5_sphere, 4), (_singular_centre, DegeneratePoint),
    (_varying_flag, FlagCollapse), (_small_sphere_surface, FlagCollapse),
    (_bent_sphere_surface, 1)])
def test_unit_normal_chart_matches_the_full_grid_check(make, outcome):
    """The flag stage over the 9x9 grid and the ellipse stage at its centre
    alone give the tau and notes, or the error class and message, of the
    check that finished all 81 rows."""
    base = make()
    try:
        bc = unit_normal_chart(base)
        got = bc.tau, bc.notes
    except IsominError as exc:
        got = type(exc), str(exc)
    assert got == unit_normal_check_full(base)
    assert got[0] == outcome


def test_splitting_tensor_frozen(bipolar_n5):
    row = _split_row(bipolar_n5.chart, (0.1, 0.2, 0.7))
    assert row["u"] == pytest.approx(1.0, abs=1e-6)
    assert row["v"] == pytest.approx(0.0, abs=1e-6)
    # C = -J in the oriented horizontal frame
    assert np.allclose(np.asarray(row["C"]), [[0.0, 1.0], [-1.0, 0.0]],
                       atol=1e-6)
    assert row["span_residual"] < 1e-6
    assert max(row["ode_residuals"].values()) < 1e-5
    assert row["fiber_alignment"] == pytest.approx(1.0, abs=1e-8)


def test_splitting_tensor_polar(polar_ver):
    row = _split_row(polar_ver.chart, (0.15, -0.1, 0.9))
    assert row["span_residual"] < 1e-6
    assert max(row["ode_residuals"].values()) < 1e-5


def test_splitting_rejects_wrong_nullity():
    bc = unit_tangent_chart(make_fixture("curve-1-2-pad1"))
    row = _split_row(bc.chart, (0.3, 0.2, 1.0))
    assert row == {"point": [0.3, 0.2, 1.0], "skipped": "nullity 3 != 1",
                   "error": None}


def test_bundle_point_report_rows(bipolar_n5):
    """The sweep row of one bundle point."""
    row = _sweep_rows(bipolar_n5.chart, [(0.1, 0.2, 0.7)])[0]
    assert set(row) == {"point", "singular", "H", "nu", "sv", "tg"}
    assert not row["singular"]
    assert row["H"] < 1e-8 and row["nu"] == 1 and not row["tg"]


@pytest.mark.parametrize("which, point", [
    ("bipolar", (0.1, 0.2, 0.7)),
    ("bipolar", (-0.3, 0.15, 3.9)),
    ("polar", (0.15, -0.1, 0.9)),
])
def test_splitting_tensor_matches_fd_oracle(bipolar_n5, polar_ver, which,
                                            point):
    """The jet-based splitting tensor agrees with nested finite differences
    of the unit kernel field. T's orientation is arbitrary: flipping it
    flips v and the diagonal of C."""
    bc = bipolar_n5 if which == "bipolar" else polar_ver
    row = _split_row(bc.chart, point)
    ref = splitting_fd(bc.chart, point)
    sign = 1.0 if row["v"] * ref.v >= 0 else -1.0
    C_ref = ref.C * np.array([[sign, 1.0], [1.0, sign]])
    assert row["u"] == pytest.approx(ref.u, abs=1e-6)
    assert row["v"] == pytest.approx(sign * ref.v, abs=1e-6)
    assert np.allclose(np.asarray(row["C"]), C_ref, atol=1e-6)
    assert row["fiber_alignment"] == pytest.approx(ref.fiber_alignment,
                                                   abs=1e-6)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["bipolar", "polar", "geodesic-sphere"]),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
                      st.floats(0.0, 1.0, exclude_max=True)))
def test_relative_nullity_matches_fd_oracle(bipolar_n5, polar_ver, kind,
                                            frac):
    """The singular values and |H| of the nullity pass agree with the
    stencil forms in an eigendecomposition frame within 1e-6 of the top
    singular value; the geodesic sphere has nu = 0 and |H| = 3 cot r."""
    chart = {"bipolar": bipolar_n5.chart, "polar": polar_ver.chart,
             "geodesic-sphere": make_geodesic_sphere()}[kind]
    point = tuple(lo + (hi - lo) * f for (lo, hi), f in zip(chart.domain,
                                                            frac))
    try:
        rep = nullity_at(chart, point)
    except DegeneratePoint:
        assume(False)
    sv, H = nullity_fd(chart, point)
    tol = 1e-6 * sv[0]
    np.testing.assert_allclose(rep.singular_values, sv, rtol=0, atol=tol)
    assert abs(rep.mean_curvature_norm - H) <= tol
    if kind == "geodesic-sphere":
        # radius pi/4: cot r = 1
        assert rep.nu == 0 and sv[-1] > 0.5
        assert rep.mean_curvature_norm == pytest.approx(3.0, abs=1e-10)
        assert H == pytest.approx(3.0, abs=1e-6)
    else:
        assert rep.nu == 1


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]),
       log_scale=st.floats(-6.0, 6.0))
def test_shape_operator_singular_values_match_the_svd(seed, m, log_scale):
    """On c = 1 stacks, the shape operators E^T A E of symmetric forms A
    (of rank m, m - 1 or m - 2) in frames E, by the nullity pass's two
    products, the singular values read off `eigvalsh` match the SVD's
    within 1e-13 of the largest, in descending order; an m x 2m stack
    (c = 2) takes the SVD itself. Each row has the same bits alone as in
    its batch."""
    rng = np.random.default_rng(seed)
    n = 64
    V, _ = np.linalg.qr(rng.standard_normal((n, m, m)))
    lam = 10.0 ** log_scale * rng.standard_normal((n, m))
    lam[: n // 2, 0] = 0.0
    lam[: n // 4, 1] = 0.0
    A = V @ (lam[..., None] * V.mT)
    E = np.triu(rng.standard_normal((n, m, m)))
    E[:, range(m), range(m)] = 10.0 ** rng.uniform(-1, 1, (n, m))
    aorth = E.mT @ (E.mT @ A).swapaxes(1, 2)
    sv = _form_singular_values(aorth)
    ref = form_singular_values_svd(aorth)
    assert (np.diff(sv, axis=-1) <= 0.0).all()
    assert (np.abs(sv - ref) <= 1e-13 * ref[:, :1]).all()
    assert_rows_alone_match(_form_singular_values, aorth, sv)
    wide = rng.standard_normal((n, m, 2 * m))
    assert np.array_equal(_form_singular_values(wide),
                          form_singular_values_svd(wide))


def _reparametrized(chart: ImmersionChart, phi) -> ImmersionChart:
    """The 3-chart x -> chart(phi(x)), with phi a map of jets. Taylor
    composition: chart(phi(x)) = sum_beta c_beta (phi(x) - phi(x0))^beta."""

    def jet_fn(points, space):
        ys = phi([J.jet_variable(space, i, x) for i, x in enumerate(points.T)])
        delta = [y - y.value for y in ys]
        monomials = []
        for beta in space.indices:
            term = J.jet_constant(space, np.ones(len(points)))
            for d, k in zip(delta, beta):
                for _ in range(k):
                    term = J.jet_mul(term, d)
            monomials.append(term)
        inner = chart.jet_fn(np.stack([y.value for y in ys], axis=1), space)
        acc = J.jet_constant(space, np.zeros(inner.shape))
        for c, term in zip(np.moveaxis(inner.coeffs, -1, 0), monomials):
            acc = acc + term[:, None] * c
        return acc

    return ImmersionChart(domain_dim=3, ambient_dim=chart.ambient_dim,
                          ambient=chart.ambient, jet_fn=jet_fn,
                          domain=chart.domain, name=f"reparam({chart.name})")


def test_splitting_scalars_are_invariant_under_reparametrization(bipolar_n5):
    """(u, |v|) and the residuals do not depend on the coordinates. In the
    bundle coordinates T is the fiber direction and det G is constant along
    it; after a nonlinear change of coordinates neither holds, so every
    Christoffel term of nabla T and of div T counts."""

    def phi(x):
        u, v, t = x
        return [u + 0.3 * t + 0.2 * J.jet_mul(v, t),
                v + 0.1 * J.jet_mul(u, u),
                t + 0.3 * J.jet_mul(t, t) + 0.2 * J.jet_mul(u, v)]

    chart = _reparametrized(bipolar_n5.chart, phi)
    x0 = (0.1, 0.2, 0.7)
    y0 = tuple(y.value for y in phi([J.jet_constant(J.get_space(3, 0), c)
                                     for c in x0]))
    row = _split_row(chart, x0)
    ref = _split_row(bipolar_n5.chart, y0)
    assert row["fiber_alignment"] < 0.99
    assert row["u"] == pytest.approx(ref["u"], abs=1e-9)
    assert abs(row["v"]) == pytest.approx(abs(ref["v"]), abs=1e-9)
    assert row["span_residual"] < 1e-9
    assert max(row["ode_residuals"].values()) < 1e-9


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([5, 6]),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_splitting_tensor_bounds_on_random_bipolar_charts(seed, n, frac,
                                                          theta):
    bc = _random_bipolar(seed, n)
    point = tuple(lo + (hi - lo) * f
                  for (lo, hi), f in zip(bc.base.domain, frac)) + (theta,)
    try:
        rep = nullity_at(bc.chart, point)
    except DegeneratePoint:
        assume(False)
    assume(rep.nu == 1)
    row = _split_row(bc.chart, point)
    assert row["span_residual"] < 1e-6
    assert max(row["ode_residuals"].values()) < 1e-5
    assert row["u"] >= 0.0


def _moved(chart: ImmersionChart, Q: np.ndarray, c: np.ndarray
           ) -> ImmersionChart:
    """The chart x -> Q chart(x) + c."""
    return ImmersionChart(
        domain_dim=chart.domain_dim, ambient_dim=chart.ambient_dim,
        ambient=chart.ambient,
        jet_fn=lambda p, sp: J.Jet(sp, Q @ chart.jet_fn(p, sp).coeffs) + c,
        domain=chart.domain, name=f"moved({chart.name})")


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([5, 6]),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_rigid_motions_keep_point_and_bundle_invariants(seed, n, frac, theta):
    """A rotated and translated base has the same flag, isotropy order,
    bipolar nullity, mean curvature, singular values and splitting scalars,
    for either pivot order of the unit tangent frame."""
    rng = np.random.default_rng(seed)
    base = generate_surface(random_weierstrass_data(rng, n)).chart
    N = base.ambient_dim
    Q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    moved = _moved(base, Q, rng.uniform(-1.0, 1.0, size=N))
    p = tuple(lo + (hi - lo) * f for (lo, hi), f in zip(base.domain, frac))
    row = point_row(base, p)
    assume(not row["singular"])
    got = point_row(moved, p)
    assert [got[k] for k in ("dims", "tau", "order")] == \
        [row[k] for k in ("dims", "tau", "order")]
    for pivot in ((0, 1), (1, 0)):
        ref_chart = unit_tangent_chart(base, pivot_order=pivot).chart
        moved_chart = unit_tangent_chart(moved, pivot_order=pivot).chart
        x = p + (theta,)
        try:
            ref = nullity_at(ref_chart, x)
        except DegeneratePoint:
            assume(False)
        assume(ref.nu == 1)
        rep = nullity_at(moved_chart, x)
        assert rep.nu == ref.nu
        tol = 1e-9 * ref.singular_values[0]
        assert abs(rep.mean_curvature_norm - ref.mean_curvature_norm) <= tol
        np.testing.assert_allclose(rep.singular_values, ref.singular_values,
                                   rtol=0, atol=tol)
        row = _split_row(moved_chart, x)
        ref_row = _split_row(ref_chart, x)
        assert row["u"] == pytest.approx(ref_row["u"], abs=1e-8)
        assert abs(row["v"]) == pytest.approx(abs(ref_row["v"]), abs=1e-8)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(
           ["bipolar-5", "bipolar-6", "bipolar-8", "polar-veronese"]),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_nullity_leaves_are_the_fiber_circles(seed, kind, frac, theta,
                                              polar_ver):
    """The splitting scalars sit at the fixed point w = v + iu = i of the
    leaf equation w' = w^2 + 1: u = 1 and v = 0, and the nullity line is
    the fiber direction, on random bipolar charts and the polar veronese
    chart."""
    bc = (polar_ver if kind == "polar-veronese"
          else _random_bipolar(seed, int(kind[-1])))
    point = tuple(lo + (hi - lo) * f
                  for (lo, hi), f in zip(bc.base.domain, frac)) + (theta,)
    row = _split_row(bc.chart, point)
    assume(row["skipped"] is None and row["error"] is None)
    assert abs(row["u"] - 1.0) < 1e-9
    assert abs(row["v"]) < 1e-9
    assert abs(row["fiber_alignment"] - 1.0) < 1e-9


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(
           ["bipolar-5", "bipolar-6", "bipolar-7", "bipolar-8",
            "polar-veronese"]),
       fracs=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
                                st.floats(0.0, 1.0, exclude_max=True)),
                      min_size=1, max_size=3))
def test_splitting_scalars_match_the_metric_route(seed, kind, fracs,
                                                  polar_ver):
    """The splitting scalars read off the embedding agree with the route
    through the metric G = F F^T (`splitting_scalars_from_metric`:
    Christoffel sums over the partials of G, a Cholesky frame), both fed
    one `_nullity_field` output: the same frame mask, and u, v, C, the
    span residual, every ODE residual and the fiber alignment within
    1e-12."""
    bc = (polar_ver if kind == "polar-veronese"
          else _random_bipolar(seed, int(kind[-1])))
    pts = [[lo + (hi - lo) * f for (lo, hi), f in zip(bc.chart.domain, frac)]
           for frac in fracs]
    jets = bc.chart.eval_jets(pts, 4)
    assume(np.isfinite(jets.coeffs).all())
    T, F, det, determined, unit = _nullity_field(bc.chart, jets,
                                                 geo.EPS_RANK)
    det1 = J.jet_truncate(det, 1)
    ok = determined & unit & ~(det1.value <= 0.0)
    assume(ok.any())
    G = J.jet_dot(F[:, :, None], F[:, None])
    got, framed = _splitting_scalars(T[ok], F[ok], det[ok], det1[ok])
    ref, ref_framed = splitting_scalars_from_metric(T[ok], G[ok], det[ok],
                                                    det1[ok])
    assert framed.tolist() == ref_framed.tolist()
    got.update(got.pop("ode_residuals"))
    ref.update(ref.pop("ode_residuals"))
    assert set(got) == set(ref)
    for key, x in got.items():
        np.testing.assert_allclose(x, ref[key], rtol=0, atol=1e-12,
                                   err_msg=key)


def _assert_sweep_matches_single_points(chart, points) -> list[dict]:
    """The sweep rows of a batch equal the sweep row of each point alone."""
    rows = _sweep_rows(chart, points)
    assert rows == [_sweep_rows(chart, [p])[0] for p in points]
    return rows


@settings(max_examples=12, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["bipolar", "polar"]),
       seed=st.integers(0, 2**32 - 1), n=st.sampled_from([5, 6]),
       frac=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
       half=st.floats(0.01, 0.3),
       counts=st.tuples(st.integers(1, 3), st.integers(1, 3),
                        st.integers(1, 4)))
def test_batched_sweep_matches_single_points(polar_ver, kind, seed, n, frac,
                                             half, counts):
    bc = _random_bipolar(seed, n) if kind == "bipolar" else polar_ver
    centre = [lo + (hi - lo) * f for (lo, hi), f in zip(bc.base.domain, frac)]
    ranges = [(c - half, c + half) for c in centre] + [(0.0, 2.0 * math.pi)]
    points = geo.grid_points(geo.grid_axes(bc.chart, counts, ranges))
    _assert_sweep_matches_single_points(bc.chart, points)


def test_batched_sweep_with_singular_rows():
    """A mixed batch (curve-2-3-pad1 at the default grid: the 8 rows over
    z = 0 are singular) and an all-singular one (the plane)."""
    bc = unit_tangent_chart(make_fixture("curve-2-3-pad1"))
    points = geo.grid_points(geo.grid_axes(bc.chart, (5, 5, 8)))
    rows = _assert_sweep_matches_single_points(bc.chart, points)
    singular = [r["point"][:2] for r in rows if r["singular"]]
    assert singular == [[0.0, 0.0]] * 8 and len(rows) == 200
    plane = unit_tangent_chart(make_plane()).chart
    points = geo.grid_points(geo.grid_axes(plane, (2, 3, 2)))
    assert all(r["singular"]
               for r in _assert_sweep_matches_single_points(plane, points))


def test_batched_jets_match_single_points(bipolar_n5, polar_ver):
    """The rows of one batched evaluation are the jets of each point within
    1e-14; NaN rows (a degenerate frame) stay NaN."""
    charts = [make_fixture(name) for name in (
        "veronese", "plane", "great-sphere", "geodesic-sphere",
        "curve-1-2-3", "curve-2-3-pad1")]
    charts += [make_graph(0.5, -0.2, 0.3, extra=(0.1, 0.4, -0.3)),
               generate_surface(demo_weierstrass_data(8)).chart,
               bipolar_n5.chart, polar_ver.chart,
               unit_tangent_chart(make_fixture("curve-2-3-pad1")).chart]
    rng = np.random.default_rng(11)
    for chart in charts:
        lo, hi = np.array(chart.domain).T
        points = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(5, len(lo)))
        points[0, :2] = 0.5 * (lo[:2] + hi[:2])
        for order in (0, 2, 4):
            batch = chart.eval_jets(points, order)
            assert batch.shape == (5, chart.ambient_dim)
            for row, p in zip(batch, points):
                np.testing.assert_allclose(
                    row.coeffs, chart.eval_jets(p, order).coeffs,
                    rtol=1e-14, atol=1e-14, equal_nan=True)


def test_bundle_jets_match_the_three_variable_construction(bipolar_n5,
                                                          polar_ver):
    """Frames built in the base's two variables with the closed-form fiber
    give the jets of the frames built in three variables times the
    composed cos and sin, within 1e-13, with NaN rows in the same places
    (curve-2-3-pad1 over z = 0)."""
    rng = np.random.default_rng(12)
    charts = [bipolar_n5, polar_ver,
              unit_tangent_chart(make_fixture("curve-2-3-pad1"))]
    for bc in charts:
        lo, hi = np.array(bc.chart.domain).T
        points = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=(6, 3))
        points[1, :2] = points[0, :2]  # one base point, two fiber angles
        points[2, :2] = 0.5 * (lo[:2] + hi[:2])
        for order in (0, 2, 4):
            np.testing.assert_allclose(
                bc.chart.eval_jets(points, order).coeffs,
                bundle_jets_three_variable(bc, points, order).coeffs,
                rtol=0, atol=1e-13, equal_nan=True)


def _row_texts(chart, points) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in _sweep_rows(chart, points)]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["bipolar", "polar"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8),
       frac=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
       half=st.floats(0.01, 0.3),
       counts=st.tuples(st.integers(1, 3), st.integers(1, 3),
                        st.integers(1, 4)),
       data=st.data())
def test_bundle_rows_do_not_depend_on_their_batch(polar_ver, kind, seed, n,
                                                  frac, half, counts, data):
    """The JSON text of every row of a sweep equals its one-point row, and
    the rows of any split of the points into sub-batches, and of any
    permutation of them, are the same text."""
    if kind == "bipolar":
        bc = unit_tangent_chart(generate_surface(
            random_weierstrass_data(np.random.default_rng(seed), n)).chart)
    else:
        bc = polar_ver
    centre = [lo + (hi - lo) * f for (lo, hi), f in zip(bc.base.domain, frac)]
    ranges = [(c - half, c + half) for c in centre] + [(0.0, 2.0 * math.pi)]
    points = geo.grid_points(geo.grid_axes(bc.chart, counts, ranges))
    rows = _row_texts(bc.chart, points)
    assert rows == [_row_texts(bc.chart, p[None])[0] for p in points]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(points) - 1),
                                    max_size=3))) if len(points) > 1 else []
    parts = np.split(points, cuts)
    assert rows == [t for part in parts for t in _row_texts(bc.chart, part)]
    order = data.draw(st.permutations(range(len(points))))
    assert [rows[i] for i in order] == _row_texts(bc.chart, points[order])


def _flat_fold_chart() -> ImmersionChart:
    """(u, v, t) -> (u, v, t^2, uv) in R^4: the metric is finite everywhere
    and vanishes along t at t = 0."""
    def jet_fn(points, space):
        u, v, t = (J.jet_variable(space, k, points[:, k]) for k in range(3))
        return J.jet_stack([u, v, t * t, u * v]).T

    return ImmersionChart(domain_dim=3, ambient_dim=4, ambient="euclidean",
                          jet_fn=jet_fn, domain=((-1.0, 1.0),) * 3,
                          name="flat-fold")


def test_nullity_pass_files_a_row_without_metric_frame_as_singular():
    """With the eigenvalue floor off (eps_deg < 0), the degenerate metric at
    t = 0 reaches the Cholesky factorization and fails it: only that row
    reads singular, as under the floor, and the other rows are unchanged."""
    chart = _flat_fold_chart()
    pts = [(0.1, 0.2, 0.3), (0.1, 0.2, 0.0), (0.3, -0.1, 0.5)]
    rows = _sweep_rows(chart, pts, eps_deg=-1.0)
    assert rows == _sweep_rows(chart, pts)
    assert [r["singular"] for r in rows] == [False, True, False]


def test_order_4_bundle_jets_cut_to_order_2_are_the_order_2_jets(bipolar_n5,
                                                                 polar_ver):
    """Frames built at order 4 and cut to order 2 are the order-2 frames
    bit for bit, so a sweep row assembled next to splitting points is the
    row of a sweep without them: on the default 200-point grids of bipolar
    n5, n8, curve-1-2-pad1 and curve-2-3-pad1 (NaN rows over z = 0) and
    polar veronese, for the jets cut by jet_truncate and for batches of
    orders 2 and 4."""
    bcs = [bipolar_n5, polar_ver] + [unit_tangent_chart(c) for c in (
        generate_surface(demo_weierstrass_data(8)).chart,
        make_fixture("curve-1-2-pad1"), make_fixture("curve-2-3-pad1"))]
    for bc in bcs:
        points = geo.grid_points(geo.grid_axes(bc.chart, (5, 5, 8)))
        low = bc.chart.eval_jets(points, 2)
        high = bc.chart.eval_jets(points, 4)
        np.testing.assert_array_equal(J.jet_truncate(high, 2).coeffs,
                                      low.coeffs)
    assert np.isnan(low.coeffs).any(axis=(1, 2)).sum() == 8


def test_stacked_normal_frame_makes_fewer_jet_products(polar_ver,
                                                       monkeypatch):
    """The polar frame projects the candidates of each order on the lower
    orders in one stacked step, and normalizes the position without the
    value scale it does not read: one order-2 evaluation of polar veronese
    makes 52 jet products, 18 fewer than the one-candidate-at-a-time loop
    (66 at order 4, also 18 fewer), at one point or at 200."""
    calls = []
    real = J.jet_mul
    monkeypatch.setattr(J, "jet_mul", lambda a, b: calls.append(1)
                        or real(a, b))
    points = geo.grid_points(geo.grid_axes(polar_ver.chart, (5, 5, 8)))
    for pts, order, count in ((points, 2, 52), (points[:1], 2, 52),
                              (points, 4, 66)):
        calls.clear()
        polar_ver.chart.eval_jets(pts, order)
        assert len(calls) == count


def _split_texts(bc, points, sweep) -> list[str]:
    rows = sweep_and_split(bc.chart, sweep, points)[1]
    return [json.dumps(r, sort_keys=True) for r in rows]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["bipolar", "polar", "plane", "curve-1-2-pad1"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8),
       fracs=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
                                st.floats(0.0, 1.0, exclude_max=True)),
                      min_size=1, max_size=4),
       data=st.data())
def test_splitting_rows_do_not_depend_on_their_batch(polar_ver, kind, seed,
                                                     n, fracs, data):
    """The JSON text of every splitting row of a bundle command equals its
    one-point row, whatever the sweep next to it, and the rows of any split
    of the points into sub-batches, and of any permutation of them, are
    the same text; each row equals the row of the point with no sweep,
    including the "singular" skips of the plane and the "nullity 3 != 1"
    skips of the padded (z, z^2)."""
    if kind == "bipolar":
        bc = unit_tangent_chart(generate_surface(
            random_weierstrass_data(np.random.default_rng(seed), n)).chart)
    elif kind == "polar":
        bc = polar_ver
    else:
        bc = unit_tangent_chart(make_fixture(kind))
    lo, hi = np.array(bc.chart.domain).T
    points = lo + (hi - lo) * np.array(fracs)
    # a second point over the first base point shares its frame
    points = np.concatenate([points, points[:1] + [0.0, 0.0, 1.0]])
    grid = geo.grid_points(geo.grid_axes(bc.chart, (2, 2, 2)))
    rows = _split_texts(bc, points, grid)
    assert rows == [_split_texts(bc, p[None], p[None])[0] for p in points]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(points) - 1),
                                    max_size=3)))
    parts = np.split(points, cuts)
    assert rows == [t for part in parts
                    for t in _split_texts(bc, part, part)]
    order = data.draw(st.permutations(range(len(points))))
    assert [rows[i] for i in order] == _split_texts(bc, points[order], grid)
    for p, row in zip(points, map(json.loads, rows)):
        assert row == _split_row(bc.chart, p)
    if kind == "plane":
        assert {json.loads(r)["skipped"] for r in rows} == {"singular"}
    if kind == "curve-1-2-pad1":
        assert {json.loads(r)["skipped"] for r in rows} == {"nullity 3 != 1"}


def test_bundle_command_rows_are_the_sweep_rows_and_splitting_tensors(
        bipolar_n5):
    """The sweep rows of one shared evaluation are the rows of the sweep
    alone, exactly, with or without splitting points."""
    grid = geo.grid_points(geo.grid_axes(bipolar_n5.chart, (3, 3, 4)))
    texts = [json.dumps(r, sort_keys=True)
             for r in _sweep_rows(bipolar_n5.chart, grid)]
    for split in (grid[:0], grid[[1, 5]], np.array([[0.1, 0.2, 0.7]])):
        rows, split_rows = sweep_and_split(bipolar_n5.chart, grid, split)
        assert [json.dumps(r, sort_keys=True) for r in rows] == texts
        assert len(split_rows) == len(split)
