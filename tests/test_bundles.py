"""Bipolar and polar charts, nullity, splitting tensor."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import isomin.geometry as geo
import isomin.jet as J
from isomin.bundles import (bundle_point_report, bundle_rows,
                            relative_nullity, splitting_tensor,
                            unit_normal_chart, unit_tangent_chart)
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            make_geodesic_sphere, make_graph,
                            make_great_sphere, make_plane, make_veronese,
                            random_weierstrass_data)
from isomin.errors import (DegeneratePoint, FlagCollapse, InvalidData,
                           NullityJump, ShapeMismatch)
from isomin.geometry import ImmersionChart
from isomin.weierstrass import generate_surface

from oracles import nullity_fd, splitting_fd


@pytest.fixture(scope="module")
def n5base():
    return generate_surface(demo_weierstrass_data(5)).chart


@pytest.fixture(scope="module")
def bipolar_n5(n5base):
    return unit_tangent_chart(n5base)


@pytest.fixture(scope="module")
def polar_ver():
    return unit_normal_chart(make_veronese())


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


def test_unit_tangent_base_validation(n5base):
    with pytest.raises(InvalidData, match="zero-pad"):
        unit_tangent_chart(make_fixture("curve-1-2"))
    with pytest.raises(InvalidData):
        unit_tangent_chart(make_veronese())
    with pytest.raises(ShapeMismatch):
        unit_tangent_chart(make_geodesic_sphere())


def test_bipolar_minimal_with_nullity_one(bipolar_n5):
    for p in ((0.1, 0.2, 0.7), (-0.3, 0.15, 3.9)):
        rep = relative_nullity(bipolar_n5.chart, p)
        assert rep.mean_curvature_norm < 1e-8
        assert rep.nu == 1 and not rep.totally_geodesic
        assert rep.singular_values[-1] < 1e-8
        assert rep.singular_values[1] > 1e-3
        assert rep.kernel.shape == (3, 1)


def test_nullity_direction_not_the_fiber(bipolar_n5):
    """The nullity line of the bipolar chart is horizontal-ish but never
    checked to be the fiber; what is frozen is its metric alignment."""
    p = (0.1, 0.2, 0.7)
    rep = relative_nullity(bipolar_n5.chart, p)
    G = geo.fundamental_forms(bipolar_n5.chart, p).metric
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
        flag_says = geo.osculating_flag(tg_base, (u, v), max_order=2).tau < 2
        rep = relative_nullity(unit_tangent_chart(tg_base).chart, (u, v, th))
        assert flag_says and rep.totally_geodesic and rep.nu == 3
        flag_says = geo.osculating_flag(curved_base, (u, v),
                                        max_order=2).tau < 2
        rep = relative_nullity(unit_tangent_chart(curved_base).chart,
                               (u, v, th))
        assert not flag_says and not rep.totally_geodesic and rep.nu == 1


def test_plane_bundle_everywhere_singular():
    bc = unit_tangent_chart(make_plane())
    with pytest.raises(DegeneratePoint):
        relative_nullity(bc.chart, (0.1, 0.2, 0.5))
    row = bundle_point_report(bc.chart, (0.1, 0.2, 0.5))
    assert row["singular"] and row["H"] is None


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
    du = jets.derivative(0).value
    dv = jets.derivative(1).value
    for th in (0.0, 1.1, 4.4):
        w = c.value((*p, th))
        for other in (pos, du, dv):
            assert abs(w @ other) < 1e-10


def test_polar_veronese_minimal_nullity_one(polar_ver):
    for p in ((0.2, 0.1, 0.4), (-0.3, 0.25, 2.2)):
        rep = relative_nullity(polar_ver.chart, p)
        assert rep.mean_curvature_norm < 1e-8
        assert rep.nu == 1
        assert rep.singular_values[-1] < 1e-8


def test_unit_normal_chart_reads_the_centre_off_one_evaluation(monkeypatch):
    """One evaluation at the domain centre gives the flag probe and the top
    ellipse; the 9x9 certificate adds one point per grid point. Counts are
    in points: the certificate reads its grid off one batched call."""
    calls = []
    real = geo.ImmersionChart.eval_jets

    def counted(chart, point, order):
        calls.extend([chart.name] * len(np.reshape(point, (-1, 2))))
        return real(chart, point, order)

    monkeypatch.setattr(geo.ImmersionChart, "eval_jets", counted)
    unit_normal_chart(make_veronese())
    assert calls == ["veronese"] * 82


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
        inv = J.jet_recip(u2 + v2 + 1.0)
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
        scale = J.jet_recip(J.jet_sqrt(norm2))
        return J.jet_stack([J.jet_mul(c, scale) for c in comps]).T

    return ImmersionChart(domain_dim=2, ambient_dim=5, ambient="sphere",
                          jet_fn=jet_fn, domain=((-0.3, 0.3), (-0.3, 0.3)),
                          name="bent-sphere")


def test_unit_normal_umbilic_collapse():
    with pytest.raises(FlagCollapse, match="need a plane"):
        unit_normal_chart(_small_sphere_surface())


def test_unit_normal_noncircular_warns():
    with pytest.warns(UserWarning, match="not a circle"):
        bc = unit_normal_chart(_bent_sphere_surface(), counts=(5, 5))
    val = bc.chart.value((0.05, -0.04, 1.3))
    assert np.linalg.norm(val) == pytest.approx(1.0, abs=1e-12)


def test_splitting_tensor_frozen(bipolar_n5):
    sp = splitting_tensor(bipolar_n5.chart, (0.1, 0.2, 0.7))
    assert sp.u == pytest.approx(1.0, abs=1e-6)
    assert sp.v == pytest.approx(0.0, abs=1e-6)
    # C = -J in the oriented horizontal frame
    assert np.allclose(sp.C, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-6)
    assert sp.span_residual < 1e-6
    assert max(sp.ode_residuals.values()) < 1e-5
    assert sp.fiber_alignment == pytest.approx(1.0, abs=1e-8)


def test_splitting_tensor_polar(polar_ver):
    sp = splitting_tensor(polar_ver.chart, (0.15, -0.1, 0.9))
    assert sp.span_residual < 1e-6
    assert max(sp.ode_residuals.values()) < 1e-5


def test_splitting_rejects_wrong_nullity():
    bc = unit_tangent_chart(make_fixture("curve-1-2-pad1"))
    with pytest.raises(NullityJump):
        splitting_tensor(bc.chart, (0.3, 0.2, 1.0))


def test_bundle_point_report_rows(bipolar_n5):
    row = bundle_point_report(bipolar_n5.chart, (0.1, 0.2, 0.7))
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
    sp = splitting_tensor(bc.chart, point)
    ref = splitting_fd(bc.chart, point)
    sign = 1.0 if sp.v * ref.v >= 0 else -1.0
    C_ref = ref.C * np.array([[sign, 1.0], [1.0, sign]])
    assert sp.u == pytest.approx(ref.u, abs=1e-6)
    assert sp.v == pytest.approx(sign * ref.v, abs=1e-6)
    assert np.allclose(sp.C, C_ref, atol=1e-6)
    assert sp.fiber_alignment == pytest.approx(ref.fiber_alignment, abs=1e-6)


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
        rep = relative_nullity(chart, point)
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
    sp = splitting_tensor(chart, x0)
    ref = splitting_tensor(bipolar_n5.chart, y0)
    assert sp.fiber_alignment < 0.99
    assert sp.u == pytest.approx(ref.u, abs=1e-9)
    assert abs(sp.v) == pytest.approx(abs(ref.v), abs=1e-9)
    assert sp.span_residual < 1e-9
    assert max(sp.ode_residuals.values()) < 1e-9


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([5, 6]),
       frac=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_splitting_tensor_bounds_on_random_bipolar_charts(seed, n, frac,
                                                          theta):
    base = generate_surface(
        random_weierstrass_data(np.random.default_rng(seed), n)).chart
    bc = unit_tangent_chart(base)
    point = tuple(lo + (hi - lo) * f
                  for (lo, hi), f in zip(base.domain, frac)) + (theta,)
    try:
        rep = relative_nullity(bc.chart, point)
    except DegeneratePoint:
        assume(False)
    assume(rep.nu == 1)
    sp = splitting_tensor(bc.chart, point)
    assert sp.span_residual < 1e-6
    assert max(sp.ode_residuals.values()) < 1e-5
    assert sp.u >= 0.0


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
    row = geo.point_report(base, p)
    assume(not row["singular"])
    got = geo.point_report(moved, p)
    assert [got[k] for k in ("dims", "tau", "order")] == \
        [row[k] for k in ("dims", "tau", "order")]
    for pivot in ((0, 1), (1, 0)):
        ref_chart = unit_tangent_chart(base, pivot_order=pivot).chart
        moved_chart = unit_tangent_chart(moved, pivot_order=pivot).chart
        x = p + (theta,)
        try:
            ref = relative_nullity(ref_chart, x)
        except DegeneratePoint:
            assume(False)
        assume(ref.nu == 1)
        rep = relative_nullity(moved_chart, x)
        assert rep.nu == ref.nu
        tol = 1e-9 * ref.singular_values[0]
        assert abs(rep.mean_curvature_norm - ref.mean_curvature_norm) <= tol
        np.testing.assert_allclose(rep.singular_values, ref.singular_values,
                                   rtol=0, atol=tol)
        sp = splitting_tensor(moved_chart, x)
        sp_ref = splitting_tensor(ref_chart, x)
        assert sp.u == pytest.approx(sp_ref.u, abs=1e-8)
        assert abs(sp.v) == pytest.approx(abs(sp_ref.v), abs=1e-8)


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
    if kind == "polar-veronese":
        bc = polar_ver
    else:
        bc = unit_tangent_chart(generate_surface(random_weierstrass_data(
            np.random.default_rng(seed), int(kind[-1]))).chart)
    point = tuple(lo + (hi - lo) * f
                  for (lo, hi), f in zip(bc.base.domain, frac)) + (theta,)
    try:
        sp = splitting_tensor(bc.chart, point)
    except (DegeneratePoint, NullityJump):
        assume(False)
    assert abs(sp.u - 1.0) < 1e-9
    assert abs(sp.v) < 1e-9
    assert abs(sp.fiber_alignment - 1.0) < 1e-9


def _assert_sweep_matches_single_points(chart, points) -> list[dict]:
    """bundle_rows on a batch against bundle_point_report at each point:
    identical singular flags, nu and point, H and sv within 1e-12."""
    rows = bundle_rows(chart, points)
    assert len(rows) == len(points)
    for row, p in zip(rows, points):
        ref = bundle_point_report(chart, p)
        assert (row["point"], row["singular"], row["nu"], row["tg"]) == (
            ref["point"], ref["singular"], ref["nu"], ref["tg"])
        if ref["singular"]:
            assert row == ref
        else:
            assert abs(row["H"] - ref["H"]) <= 1e-12
            np.testing.assert_allclose(row["sv"], ref["sv"], rtol=0,
                                       atol=1e-12)
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
    if kind == "bipolar":
        bc = unit_tangent_chart(generate_surface(
            random_weierstrass_data(np.random.default_rng(seed), n)).chart)
    else:
        bc = polar_ver
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
