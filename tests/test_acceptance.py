"""End-to-end acceptance checks.

Each test certifies one headline property of the workbench at its stated
tolerance and prints the measured numbers; `pytest -v` then gives a one-line
pass/fail verdict per property.
"""
import json
import math
import time

import numpy as np

import isomin.bundles as B
import isomin.geometry as geo
from isomin import cli
from isomin.catalog import (demo_weierstrass_data, make_fixture,
                            make_veronese, random_weierstrass_data)
from isomin.cpoly import bilinear_dot
from isomin.weierstrass import generate_surface

import oracles

TWO_PI = 2.0 * math.pi


def _sample_points(rng, count, lo=-0.6, hi=0.6):
    return [tuple(rng.uniform(lo, hi, size=2)) for _ in range(count)]


def _bundle_grid(chart, counts=(5, 5, 8)):
    return geo.grid_points(geo.grid_axes(chart, counts))


def test_null_identities_hold_on_50_random_data_sets():
    """alpha1, alpha2 and alpha2' are null for seeded random data, n in
    {4, 5, 6, 8}, polynomial degrees up to 4, within 5 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(50):
        n = (4, 5, 6, 8)[i % 4]
        rep = generate_surface(random_weierstrass_data(rng, n))
        worst = max(worst, max(rep.residuals.values()))
        assert max(rep.residuals.values()) < 1e-12, \
            f"data set {i} (n={n}): residuals {rep.residuals}"
    elapsed = time.monotonic() - t0
    print(f"50 data sets: worst relative residual {worst:.3g}, "
          f"{elapsed:.2f}s")
    assert elapsed < 5.0


def test_generated_surfaces_are_minimal_with_circular_first_ellipse():
    """Order-0 and order-1 ellipse residuals stay under 1e-8 at 20 points
    per surface; a generic surface with alpha0 . alpha0 != 0 shows a
    non-circular order-2 ellipse (residual > 1e-3). Budget 30 seconds."""
    t0 = time.monotonic()
    surfaces = [generate_surface(demo_weierstrass_data(n))
                for n in (4, 5, 6, 8)]
    generic = generate_surface(
        random_weierstrass_data(np.random.default_rng(0), 6))
    assert bilinear_dot(generic.data.alpha0, generic.data.alpha0).any()
    surfaces.append(generic)

    rng = np.random.default_rng(1)
    worst_e0 = worst_e1 = 0.0
    best_e2 = 0.0
    for rep in surfaces:
        points = _sample_points(rng, 20)
        for p, row in zip(points, geo.point_rows(rep.chart, points)):
            assert row["elliptic"] and row["tau"] >= 1, \
                f"{rep.chart.name} at {p}"
            e0, e1 = (e["residual"] for e in row["ellipses"][:2])
            worst_e0 = max(worst_e0, e0)
            worst_e1 = max(worst_e1, e1)
            assert e0 < 1e-8 and e1 < 1e-8, f"{rep.chart.name} at {p}"
            if rep is generic and row["tau"] >= 2:
                best_e2 = max(best_e2, row["ellipses"][2]["residual"])
    elapsed = time.monotonic() - t0
    print(f"worst order-0 residual {worst_e0:.3g}, order-1 {worst_e1:.3g}; "
          f"largest generic order-2 residual {best_e2:.3g}; {elapsed:.2f}s")
    assert best_e2 > 1e-3
    assert elapsed < 30.0


def test_unit_tangent_charts_are_minimal_with_nullity():
    """Bipolar charts of three generated surfaces, swept on a 5 x 5 x 8
    grid: |H| < 1e-8 and third singular value < 1e-8 at every non-singular
    point. Budget 60 seconds."""
    t0 = time.monotonic()
    for n in (5, 6, 8):
        base = generate_surface(demo_weierstrass_data(n)).chart
        bc = B.unit_tangent_chart(base)
        live = h_max = sv_max = 0
        points = _bundle_grid(bc.chart)
        for p, row in zip(points, B.sweep_and_split(bc.chart, points, [])[0]):
            if row["singular"]:
                continue
            live += 1
            h_max = max(h_max, row["H"])
            sv_max = max(sv_max, row["sv"][-1])
            assert row["H"] < 1e-8 and row["sv"][-1] < 1e-8, \
                f"n={n} at {p}: H={row['H']:.3g} sv={row['sv']}"
        assert live > 0
        print(f"n={n}: {live} points, max |H| {h_max:.3g}, "
              f"max third singular value {sv_max:.3g}")
    elapsed = time.monotonic() - t0
    print(f"{elapsed:.2f}s")
    assert elapsed < 60.0


def test_totally_geodesic_detection_agrees_with_flag_test():
    """The padded (z, z^2) bundle has nullity 3 at all sampled fiber
    points, the n = 5 demo bundle has nullity 1, and the flag-based and
    nullity-based classifications agree at 20 random points."""
    tg_bc = B.unit_tangent_chart(make_fixture("curve-1-2-pad1"))
    n5_bc = B.unit_tangent_chart(
        generate_surface(demo_weierstrass_data(5)).chart)
    for p in _bundle_grid(tg_bc.chart, (3, 3, 5)):
        rep = oracles.nullity_at(tg_bc.chart, p)
        assert rep.nu == 3 and rep.totally_geodesic, f"at {tuple(p)}"
    for p in _bundle_grid(n5_bc.chart, (3, 3, 5)):
        rep = oracles.nullity_at(n5_bc.chart, p)
        assert rep.nu == 1 and not rep.totally_geodesic, f"at {tuple(p)}"
    rng = np.random.default_rng(2)
    agree = 0
    for bc in (tg_bc, n5_bc):
        for _ in range(10):
            u, v = rng.uniform(-0.7, 0.7, size=2)
            th = rng.uniform(0.0, TWO_PI)
            # the base has no second normal space
            flag_says = oracles.point_row(bc.base, (u, v),
                                         max_order=2)["tau"] < 2
            nullity_says = oracles.nullity_at(
                bc.chart, (u, v, th)).totally_geodesic
            assert flag_says == nullity_says, (bc.chart.name, u, v, th)
            agree += 1
    print(f"nullity 3 on the padded curve, 1 on the demo; "
          f"{agree}/20 classifications agree")


def test_unit_normal_chart_of_veronese_is_minimal_with_nullity():
    """Polar chart of the Veronese surface on a 5 x 5 x 8 grid: |H| < 1e-8
    and nullity exactly 1 everywhere. Budget 60 seconds."""
    t0 = time.monotonic()
    bc = B.unit_normal_chart(make_veronese())
    h_max = sv_max = 0.0
    pts = _bundle_grid(bc.chart)
    for p in pts:
        rep = oracles.nullity_at(bc.chart, p)
        h_max = max(h_max, rep.mean_curvature_norm)
        sv_max = max(sv_max, rep.singular_values[-1])
        assert rep.mean_curvature_norm < 1e-8, f"at {tuple(p)}"
        assert rep.nu == 1, f"at {tuple(p)}: sv {rep.singular_values}"
    elapsed = time.monotonic() - t0
    print(f"{len(pts)} points: max |H| {h_max:.3g}, max smallest singular "
          f"value {sv_max:.3g}; {elapsed:.2f}s")
    assert elapsed < 60.0


def test_splitting_tensor_satisfies_span_and_ode_bounds():
    """At 10 interior points of the demo bipolar chart the measured
    splitting tensor lies in span{I, J} within 1e-6 and satisfies the
    nullity ODE system within 1e-5. The fitted (u, v) and the distance to
    the quarter-turn -J are reported as diagnostics, not asserted."""
    bc = B.unit_tangent_chart(
        generate_surface(demo_weierstrass_data(5)).chart)
    rng = np.random.default_rng(3)
    points = []
    for _ in range(10):
        u, v = rng.uniform(-0.7, 0.7, size=2)
        points.append((u, v, rng.uniform(0.3, TWO_PI - 0.3)))
    span_max = ode_max = 0.0
    minus_j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for i, row in enumerate(B.sweep_and_split(bc.chart, [], points)[1]):
        assert row["skipped"] is None and row["error"] is None
        ode = max(row["ode_residuals"].values())
        span_max = max(span_max, row["span_residual"])
        ode_max = max(ode_max, ode)
        print(f"point {i}: (u, v) = ({row['u']:+.6f}, {row['v']:+.6f}), "
              f"|C - (-J)| = {np.linalg.norm(row['C'] - minus_j):.3g}, "
              f"span {row['span_residual']:.3g}, ode {ode:.3g}")
        assert row["span_residual"] < 1e-6
        assert ode < 1e-5
    print(f"max span residual {span_max:.3g}, max ode residual {ode_max:.3g}")


def test_higher_isotropy_curve_and_its_unit_tangent_chart():
    """(z, z^2, z^3) has isotropy order 2 across a sample grid, and its
    bipolar chart meets the same |H| and nullity thresholds as the
    generated surfaces."""
    base = make_fixture("curve-1-2-3")
    points = geo.grid_points(geo.grid_axes(base, (4, 4), [(-0.75, 0.75)] * 2))
    for p, row in zip(points, geo.point_rows(base, points)):
        assert row["order"] == 2, f"at {tuple(p)}"
    bc = B.unit_tangent_chart(base)
    live = 0
    points = _bundle_grid(bc.chart)
    for p, row in zip(points, B.sweep_and_split(bc.chart, points, [])[0]):
        if row["singular"]:
            continue
        live += 1
        assert row["H"] < 1e-8 and row["sv"][-1] < 1e-8, f"at {tuple(p)}"
    assert live > 0
    print(f"order 2 at 16 base points; bundle grid: {live} regular points "
          "within thresholds")


def test_jet_derived_forms_match_finite_difference_oracles():
    """Metric and second fundamental form entries from the jet pipeline
    match an independent finite-difference oracle within relative 1e-6 on
    every catalog fixture, generated surface, and bundle chart."""
    charts = [generate_surface(demo_weierstrass_data(n)).chart
              for n in (4, 5, 6, 8)]
    charts += [make_fixture(nm) for nm in
               ("curve-1-2-3", "curve-1-2-pad1", "veronese", "plane",
                "great-sphere", "geodesic-sphere")]
    charts.append(oracles.make_graph(1.0, 0.0, -0.25, extra=(0.0, 0.5, 0.0)))
    charts.append(B.unit_tangent_chart(charts[1]).chart)
    charts.append(B.unit_normal_chart(make_veronese()).chart)

    rng = np.random.default_rng(4)
    worst = 0.0
    for chart in charts:
        for _ in range(3):
            p = tuple(lo + (hi - lo) * rng.uniform(0.25, 0.75)
                      for lo, hi in chart.domain)
            at = oracles.stacked_at(chart, p)
            g_ref = oracles.metric_fd(chart, p)
            a_ref = oracles.second_form_fd(chart, p)
            g_scale = max(1.0, float(np.abs(g_ref).max()))
            a_scale = max(1.0, float(np.abs(a_ref).max()))
            g_err = float(np.abs(at["G"] - g_ref).max()) / g_scale
            a = oracles.form_table(at["forms"][2], chart.domain_dim)
            a_err = float(np.abs(a - a_ref).max()) / a_scale
            worst = max(worst, g_err, a_err)
            assert g_err < 1e-6, f"{chart.name} metric at {p}: {g_err:.3g}"
            assert a_err < 1e-6, f"{chart.name} form at {p}: {a_err:.3g}"
    print(f"{len(charts)} charts x 3 points: worst relative deviation "
          f"{worst:.3g}")


def test_reports_are_byte_identical_across_runs(tmp_path):
    """Repeated CLI runs write byte-identical reports and meshes."""
    grid3 = f"-0.3:0.3:2,-0.3:0.3:2,0:{TWO_PI!r}:3"
    cfgp = tmp_path / "bundle.json"
    cfgp.write_text(json.dumps({"fixture": "n5", "kind": "bipolar",
                                "grid": grid3, "splitting_points": 1}))
    jobs = [
        ("generate", ["generate", "--fixture", "n6"]),
        ("analyze", ["analyze", "--fixture", "curve-1-2-3",
                     "--grid", "0.1:0.8:3,0.1:0.8:3"]),
        ("bundle", ["bundle", "--config", str(cfgp)]),
        ("export", ["export", "--fixture", "veronese",
                    "--grid=-0.6:0.6:4,-0.6:0.6:4"]),
        ("export-bundle", ["export", "--kind", "bipolar", "--fixture", "n5",
                           f"--grid={grid3}"]),
    ]
    for name, argv in jobs:
        paths = [tmp_path / f"{name}-{k}.out" for k in (1, 2)]
        for path in paths:
            assert cli.main(argv + ["--out", str(path)]) == 0, (name, argv)
        assert paths[0].read_bytes() == paths[1].read_bytes(), name
        print(f"{name}: {paths[0].stat().st_size} bytes, identical rerun")
