"""Command line driver: exit codes, report documents, OBJ output."""
import collections
import contextlib
import io
import json
import math
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isomin import bundles, cli, geometry as geo, jet as J
from isomin.errors import DegeneratePoint

import oracles


def run(argv):
    return cli.main(argv)


def load(path):
    with open(path) as fh:
        return json.load(fh)


TWO_PI = repr(2.0 * math.pi)


def test_generate_demo_passes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["generate", "--fixture", "n5", "--out", str(out1)]) == 0
    doc = load(out1)
    assert doc["pass"] is True
    for key in ("alpha1", "alpha2", "phi2", "data", "residuals", "verdicts"):
        assert key in doc
    assert doc["verdicts"] == {"identities": True, "minimal": True,
                               "first_ellipse_circular": True}
    assert run(["generate", "--fixture", "n5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_without_final_integration(tmp_path):
    out = tmp_path / "r.json"
    code = run(["generate", "--fixture", "n5", "--no-final-integration",
                "--out", str(out)])
    assert code == 2
    doc = load(out)
    assert doc["verdicts"]["identities"] is True
    assert doc["verdicts"]["first_ellipse_circular"] is False


def test_generate_rejects_zero_beta(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"surface": {
        "n": 4, "alpha0": [], "beta1": [[0.0, 0.0]], "beta2": [[1.0, 0.0]]}}))
    assert run(["generate", "--config", str(cfgp)]) == 1
    assert "nonzero" in capsys.readouterr().err


def test_generate_needs_a_surface():
    assert run(["generate"]) == 1


@pytest.mark.parametrize("fixture", ["veronese", "n5", "random-n5"])
@pytest.mark.parametrize("in_config", [False, True])
def test_surface_and_fixture_together_are_bad_input(tmp_path, capsys,
                                                    fixture, in_config):
    """A config surface with a fixture, a chart fixture or a data one, in
    the config or as a flag, is bad input: exit 1 with one error line and
    no report, where one of the two used to be analyzed silently."""
    cfg = {"surface": {"n": 5, "alpha0": [[[1, 0]]]}}
    flags = ["--fixture", fixture]
    if in_config:
        cfg, flags = {**cfg, "fixture": fixture}, []
    cfgp, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfgp.write_text(json.dumps(cfg))
    assert run(["analyze", "--config", str(cfgp), "--out", str(out)]
               + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "surface" in err and repr(fixture) in err
    assert not out.exists()


def test_analyze_curve_has_order_two(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "curve-1-2-3",
                "--grid", "0.1:0.8:3,0.1:0.8:3", "--out", str(out)]) == 0
    doc = load(out)
    assert doc["summary"]["order_min"] == 2
    assert doc["summary"]["order_max"] == 2
    assert doc["certificate"]["nicely_curved"] is True


def test_analyze_plane_is_flat(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "plane",
                "--grid=-0.5:0.5:3,-0.5:0.5:3", "--out", str(out)]) == 0
    doc = load(out)
    assert all(r["tau"] == 0 and r["order"] == 0 for r in doc["rows"])
    assert doc["certificate"]["dims"] == [2]


def test_analyze_random_seed0_order_exactly_one(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "random-n6",
                "--grid=-0.4:0.4:4,-0.4:0.4:4", "--out", str(out)]) == 0
    doc = load(out)
    assert doc["summary"]["order_min"] == 1
    assert doc["summary"]["order_max"] == 1


def test_analyze_rejects_3d_charts():
    assert run(["analyze", "--fixture", "geodesic-sphere"]) == 1


def test_bundle_bipolar_demo(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "fixture": "n5", "kind": "bipolar",
        "grid": f"-0.3:0.3:2,-0.3:0.3:2,0:{TWO_PI}:3",
        "splitting_points": 2,
        "tolerances": {"ode": 1e-05}}))
    out = tmp_path / "r.json"
    assert run(["bundle", "--config", str(cfgp), "--out", str(out)]) == 0
    doc = load(out)
    assert doc["kind"] == "bipolar"
    assert all(doc["verdicts"].values())
    assert doc["summary"]["nullity_values"] == [1]
    assert len(doc["splitting"]) == 2
    assert all(r["error"] is None and r["skipped"] is None
               for r in doc["splitting"])
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 4 and "FAIL" not in stdout


@pytest.mark.parametrize("argv, notes", [
    (["--fixture", "n5", "--no-final-integration"],
     ["base isotropy order 0 < 1: <phi', phi'> has relative residual 1, "
      "bound 1e-12; the unit tangent chart need not be minimal"]),
    (["--fixture", "curve-2-3-pad1"], []),
    (["--fixture", "n5"], [])])
def test_bipolar_probe_notes(tmp_path, capsys, argv, notes):
    """The exact base check writes one note where the base's curve fails
    a rung of the isotropy ladder, and none on a 1-isotropic base, even
    one that is singular at the domain centre (curve-2-3-pad1 at z = 0):
    in the report and as a warning line."""
    out = tmp_path / "r.json"
    run(["bundle", "--kind", "bipolar", *argv,
         "--grid=0.1:0.5:2,-0.3:0.1:2,0.4:3.54:2", "--out", str(out)])
    assert load(out)["notes"] == notes
    assert [line.removeprefix("warning: ")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("warning: ")] == notes


def test_bundle_polar_collapse_exits_3(capsys):
    assert run(["bundle", "--kind", "polar",
                "--fixture", "great-sphere"]) == 3
    assert "no first normal space" in capsys.readouterr().err


@pytest.mark.parametrize("kind, fixture, products, compositions",
                         [("bipolar", "n5", 39, 5),
                          ("polar", "veronese", 88, 11)])
def test_splitting_commands_make_pinned_jet_work(tmp_path, monkeypatch, kind,
                                                 fixture, products,
                                                 compositions):
    """A `bundle` command over a 2x2x2 box with one splitting point, the
    shape of the benchmark's splitting commands, makes a fixed number of
    jet products and compositions, so a change that adds some fails here
    without a benchmark run. The splitting pass makes 7 of the products:
    it reads its connection and lowers T off the ambient field T^l F_l,
    one product fewer than the Christoffel sums over the metric took. The
    polar command makes 20 fewer than the 108 it made while the Veronese
    chart formed x x and y y twice and each coordinate product in a call
    of its own (10 per evaluation, two evaluations)."""
    calls = {"jet_mul": 0, "jet_compose": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(J, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(J, name, counted)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "fixture": fixture, "splitting_points": 1,
        "grid": [[-0.1, 0.3, 2], [-0.3, 0.1, 2], [0.4, 0.4 + math.pi, 2]]}))
    assert run(["bundle", "--kind", kind, "--config", str(cfgp),
                "--out", str(tmp_path / "r.json")]) == 0
    assert calls == {"jet_mul": products, "jet_compose": compositions}


_FLAG_SVDS = {
    "n5": [(81, 3, 3), (81, 2, 4)],
    "n8": [(81, 6, 3), (81, 5, 4), (81, 4, 5), (81, 3, 6), (81, 2, 7)]}
_ELLIPSE_SVDS = {
    "n5": [(81, 2, 5), (81, 2, 3), (81, 4, 2)],
    "n8": [(81, 2, 8), (81, 2, 6), (81, 4, 5), (81, 4, 4), (81, 6, 3)]}


def _record_linear_algebra(monkeypatch) -> list:
    """The `np.linalg` calls made from here on, in call order: each call's
    routine name and the shape of its first argument."""
    calls = []
    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if not callable(real) or isinstance(real, type):
            continue

        def recorded(*args, _name=name, _real=real, **kw):
            calls.append((_name, np.shape(args[0])))
            return _real(*args, **kw)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


@pytest.mark.parametrize("fixture, norms", [("n5", 2), ("n8", 5)])
def test_analyze_makes_pinned_linear_algebra_work(monkeypatch, tmp_path,
                                                  fixture, norms):
    """`analyze` on the default 9x9 grid makes a fixed number of
    `np.linalg` calls of each routine, and its SVDs take fixed shapes: one
    per flag level, each level's form one row narrower than the last (the
    complement of the flag narrows), one for the ellipticity and one per
    ellipse order. The tangent stage makes one complete QR and no other
    LAPACK call: its metric floor is read off the pivots of an LDL^T and
    its frame by back substitution, both elementwise over the stack, where
    an `eigvalsh` and an `inv` took one call each. A change that adds
    linear-algebra work fails here without a benchmark run."""
    calls = _record_linear_algebra(monkeypatch)
    assert run(["analyze", "--fixture", fixture,
                "--out", str(tmp_path / "r.json")]) == 0
    svds = [shape for name, shape in calls if name == "svd"]
    flag = _FLAG_SVDS[fixture]
    assert svds == flag + [flag[0]] + _ELLIPSE_SVDS[fixture]
    # the tangent stage: one complete QR; the ellipticity: one eigh
    assert collections.Counter(name for name, _ in calls) == {
        "qr": 1, "eigh": 1, "svd": len(svds), "norm": norms}


@pytest.mark.parametrize("kind, fixture, work", [
    ("bipolar", "n5", [("norm", (200, 5)), ("qr", (200, 5, 4)),
                       ("eigvalsh", (200, 3, 3)), ("norm", (200, 1))]),
    ("polar", "veronese", [
        # the base check: the flag stage on the 9x9 grid, then at the
        # centre alone the ellipticity and the ellipse of order tau - 1 = 0,
        # one ellipse SVD fewer than the centre's report row takes
        ("norm", (81, 5)), ("qr", (81, 5, 3)), ("norm", (81, 5, 3)),
        ("svd", (81, 2, 3)), ("svd", (1, 2, 3)), ("eigh", (1, 2, 2)),
        ("svd", (1, 2, 5)),
        ("norm", (200, 5)), ("qr", (200, 5, 4)),
        ("eigvalsh", (200, 3, 3)), ("norm", (200, 1))])])
def test_bundle_sweep_makes_pinned_linear_algebra_work(monkeypatch, tmp_path,
                                                       kind, fixture, work):
    """A `bundle` command on the default grid without splitting points, the
    shape of the benchmark's sweep commands, makes a fixed list of
    `np.linalg` calls with fixed shapes. The nullity pass over the 200
    points makes one complete QR (the tangent stage, whose metric floor and
    frame take no LAPACK call) and, as every bundle over an S^4 base has a
    one-column complement, one `eigvalsh` of the symmetric shape operator
    in place of an SVD; no call is an `inv`. A change that adds
    linear-algebra work fails here without a benchmark run."""
    calls = _record_linear_algebra(monkeypatch)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 0}))
    assert run(["bundle", "--kind", kind, "--fixture", fixture,
                "--config", str(cfgp), "--out", str(tmp_path / "r.json")]) == 0
    assert calls == work


def test_bundle_requires_kind():
    assert run(["bundle", "--fixture", "n5"]) == 1


def test_bundle_plane_every_point_singular(tmp_path):
    out = tmp_path / "r.json"
    code = run(["bundle", "--kind", "bipolar", "--fixture", "plane",
                "--grid", f"0:0.5:2,0:0.5:2,0:{TWO_PI}:3",
                "--out", str(out)])
    assert code == 2
    doc = load(out)
    assert doc["summary"]["singular"] == doc["summary"]["points"] == 12
    assert doc["pass"] is False and doc["summary"]["H_max"] is None
    assert any("isotropy" in n for n in doc["notes"])


def test_analyze_with_no_regular_point_fails(tmp_path, capsys):
    """The one point of this grid is the branch point z = 0: the sweep
    checks nothing, so it fails, and the report is still written."""
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "curve-2-3", "--grid", "0:1:1,0:1:1",
                "--out", str(out)]) == 2
    assert ("regular points: FAIL (no swept point is regular)"
            in capsys.readouterr().out)
    doc = load(out)
    assert doc["summary"]["singular"] == doc["summary"]["points"] == 1
    assert doc["rows"][0]["singular"] is True


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def no_memory(axes):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(geo, "grid_points", no_memory)
    for argv in (["analyze", "--fixture", "n5"],
                 ["bundle", "--kind", "bipolar", "--fixture", "n5"]):
        assert run(argv + ["--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: out of memory: Unable to allocate 74.5 GiB "
                       "for an array\n")
    assert not (tmp_path / "r.json").exists()


def test_generate_with_no_regular_spot_point_fails(tmp_path, monkeypatch):
    def singular(chart, points, **kw):
        return [{"point": list(p), "singular": True, "ellipses": []}
                for p in points]

    monkeypatch.setattr(geo, "point_rows", singular)
    out = tmp_path / "r.json"
    assert run(["generate", "--fixture", "n6", "--out", str(out)]) == 2
    doc = load(out)
    assert doc["verdicts"]["minimal"] is False and doc["pass"] is False


def test_export_coordinate_projection(tmp_path):
    out = tmp_path / "v.obj"
    assert run(["export", "--fixture", "veronese",
                "--grid=-0.6:0.6:4,-0.6:0.6:4",
                "--projection", "1,2,3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# isomin mesh"
    assert "# projection: coords 1 2 3" in lines
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 16 and len(fs) == 9
    ids = [int(tok) for l in fs for tok in l.split()[1:]]
    assert all(1 <= i <= 16 for i in ids)


def test_export_bundle_seam_and_determinism(tmp_path):
    args = ["export", "--kind", "bipolar", "--fixture", "n5",
            f"--grid=-0.3:0.3:2,-0.3:0.3:2,0:{TWO_PI}:4"]
    out1, out2 = tmp_path / "a.obj", tmp_path / "b.obj"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert "# projection: principal" in lines
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    # the closed fiber circle contributes nt quads per sheet, not nt - 1
    assert len(vs) == 16 and len(fs) == 8


@pytest.mark.parametrize("args, counts, wrap", [
    (["--fixture", "veronese", "--grid=-0.6:0.6:3,-0.6:0.6:4"], (3, 4),
     False),
    (["--kind", "bipolar", "--fixture", "n5",
      f"--grid=-0.3:0.3:3,-0.3:0.3:2,0:{TWO_PI}:5"], (3, 2, 5), True),
    (["--kind", "bipolar", "--fixture", "n5",
      "--grid=-0.3:0.3:2,-0.3:0.3:3,0:3:4"], (2, 3, 4), False),
    (["--kind", "polar", "--fixture", "veronese",
      f"--grid=-0.3:0.3:3,-0.3:0.3:2,0:{TWO_PI}:2"], (3, 2, 2), False)])
def test_export_faces_match_the_grid_loops(tmp_path, args, counts, wrap):
    """The faces of a mesh are the quads of the nested grid loops, in their
    order: a surface, a fiber closed over its seam, a fiber range short of
    the circle, and a full circle of two samples, which is not closed."""
    out = tmp_path / "m.obj"
    assert run(["export", *args, "--out", str(out)]) == 0
    faces = [[int(i) - 1 for i in line.split()[1:]]
             for line in out.read_text().splitlines() if line.startswith("f ")]
    assert faces == oracles.mesh_faces_loops(counts, wrap)


@pytest.mark.parametrize("kind, fixture", [("polar", "veronese"),
                                           ("bipolar", "n5")])
def test_principal_projection_is_canonical(kind, fixture):
    """The default bundle meshes have a repeated covariance eigenvalue
    (polar veronese 45.74 twice, bipolar n5 52.77 twice): inside it the
    projection does not depend on the vertex order or on noise in the
    last bits."""
    chart = cli._bundle_chart(cli.load_config(cli.build_parser().parse_args(
        ["export", "--kind", kind, "--fixture", fixture]))).chart
    verts = chart.eval_jets(geo.grid_points(geo.grid_axes(chart, (5, 5, 8))),
                            0).value
    forward = cli._principal_projection(verts)
    assert np.allclose(cli._principal_projection(verts[::-1])[::-1], forward,
                       rtol=0, atol=1e-9)
    noise = 1.0 + 1e-15 * np.random.default_rng(0).standard_normal(verts.shape)
    assert np.allclose(cli._principal_projection(verts * noise), forward,
                       rtol=0, atol=1e-9)


def test_export_projection_validation(tmp_path):
    out = tmp_path / "v.obj"
    assert run(["export", "--fixture", "veronese", "--grid", "0:0.5:3,0:0.5:3",
                "--projection", "1,2,9", "--out", str(out)]) == 1
    assert run(["export", "--fixture", "veronese", "--grid", "0:0.5:3,0:0.5:3",
                "--projection", "one,two,three", "--out", str(out)]) == 1
    assert run(["export", "--fixture", "veronese", "--grid", "0:0.5:3,0:0.5:3",
                "--projection", "1,1,2", "--out", str(out)]) == 1
    assert not out.exists()
    assert run(["export", "--fixture", "veronese"]) == 1  # no --out


def test_parser_edges(tmp_path, capsys):
    assert run(["--help"]) == 0
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["analyze", "--fixture", "plane", "--tol", "nope=1"]) == 1
    assert run(["analyze", "--fixture", "plane", "--tol", "circle=-2"]) == 1
    assert run(["generate", "--fixture", "n5", "--tol", "circle=inf"]) == 1
    assert run(["analyze", "--fixture", "plane", "--grid",
                "0:inf:3,0:1:3"]) == 1
    assert run(["analyze", "--fixture", "plane", "--grid", "0:1:2"]) == 1
    assert run(["analyze", "--fixture", "plane", "--grid", "1:0:2,0:1:2"]) == 1
    assert run(["analyze", "--fixture", "torus"]) == 1
    # a grid count is an integer, never truncated and never a boolean
    cfgp = tmp_path / "cfg.json"
    for count in (2.7, 2.0, True):
        cfgp.write_text(json.dumps({"grid": [[0, 1, count], [0, 1, 2]]}))
        capsys.readouterr()
        assert run(["analyze", "--fixture", "plane", "--config", str(cfgp),
                    "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()
    # nor is a tolerance a boolean: float(True) would read 1.0
    cfgp.write_text(json.dumps({"tolerances": {"eps_rank": True}}))
    assert run(["analyze", "--fixture", "n5", "--config", str(cfgp),
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: tolerance eps_rank needs a number, got True\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--fixture", "n5", "--tol", "circle=inf"],
    ["analyze", "--fixture", "plane", "--tol", "eps_deg=nan"],
    ["analyze", "--fixture", "plane", "--grid", "0:inf:3,0:1:3"],
    ["analyze", "--fixture", "plane", "--grid", "0:1:3,nan:1:3"],
    ["export", "--fixture", "veronese", "--grid", "0:0.5:3,0:0.5:3",
     "--projection", "3,1,3"],
])
def test_non_finite_and_repeated_inputs_are_bad_input(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_eps_deg_tolerance_takes_effect(tmp_path):
    """A metric floor above every metric eigenvalue makes every point
    singular: each analyze row, and each bundle row, so both fail."""
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "n5", "--grid", "0:0.3:3,0:0.3:3",
                "--tol", "eps_deg=100", "--out", str(out)]) == 2
    doc = load(out)
    assert doc["tolerances"]["eps_deg"] == 100.0
    assert all(r["singular"] for r in doc["rows"]) and len(doc["rows"]) == 9
    assert doc["summary"]["singular"] == 9
    assert run(["bundle", "--kind", "bipolar", "--fixture", "n5",
                "--grid", f"0:0.2:2,0:0.2:2,0:{TWO_PI}:2",
                "--tol", "eps_deg=100", "--out", str(out)]) == 2
    doc = load(out)
    assert doc["summary"]["singular"] == doc["summary"]["points"] == 8
    assert all(r["skipped"] == "singular" for r in doc["splitting"])
    assert run(["generate", "--fixture", "n5", "--tol", "eps_deg=100",
                "--out", str(out)]) == 2
    assert all(r["singular"] for r in load(out)["spot_checks"])


def test_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"frobs\": 1}")
    assert run(["analyze", "--config", str(bad)]) == 1
    bad.write_text("not json")
    assert run(["analyze", "--config", str(bad)]) == 1
    assert run(["analyze", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("seed", ["abc", True, None, 1.5])
def test_config_seed_must_be_an_integer(tmp_path, capsys, seed):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"fixture": "random-n5", "seed": seed}))
    assert run(["generate", "--config", str(cfgp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be an integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fixture", ["n5", "random-n5"])
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("by_flag", [True, False])
def test_seed_must_fit_64_bits(tmp_path, capsys, fixture, seed, by_flag):
    """A report writes the seed as an unsigned 64-bit integer; one outside
    that range is bad input, from the flag or the config alike."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({} if by_flag else {"seed": seed}))
    argv = ["analyze", "--fixture", fixture, "--config", str(cfgp),
            "--out", str(tmp_path / "r.json")]
    assert run(argv + ([f"--seed={seed}"] if by_flag else [])) == 1
    err = capsys.readouterr().err
    assert err == f"error: seed must be in 0 .. 2**64 - 1, got {seed}\n"
    assert not (tmp_path / "r.json").exists()


def test_largest_seed_is_written(tmp_path):
    out = tmp_path / "r.json"
    assert run(["generate", "--fixture", "random-n5", f"--seed={2**64 - 1}",
                "--out", str(out)]) == 0
    assert _strict(out)["seed"] == 2**64 - 1


@pytest.mark.parametrize("count", [2**53, 2**62, 2**63 - 1])
def test_huge_splitting_point_counts_exit_at_once(tmp_path, capsys, count):
    """A count whose sample parameters would repeat is refused before any
    point is made (numpy's arange returns no points at all near 2**63)."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": count}))
    start = time.process_time()
    assert run(["bundle", "--kind", "bipolar", "--fixture", "n5",
                "--config", str(cfgp)]) == 1
    assert time.process_time() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: splitting_points must be a nonnegative "
                          "integer below 2**53")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("params", [1]), ("params", None), ("tolerances", [1]),
    ("tolerances", "ode=1"), ("splitting_points", True),
    ("splitting_points", -1), ("fixture", 5), ("grid", 5),
    ("projection", 5), ("out", 5), ("final_integration", "no"),
])
def test_config_fields_are_type_checked(tmp_path, capsys, field, value):
    # no flags: a flag would override the field under test
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({field: value}))
    assert run(["bundle", "--config", str(cfgp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be a")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, fixture, params", [
    ("analyze", "curve-1-2-3", {"pad": [1]}),
    ("analyze", "curve-1-2-3", {"pad": 1.5}),
    ("analyze", "veronese", {"zzz": 1}),
    ("analyze", "plane", {"pad": True}),
    ("analyze", "plane", {"pad": 2.0}),
    ("analyze", "plane", {"radius": 1}),
    ("export", "geodesic-sphere", {"radius": "0.5"}),
    ("analyze", "n5", {"pad": 2}),
    ("generate", "random-n5", {"pad": 2}),
])
def test_fixture_params_are_checked(tmp_path, capsys, command, fixture,
                                    params):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"fixture": fixture, "params": params}))
    assert run([command, "--config", str(cfgp), "--grid",
                "0.6:0.8:2,0.6:0.8:2" + (",0:1:2" if command == "export"
                                         else ""),
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(params)) in err
    assert err.count("\n") == 1


def _bundle_args(tmp_path):
    return ["bundle", "--kind", "bipolar", "--fixture", "n5",
            "--grid", f"0:0.2:2,0:0.2:2,0:{TWO_PI}:2",
            "--out", str(tmp_path / "r.json")]


def test_nan_mean_curvature_fails_and_report_is_strict_json(tmp_path,
                                                           monkeypatch):
    real = bundles._nullity
    calls = []

    def nan_at_first_point(*args):
        nu, sv, H, regular = real(*args)
        calls.append(len(H))
        if len(calls) == 1:
            # the sweep is one batched call: NaN at its first point
            H = H.copy()
            H[0] = math.nan
        return nu, sv, H, regular

    monkeypatch.setattr(bundles, "_nullity", nan_at_first_point)
    args = _bundle_args(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 0}))
    assert run(args + ["--config", str(cfgp)]) == 2
    text = (tmp_path / "r.json").read_text()

    def reject(const):
        raise ValueError(f"non-finite number {const} in the report")

    doc = json.loads(text, parse_constant=reject)
    assert doc["rows"][0]["H"] is None
    assert doc["summary"]["H_max"] is None
    assert doc["verdicts"]["mean_curvature"] is False
    assert doc["verdicts"]["nullity"] is True
    assert doc["pass"] is False
    # a non-finite null residual fails the identities the same way: input
    # coefficients of 1e90 overflow the recursion
    cfgp.write_text(json.dumps({"surface": {
        "n": 5, "alpha0": [[[1e90, 0.0], [1e90, 1.0]]]}}))
    out = tmp_path / "g.json"
    assert run(["generate", "--config", str(cfgp), "--out", str(out)]) == 2
    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["verdicts"]["identities"] is False
    assert doc["residuals"]["alpha2_null"] is None


def _reject(const):
    raise ValueError(f"non-finite number {const} in the report")


def _strict(path):
    """The report at path; ValueError unless it is strict JSON."""
    return json.loads(path.read_text(), parse_constant=_reject)


def test_analyze_rows_write_non_finite_numbers_as_null(tmp_path,
                                                       monkeypatch):
    """A non-finite ellipse residual, semiaxis and ellipticity coefficient
    from the stacked passes come out of an analyze row as null; a point
    whose order-0 residual is not finite has no circular order."""
    ellipse_pass, ellipticity_pass = geo._ellipse_pass, geo._ellipticity_pass

    def nan_ellipse(*args):
        semiaxes, residuals = ellipse_pass(*args)
        semiaxes[0, 0, 0] = math.inf
        residuals[0, 0] = math.nan
        return semiaxes, residuals

    def nan_coeff(*args):
        exists, tg, coeffs, Jm = ellipticity_pass(*args)
        coeffs[0, 1] = math.nan
        return exists, tg, coeffs, Jm

    monkeypatch.setattr(geo, "_ellipse_pass", nan_ellipse)
    monkeypatch.setattr(geo, "_ellipticity_pass", nan_coeff)
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "n5", "--out", str(out)]) == 0
    first, second = _strict(out)["rows"][:2]
    assert first["ellipses"][0]["residual"] is None
    assert first["ellipses"][0]["semiaxes"][0] is None
    assert first["coeffs"][1] is None
    assert first["order"] == -1
    assert second["ellipses"][0]["residual"] is not None
    assert second["order"] >= 0


def test_bundle_rows_write_non_finite_singular_values_as_null(tmp_path,
                                                              monkeypatch):
    real = bundles._nullity

    def nan_sv(*args):
        nu, sv, H, regular = real(*args)
        sv = sv.copy()
        sv[0, 0] = math.nan   # not read by a verdict
        sv[1, -1] = math.inf  # the smallest, read by the nullity verdict
        return nu, sv, H, regular

    monkeypatch.setattr(bundles, "_nullity", nan_sv)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 0}))
    assert run(_bundle_args(tmp_path) + ["--config", str(cfgp)]) == 2
    doc = _strict(tmp_path / "r.json")
    assert doc["rows"][0]["sv"][0] is None
    assert doc["rows"][1]["sv"][-1] is None
    assert doc["rows"][0]["H"] is not None
    assert doc["summary"]["sv_min_max"] is None
    assert doc["verdicts"] == {"mean_curvature": True, "nullity": False,
                               "splitting_span": True, "splitting_ode": True}


def test_splitting_rows_write_non_finite_residuals_as_null(tmp_path,
                                                           monkeypatch):
    real = bundles._splitting_scalars

    def nan_span(*args):
        fields, framed = real(*args)
        fields["span_residual"] = np.full_like(fields["span_residual"],
                                               math.nan)
        return fields, framed

    monkeypatch.setattr(bundles, "_splitting_scalars", nan_span)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 1}))
    out = tmp_path / "r.json"
    assert run(["bundle", "--kind", "bipolar", "--fixture", "n5",
                "--config", str(cfgp), "--out", str(out)]) == 2
    doc = _strict(out)
    (row,) = doc["splitting"]
    assert row["skipped"] is None and row["error"] is None
    assert row["span_residual"] is None
    assert all(isinstance(v, float) for v in row["ode_residuals"].values())
    assert doc["verdicts"]["splitting_span"] is False
    assert doc["verdicts"]["splitting_ode"] is True


_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _sorted_object(pairs):
    assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
    return dict(pairs)


def _compact(text: str):
    """The value of one line's JSON text, which must be strict JSON with
    sorted keys and no whitespace outside its string literals."""
    assert not re.search(r"\s", _STRING.sub("", text)), text
    return json.loads(text, parse_constant=_reject,
                      object_pairs_hook=_sorted_object)


def _assert_layout(text: str, built: dict) -> dict:
    """One line per top-level key, sorted, holding the value's compact
    JSON; a nonempty list of objects or of lists opens a block instead,
    with one compact line per element. Each compact line parses to its
    value in the document as built. Returns the document."""
    doc = json.loads(json.dumps(built, allow_nan=False))
    lines = iter(text.splitlines())
    assert next(lines) == "{"
    keys = sorted(doc)
    for key in keys:
        value, sep = doc[key], "," if key != keys[-1] else ""
        head = f"  {json.dumps(key)}: "
        line = next(lines)
        assert line.startswith(head)
        if (isinstance(value, list) and value
                and (all(isinstance(r, dict) for r in value)
                     or all(isinstance(r, list) for r in value))):
            assert line == head + "["
            for i, row in enumerate(value):
                line = next(lines)
                last = i == len(value) - 1
                assert line.startswith("    ") and line.endswith(",") != last
                assert _compact(line[4:] if last else line[4:-1]) == row
            assert next(lines) == "  ]" + sep
        else:
            assert line.endswith(sep)
            assert _compact(line[len(head):len(line) - len(sep)]) == value
    assert next(lines) == "}"
    assert next(lines, None) is None
    return doc


def test_report_layout_is_one_compact_line_per_row(tmp_path, monkeypatch):
    """Sorted keys, one line per top-level key, one line per row that is
    the row's own compact JSON (the rows of an analyze sweep, and the
    coefficient lists of a generate report), each line the same value as
    the document as built; the document needs no conversion."""
    built = []
    real = cli.report_text
    monkeypatch.setattr(cli, "report_text",
                        lambda doc: built.append(doc) or real(doc))
    out = tmp_path / "r.json"
    for argv in (["analyze", "--fixture", "n5"],
                 ["generate", "--fixture", "n8"]):
        assert run(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        doc = _assert_layout(text, built[-1])
        lines = text.splitlines()
        if argv[0] == "analyze":
            assert len(doc["rows"]) == 81
            assert lines.count('  "rows": [') == 1
        else:
            assert len(doc["phi2"]) == 8
            for key in ("alpha1", "alpha2", "phi2"):
                start = lines.index(f'  "{key}": [')
                assert _compact(lines[start + 1][4:-1]) == doc[key][0]


def test_report_text_writes_numpy_numbers_and_non_finite_as_null():
    text = cli.report_text({
        "rows": [{"H": np.float64(0.1), "sv": np.array([2.5, math.inf])},
                 {"H": math.nan, "sv": [-math.inf, 1.0]}],
        "value": np.float64(0.1), "missing": math.nan,
        "values": np.array([1.5, math.inf])}).decode()
    assert json.loads(text, parse_constant=_reject) == {
        "rows": [{"H": 0.1, "sv": [2.5, None]}, {"H": None, "sv": [None, 1.0]}],
        "value": 0.1, "missing": None, "values": [1.5, None]}


def test_linalg_error_is_a_numerical_breakdown(tmp_path, capsys,
                                               monkeypatch):
    def breakdown(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(bundles, "_nullity", breakdown)
    assert run(_bundle_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "numerical breakdown: SVD did not converge\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--fixture", "n5", "--grid=0:1e200:2,0:1:2"],
    ["bundle", "--kind", "bipolar", "--fixture", "n5",
     "--grid=0:1e200:2,0:1:2,0:1:2"],
    ["export", "--fixture", "n5", "--grid=0:1e200:2,0:1:2"],
])
def test_overflowing_chart_value_is_a_numerical_breakdown(tmp_path, capsys,
                                                          argv):
    """A chart with finite coefficients has finite values, so a value that
    is not finite at a finite point is an overflow: exit 2 with one line,
    no warning (pytest makes a RuntimeWarning an error) and no report."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical breakdown: weierstrass-n5-int "
                          "overflows at (")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--fixture", "n5", "--grid=0:1e60:3,0:1:2"],
    ["bundle", "--kind", "bipolar", "--fixture", "n5",
     "--grid=0:1e60:2,0:1:2,0:1:2"],
])
def test_overflow_past_the_chart_is_a_numerical_breakdown(tmp_path, capsys,
                                                          argv):
    """Chart values near 1e300 are finite, but the metric of `analyze`
    and the jet products of the bipolar frame overflow: exit 2 with one
    `numerical breakdown` line, no warning and no report, never a sweep
    that files the overflowed points as singular."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical breakdown: overflow")
    assert "PASS" not in captured.out and not out.exists()


def test_generate_writes_trimmed_polynomials(tmp_path):
    """Trailing zero pairs leave the polynomials of a report, and a zero
    polynomial is []: in the data, in alpha1, alpha2 and phi2."""
    surface = {"n": 6,
               "alpha0": [[[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, 0.0]]],
               "beta1": [[1.0, 0.0], [0.25, 0.0], [0.0, 0.0]],
               "beta2": [[1.0, 0.0], [0.0, 0.0]],
               "int_constants": {"phi2": [[0.5, 0.0]] * 6}}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"surface": surface}))
    out = tmp_path / "r.json"
    assert run(["generate", "--config", str(cfgp), "--out", str(out)]) == 0
    doc = _strict(out)
    assert doc["data"] == {
        "n": 6, "alpha0": [[[1.0, 0.0], [0.0, 0.5]], []],
        "beta1": [[1.0, 0.0], [0.25, 0.0]], "beta2": [[1.0, 0.0]],
        "int_constants": surface["int_constants"],
        "final_integration": True}
    for key, rows in (("alpha1", 4), ("alpha2", 6), ("phi2", 6)):
        assert len(doc[key]) == rows
        assert all(p[-1] != [0.0, 0.0] for p in doc[key] if p)
    # the zero component of alpha0 stays zero until the constant of phi2
    assert doc["alpha1"][3] == [] and doc["alpha2"][5] == []
    assert doc["phi2"][5] == [[0.5, 0.0]]


def test_flags_override_config(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"fixture": "plane",
                                "grid": "0:1:9,0:1:9"}))
    out = tmp_path / "r.json"
    assert run(["analyze", "--config", str(cfgp),
                "--grid", "0:1:2,0:1:2", "--out", str(out)]) == 0
    doc = load(out)
    assert doc["grid"] == [[0.0, 1.0, 2], [0.0, 1.0, 2]]
    assert doc["summary"]["points"] == 4


def _count_evals(monkeypatch) -> list[int]:
    """Domain dimension of the chart at every point of every chart
    evaluation (a batched evaluation counts its points)."""
    calls = []
    real = geo.ImmersionChart.eval_jets

    def counted(chart, point, order):
        calls.extend([chart.domain_dim]
                     * len(np.reshape(point, (-1, chart.domain_dim))))
        return real(chart, point, order)

    monkeypatch.setattr(geo.ImmersionChart, "eval_jets", counted)
    return calls


def _count_nullity(monkeypatch) -> list[int]:
    """The number of points of every nullity pass."""
    calls = []
    real = bundles._nullity

    def counted(chart, jets, *args):
        calls.append(len(jets))
        return real(chart, jets, *args)

    monkeypatch.setattr(bundles, "_nullity", counted)
    return calls


def test_bundle_evaluates_each_splitting_point_once(tmp_path, monkeypatch):
    """One evaluation of the bundle chart, at order 4, covers the sweep
    rows and the splitting points together, and the base is evaluated
    once, for the frames, at the distinct (u, v) of both: its isotropy is
    read off its curve."""
    evals = []
    real = geo.ImmersionChart.eval_jets

    def counted(chart, point, order):
        evals.append((chart.domain_dim, len(np.reshape(
            point, (-1, chart.domain_dim))), order))
        return real(chart, point, order)

    monkeypatch.setattr(geo.ImmersionChart, "eval_jets", counted)
    base_calls = _count_jet_fn_calls(monkeypatch, cli, "resolve_chart")
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 2}))
    assert run(_bundle_args(tmp_path) + ["--config", str(cfgp)]) == 0
    doc = load(tmp_path / "r.json")
    assert all(r["skipped"] is None and r["error"] is None
               for r in doc["splitting"])
    assert doc["summary"]["points"] == 8
    assert [e for e in evals if e[0] == 3] == [(3, 10, 4)]
    [(frame_vars, frames)] = base_calls
    # the 2x2 base grid and the 2 splitting points off it
    assert (frame_vars, frames.shape) == (2, (6, 2))
    assert len(np.unique(frames, axis=0)) == 6


def test_generate_evaluates_each_spot_point_once(tmp_path, monkeypatch):
    calls = _count_evals(monkeypatch)
    assert run(["generate", "--fixture", "n6",
                "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [2] * len(cli.SPOT_POINTS)


def test_bundle_splitting_skips_report_nullity(tmp_path):
    out = tmp_path / "r.json"
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 2}))
    assert run(["bundle", "--kind", "bipolar", "--fixture", "curve-1-2-pad1",
                "--grid", f"0.1:0.5:2,0.1:0.5:2,0:{TWO_PI}:2",
                "--config", str(cfgp), "--out", str(out)]) == 0
    doc = load(out)
    assert doc["summary"]["nullity_values"] == [3]
    assert [(r["skipped"], r["error"]) for r in doc["splitting"]] == [
        ("nullity 3 != 1", None)] * 2


def test_undetermined_nullity_line_is_an_error_row(tmp_path, capsys,
                                                   monkeypatch):
    """A splitting point whose nullity line is undetermined is attempted
    and reports the error in its row, and it fails both splitting
    verdicts; the other point of the same pass is measured. The point on
    its own gives the same row."""
    real = bundles._nullity_field

    def undetermined_first(*args):
        T, G, det, determined, unit = real(*args)
        determined = determined.copy()
        determined[0] = False
        return T, G, det, determined, unit & determined

    monkeypatch.setattr(bundles, "_nullity_field", undetermined_first)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 2}))
    assert run(_bundle_args(tmp_path) + ["--config", str(cfgp)]) == 2
    doc = _strict(tmp_path / "r.json")
    first, second = doc["splitting"]
    assert first == {"point": first["point"], "skipped": None,
                     "error": "nullity line undetermined: the adjugate of "
                              "alpha alpha^T vanishes"}
    assert second["error"] is None and second["span_residual"] < 1e-6
    assert doc["verdicts"]["splitting_span"] is False
    assert doc["verdicts"]["splitting_ode"] is False
    assert "splitting span: FAIL (2 points)" in capsys.readouterr().out
    bc = bundles.unit_tangent_chart(cli.W.generate_surface(
        cli.catalog.demo_weierstrass_data(5)).chart)
    alone = bundles.sweep_and_split(bc.chart, [], [first["point"]])[1]
    assert alone == [first]


@pytest.mark.parametrize("config, tol, code", [
    ({"splitting_points": 0}, [], 0),
    # every one of the 200 rows is singular: the 4 splitting points too
    ({}, ["--tol", "eps_deg=1e300"], 2)])
def test_splitting_verdicts_with_no_point_attempted_are_vacuous(
        tmp_path, capsys, config, tol, code):
    """With no splitting point attempted, the splitting lines read VACUOUS
    (they check nothing), where any attempted point gives PASS or FAIL;
    the report's verdicts, pass and the exit code do not change."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(config))
    args = ["bundle", "--kind", "bipolar", "--fixture", "n5", *tol,
            "--config", str(cfgp), "--out", str(tmp_path / "r.json")]
    assert run(args) == code
    out = capsys.readouterr().out
    assert "splitting span: VACUOUS (0 points)\n" in out
    assert "splitting equations: VACUOUS (0 points)\n" in out
    assert "PASS (0 points)" not in out
    doc = load(tmp_path / "r.json")
    assert doc["verdicts"]["splitting_span"] is True
    assert doc["verdicts"]["splitting_ode"] is True
    assert doc["pass"] is (code == 0)
    assert all(r["skipped"] is not None for r in doc["splitting"])


def test_analyze_warns_of_unresolved_rows(tmp_path, capsys):
    """A row whose flag ranks or circles sit near their thresholds carries
    a note in the report, and analyze prints one warning with their count;
    a report with none has neither."""
    out = tmp_path / "r.json"
    deep = "curve-" + "-".join(str(p) for p in range(1, 21))
    assert run(["analyze", "--fixture", deep, "--out", str(out)]) == 0
    noted = [r for r in load(out)["rows"] if "note" in r]
    assert noted and all(r["note"] == geo.UNRESOLVED for r in noted)
    warning = (f"warning: {len(noted)} of 81 points have the note: "
               f"{geo.UNRESOLVED}\n")
    assert warning in capsys.readouterr().out
    assert run(["analyze", "--fixture", "n5", "--out", str(out)]) == 0
    assert not [r for r in load(out)["rows"] if "note" in r]
    assert "warning" not in capsys.readouterr().out


@pytest.mark.parametrize("how", ["flag", "config"])
def test_leftover_jet_order_is_bad_input(tmp_path, capsys, how):
    """The chart sets the flag depth, and no option does: a leftover
    `--jet-order` or config `jet_order` is bad input, one `error:` line
    with no traceback and no report. Without it, the report reads the
    whole flag and has no `jet_order` key."""
    out = tmp_path / "r.json"
    argv = ["analyze", "--fixture", "curve-1-2-3-4-5", "--out", str(out)]
    assert run(argv) == 0
    doc = load(out)
    assert "jet_order" not in doc
    assert doc["certificate"]["dims"] == [2, 2, 2, 2, 2]
    out.unlink()
    if how == "flag":
        extra, name = ["--jet-order", "4"], "--jet-order"
    else:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"jet_order": 4}))
        extra, name = ["--config", str(cfgp)], "jet_order"
    capsys.readouterr()
    assert run(argv + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_with_a_zero_width_complement(tmp_path):
    """curve-1, z -> z in R^2, fills its ambient space with its tangent
    plane: the complement of the tangent stage has no column, and every
    row reads dims [2], tau 0 and order 0."""
    chart = cli.resolve_chart(cli.load_config(cli.build_parser().parse_args(
        ["analyze", "--fixture", "curve-1"])))
    jets = chart.eval_jets(geo.grid_points(geo.grid_axes(chart, (9, 9))), 2)
    assert geo._tangent_stage(chart, jets, geo.EPS_DEG)[3].shape == (81, 2, 0)
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "curve-1", "--out", str(out)]) == 0
    rows = load(out)["rows"]
    assert len(rows) == 81
    assert {(tuple(r["dims"]), r["tau"], r["order"]) for r in rows} == {
        ((2,), 0, 0)}


@pytest.mark.parametrize("fixture", ["n5", "n6", "curve-1-3-pad1"])
def test_analyze_certificate_matches_nicely_curved_certificate(tmp_path,
                                                               fixture):
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", fixture, "--out", str(out)]) == 0
    chart = cli.resolve_chart(cli.load_config(cli.build_parser().parse_args(
        ["analyze", "--fixture", fixture])))
    dims = []
    for p in geo.grid_points(geo.grid_axes(chart, (9, 9))):
        try:
            dims.append(oracles.flag_per_point(chart, p)[0])
        except DegeneratePoint:
            dims.append(None)
    assert load(out)["certificate"] == geo.flag_certificate(dims)


# Random config documents. The fixture, kind, grid and out are always set,
# any other field one time in three. A set field holds a value of a type that
# CONFIG_TYPES accepts: one that should run (seven times in eight) or one
# that its own checks should reject. One time in four, one field then holds
# a value of any JSON type instead. Grids never exceed 3 points per axis and
# are never null (that means the default grid, up to 200 points).
_FINITE = st.floats(-1.0, 1.0)
_NUMBER = _FINITE | st.sampled_from([math.inf, -math.inf, math.nan])
_NOT_NULL = st.one_of(
    st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


def _grids(axes):
    return axes | axes.map(
        lambda a: ",".join(":".join(str(x) for x in axis) for axis in a))


def _surfaces(number):
    poly = st.lists(st.tuples(number, number).map(list), min_size=1,
                    max_size=3)
    return st.integers(4, 6).flatmap(lambda n: st.fixed_dictionaries({
        "n": st.just(n), "beta1": poly, "beta2": poly,
        "alpha0": st.lists(poly, min_size=n - 4, max_size=n - 4)}))


_GOOD_AXIS = st.tuples(st.floats(-1.0, 0.0), st.floats(0.1, 1.0),
                       st.integers(1, 3)).map(lambda a: [a[0], a[0] + a[1],
                                                         a[2]])
_GOOD = {
    "fixture": st.sampled_from(["n5", "n6", "n8", "random-n5", "plane",
                                "veronese", "great-sphere", "geodesic-sphere",
                                "curve-1-2-3", "curve-1-2-pad1",
                                "curve-1-3-pad1"]),
    "kind": st.sampled_from(["bipolar", "polar"]),
    "projection": st.sampled_from(["principal", "1,2,3", "3,1,2"]) | st.none(),
    "out": st.sampled_from(["report"]) | st.none(),
    "grid": _grids(st.lists(_GOOD_AXIS, min_size=2, max_size=2)
                   | st.lists(_GOOD_AXIS, min_size=3, max_size=3)),
    "surface": _surfaces(_FINITE) | st.none(),
    "params": st.just({}),
    "tolerances": st.dictionaries(st.sampled_from(sorted(cli.DEFAULT_TOLS)),
                                  st.floats(1e-12, 1e3), max_size=3),
    "seed": st.integers(0, 2**40),
    "splitting_points": st.integers(0, 2),
    "final_integration": st.booleans(),
}
_BAD = {
    "fixture": st.sampled_from(["n3", "n4", "random-n3", "torus"]) | st.none(),
    "kind": st.sampled_from(["tangent", ""]) | st.none(),
    "projection": st.sampled_from(["1,1,2", "0,1,2", "1,2", "x"]),
    "out": st.just("directory"),
    "grid": _grids(st.lists(st.tuples(_NUMBER, _NUMBER,
                                      st.integers(-1, 3)).map(list),
                            min_size=1, max_size=4)),
    "surface": _surfaces(_NUMBER) | st.dictionaries(
        st.sampled_from(["n", "alpha0", "beta1", "int_constants", "zzz"]),
        _NOT_NULL,
        max_size=3),
    "params": st.sampled_from([{"pad": 0}, {"pad": 2}, {"radius": 0.5},
                               {"radius": -1.0}, {"zzz": 1}]),
    "tolerances": st.dictionaries(
        st.sampled_from(sorted(cli.DEFAULT_TOLS) + ["zzz"]),
        _NUMBER | st.text(max_size=3), min_size=1, max_size=3),
    "seed": st.integers(-5, -1),
    "splitting_points": st.just(-1),
    "final_integration": st.booleans(),
}


@st.composite
def _configs(draw):
    config = {}
    for field in cli.CONFIG_TYPES:
        # hypothesis favours the ends of a range, so the rare cases are
        # inner values
        if field in ("fixture", "kind", "grid", "out") or draw(
                st.integers(0, 2)) == 1:
            bad = draw(st.integers(0, 7)) == 3
            config[field] = draw((_BAD if bad else _GOOD)[field])
    if draw(st.integers(0, 3)) == 2:
        config[draw(st.sampled_from(sorted(cli.CONFIG_TYPES)))] = draw(
            _NOT_NULL)
    return config


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), config=_configs())
def test_random_configs_exit_cleanly(command, config):
    """Any config document gives exit 0-3 without raising, and bad input
    (exit 1) gives exactly one `error:` line."""
    with tempfile.TemporaryDirectory() as tmp:
        if config.get("out") == "report":
            config["out"] = os.path.join(tmp, "report")
        elif config.get("out") == "directory":
            config["out"] = tmp
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
    assert code in (0, 1, 2, 3)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("command", ["bundle", "export"])
def test_polar_export_and_bundle_apply_the_tolerances(tmp_path, capsys,
                                                      command):
    """export builds the polar chart with the run's tolerances, as bundle
    does: a metric floor above every metric eigenvalue refuses the base."""
    out = tmp_path / "out"
    assert run([command, "--kind", "polar", "--fixture", "veronese",
                "--tol", "eps_deg=100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_surface_document_can_skip_the_final_integration(tmp_path):
    """The final integration is skipped when the surface document, the
    config field or the flag says so."""
    surface = {"n": 5, "alpha0": [[[1, 0]]]}
    cases = [({"surface": {**surface, "final_integration": False}}, [], False),
             ({"surface": surface, "final_integration": False}, [], False),
             ({"surface": surface}, ["--no-final-integration"], False),
             ({"surface": {**surface, "final_integration": True}}, [], True)]
    for config, flags, final in cases:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        code = run(["generate", "--config", str(cfgp), "--out", str(out)]
                   + flags)
        doc = load(out)
        assert doc["final_integration"] is final
        assert doc["data"]["final_integration"] is final
        assert code == (0 if final else 2)


def _count_jet_fn_calls(monkeypatch, owner, name, attr=None):
    """Wrap the jet_fn of the chart that owner.name returns (of its attr,
    when given); returns the (space variables, points) of every call."""
    calls = []
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        chart = out if attr is None else getattr(out, attr)
        fn = chart.jet_fn

        def jet_fn(points, space):
            calls.append((space.nvars, np.array(points)))
            return fn(points, space)
        chart.jet_fn = jet_fn
        return out

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_bundle_sweep_is_one_batched_evaluation(tmp_path, monkeypatch):
    """A default bipolar n5 run evaluates the base once, for the frames,
    at the 25 distinct (u, v) of the grid and the 4 of the splitting
    points, and runs no `point_rows`: the base's isotropy is read off its
    curve. One call of the bundle
    chart's evaluator assembles the 200 sweep rows and the splitting
    points from those frames, and one nullity pass covers all 204 points.
    A per-point sweep or splitting loop fails this."""
    base_calls = _count_jet_fn_calls(monkeypatch, cli, "resolve_chart")
    bundle_calls = _count_jet_fn_calls(monkeypatch, bundles,
                                       "unit_tangent_chart", "chart")
    nullity = _count_nullity(monkeypatch)
    rows = []
    monkeypatch.setattr(geo, "point_rows",
                        lambda *a, **k: rows.append(a) or [])
    assert run(["bundle", "--kind", "bipolar", "--fixture", "n5",
                "--out", str(tmp_path / "r.json")]) == 0
    assert [(nv, p.shape) for nv, p in bundle_calls] == [(3, (204, 3))]
    [(frame_vars, frames)] = base_calls
    assert (frame_vars, frames.shape) == (2, (29, 2))
    assert len(np.unique(frames, axis=0)) == 29
    assert nullity == [204] and rows == []


def test_analyze_is_one_batched_evaluation(tmp_path, monkeypatch):
    calls = _count_jet_fn_calls(monkeypatch, cli, "resolve_chart")
    assert run(["analyze", "--fixture", "n5",
                "--out", str(tmp_path / "r.json")]) == 0
    assert [(nv, p.shape) for nv, p in calls] == [(2, (81, 2))]


def test_generate_spot_points_are_one_batched_evaluation(tmp_path,
                                                        monkeypatch):
    calls = _count_jet_fn_calls(monkeypatch, cli.W, "generate_surface", "chart")
    assert run(["generate", "--fixture", "n6",
                "--out", str(tmp_path / "r.json")]) == 0
    assert [(nv, p.shape) for nv, p in calls] == [(2, (3, 2))]
    assert np.array_equal(calls[0][1], cli.SPOT_POINTS)


def test_polar_bundle_evaluates_the_base_once_before_the_sweep(
        tmp_path, monkeypatch):
    """The 9x9 base check (one batched call, whose centre row is the probe)
    comes before the one frame evaluation, at the 25 distinct (u, v) of the
    default grid and the 4 of the splitting points; one nullity pass covers
    the 200 sweep rows and the 4 splitting points."""
    calls = _count_jet_fn_calls(monkeypatch, cli, "resolve_chart")
    nullity = _count_nullity(monkeypatch)
    assert run(["bundle", "--kind", "polar", "--fixture", "veronese",
                "--out", str(tmp_path / "r.json")]) == 0
    (_, cert), (frame_vars, frames), *rest = calls
    assert cert.shape == (81, 2)
    assert (frame_vars, frames.shape) == (2, (29, 2))
    assert rest == []
    assert nullity == [204]
