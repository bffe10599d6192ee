"""Command line driver: exit codes, report documents, OBJ output."""
import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isomin import bundles, cli, geometry as geo


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


def test_bundle_polar_collapse_exits_3(capsys):
    assert run(["bundle", "--kind", "polar",
                "--fixture", "great-sphere"]) == 3
    assert "no first normal space" in capsys.readouterr().err


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


def test_generate_with_no_regular_spot_point_fails(tmp_path, monkeypatch):
    def singular(chart, point, **kw):
        return {"point": list(point), "singular": True, "ellipses": []}

    monkeypatch.setattr(geo, "point_report", singular)
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
    assert run(["analyze", "--fixture", "plane", "--jet-order", "9"]) == 1
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
    singular: each analyze row, and each bundle row, so bundle fails."""
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", "n5", "--grid", "0:0.3:3,0:0.3:3",
                "--tol", "eps_deg=100", "--out", str(out)]) == 0
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
    real = bundles.relative_nullity
    calls = []

    def nan_at_first_point(chart, points, **kw):
        rep = real(chart, points, **kw)
        calls.append(points)
        if len(calls) == 1:
            # the sweep is one batched call: NaN at its first point
            H = rep.mean_curvature_norm.copy()
            H[0] = math.nan
            rep = dataclasses.replace(rep, mean_curvature_norm=H)
        return rep

    monkeypatch.setattr(bundles, "relative_nullity", nan_at_first_point)
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


def test_linalg_error_is_a_numerical_breakdown(tmp_path, capsys,
                                               monkeypatch):
    def breakdown(chart, point, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(bundles, "relative_nullity", breakdown)
    assert run(_bundle_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "numerical breakdown: SVD did not converge\n"


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


def test_bundle_evaluates_each_splitting_point_once(tmp_path, monkeypatch):
    calls = _count_evals(monkeypatch)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"splitting_points": 2}))
    assert run(_bundle_args(tmp_path) + ["--config", str(cfgp)]) == 0
    doc = load(tmp_path / "r.json")
    assert all(r["skipped"] is None and r["error"] is None
               for r in doc["splitting"])
    assert calls.count(3) == doc["summary"]["points"] + 2 == 10


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


@pytest.mark.parametrize("fixture", ["n5", "n6", "curve-1-3-pad1"])
def test_analyze_certificate_matches_nicely_curved_certificate(tmp_path,
                                                               fixture):
    out = tmp_path / "r.json"
    assert run(["analyze", "--fixture", fixture, "--out", str(out)]) == 0
    chart = cli.resolve_chart(cli.load_config(cli.build_parser().parse_args(
        ["analyze", "--fixture", fixture])))
    want = geo.nicely_curved_certificate(chart, counts=(9, 9))
    assert load(out)["certificate"] == want


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
    "jet_order": st.integers(2, 6) | st.none(),
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
    "jet_order": st.sampled_from([0, 1, 7]),
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


def test_bundle_sweep_is_one_batched_evaluation(tmp_path, monkeypatch):
    """A default bipolar n5 run evaluates the bundle chart once for the
    200-point sweep, and the base once at the 25 distinct (u, v) of the
    grid. The centre isotropy probe and the four splitting points come on
    top, one point each. A per-point sweep loop fails this."""
    base_calls, bundle_calls = [], []

    def counting(fn, log):
        def jet_fn(points, space):
            log.append((space.nvars, np.array(points)))
            return fn(points, space)
        return jet_fn

    real_resolve, real_tangent = cli.resolve_chart, bundles.unit_tangent_chart

    def resolve(cfg):
        base = real_resolve(cfg)
        base.jet_fn = counting(base.jet_fn, base_calls)
        return base

    def tangent(base, *args, **kwargs):
        bc = real_tangent(base, *args, **kwargs)
        bc.chart.jet_fn = counting(bc.chart.jet_fn, bundle_calls)
        return bc

    monkeypatch.setattr(cli, "resolve_chart", resolve)
    monkeypatch.setattr(bundles, "unit_tangent_chart", tangent)
    assert run(["bundle", "--kind", "bipolar", "--fixture", "n5",
                "--out", str(tmp_path / "r.json")]) == 0
    assert [len(p) for _, p in bundle_calls] == [200, 1, 1, 1, 1]
    (probe_vars, probe), (sweep_vars, sweep), *split = base_calls
    assert (probe_vars, probe.shape) == (2, (1, 2))
    assert (sweep_vars, sweep.shape) == (3, (25, 2))
    assert len(np.unique(sweep, axis=0)) == 25
    assert [(nv, p.shape) for nv, p in split] == [(3, (1, 2))] * 4
