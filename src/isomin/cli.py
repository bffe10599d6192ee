"""Command line front end: generate, analyze, bundle, export.

One executable drives the whole workbench: `generate` builds a minimal
surface from polynomial data and checks its null identities and circle
properties, `analyze` sweeps a surface chart and reports flags (to their
end), ellipses and isotropy orders per grid point, `bundle` builds a unit
tangent or unit normal chart and verifies mean curvature, relative nullity
and the splitting tensor equations, `export` writes an OBJ mesh. `bundle`
and `export` build their chart by one call with the run's tolerances; the
constructor checks the base and returns its notes, which `bundle` prints
and records and `export` ignores. A `bundle` run is
`bundles.sweep_and_split` on the bundle's 3-chart: one chart evaluation at
the sweep and splitting points together (order 4 when there are splitting
points, else 2), one nullity pass and one splitting pass, and a splitting
point without a tensor reports why in its row.

Configuration is a single JSON document; command line flags override its
fields. Runs are deterministic: the same config produces byte-identical
reports and meshes. A report is strict JSON with sorted keys, one compact
line per top-level key or row (no space after a comma or colon, each float
in its shortest round-trip form, written by orjson), with null for
non-finite numbers.
Exit codes: 0 all checks pass, 1 bad input, 2 a verification failed (also
when no point it needs is regular) or the numerics broke down (a linear
algebra routine did not converge, or a number overflowed), 3
structural degeneracy (flag collapse).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np
import orjson

from . import bundles as B
from . import catalog
from . import geometry as geo
from . import weierstrass as W
from .errors import DegeneratePoint, FlagCollapse, InvalidData, IsominError

DEFAULT_TOLS = {
    "eps_deg": geo.EPS_DEG,        # metric admissibility floor
    "eps_rank": geo.EPS_RANK,      # relative rank threshold for flags
    "circle": geo.CIRCLE_TOL,      # circularity residual bound
    "null": W.NULL_TOL,            # relative null residual bound: the
                                   # recursion and the bipolar base
    "mean_curvature": 1e-8,        # |H| bound for minimality verdicts
    "nullity": 1e-8,               # smallest singular value bound for nu >= 1
    "span": 1e-6,                  # splitting tensor span residual bound
    "ode": 1e-5,                   # splitting scalar ODE residual bound
}

# The JSON types each config field accepts; "integer" excludes booleans.
CONFIG_TYPES = {
    "fixture": ("string", "null"), "kind": ("string", "null"),
    "projection": ("string", "null"), "out": ("string", "null"),
    "grid": ("string", "array", "null"), "surface": ("object", "null"),
    "params": ("object",), "tolerances": ("object",), "seed": ("integer",),
    "splitting_points": ("integer",), "final_integration": ("boolean",),
}

SPOT_POINTS = ((0.17, 0.11), (-0.23, 0.31), (0.05, -0.37))
PRINCIPAL_TOL = 1e-8  # relative gap of equal covariance eigenvalues, export


# sorted keys, and null for a number that is not finite; numpy scalars and
# arrays are written as the numbers they hold
_DUMPS_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _is_rows(value) -> bool:
    """A nonempty list of objects (the rows of a sweep, the splitting
    points or the spot checks) or of lists (the coefficient lists of the
    curves, the grid axes)."""
    return (isinstance(value, list) and bool(value)
            and (all(isinstance(r, dict) for r in value)
                 or all(isinstance(r, list) for r in value)))


def report_text(doc: dict) -> bytes:
    """Strict JSON with sorted keys, one line per top-level key, where each
    element of a top-level list of objects or lists (the rows) is one more
    line. Every line is compact JSON, without spaces, with each float in
    its shortest round-trip form. A non-finite number is written as
    null."""
    items = []
    for key in sorted(doc):
        value = doc[key]
        if _is_rows(value):
            text = b"[\n" + b",\n".join(
                b"    " + orjson.dumps(r, option=_DUMPS_OPTIONS)
                for r in value) + b"\n  ]"
        else:
            text = orjson.dumps(value, option=_DUMPS_OPTIONS)
        items.append(b"  " + orjson.dumps(key) + b": " + text)
    return b"{\n" + b",\n".join(items) + b"\n}\n"


def _emit(doc: dict, out: str | None):
    data = report_text(doc)
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        # a redirected stdout (a StringIO) has no binary buffer
        sys.stdout.write(data.decode())


def parse_grid(raw) -> list[tuple[float, float, int]]:
    """Accept 'lo:hi:n,lo:hi:n[,lo:hi:n]' or a list of [lo, hi, n] triples."""
    if isinstance(raw, str):
        groups = [g.split(":") for g in raw.split(",")]
    else:
        groups = list(raw)
    axes = []
    for g in groups:
        if not isinstance(g, (list, tuple)) or len(g) != 3:
            raise InvalidData(f"grid axis needs lo:hi:count, got {g!r}")
        if isinstance(g[2], (bool, float)):
            raise InvalidData(f"grid count must be an integer, got {g[2]!r}")
        try:
            lo, hi, n = float(g[0]), float(g[1]), int(g[2])
        except (TypeError, ValueError):
            raise InvalidData(f"malformed grid axis {g!r}")
        if n < 1:
            raise InvalidData(f"grid count must be positive, got {n}")
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise InvalidData(
                f"grid range must be finite and increasing, got {g!r}")
        axes.append((lo, hi, n))
    if not 2 <= len(axes) <= 3:
        raise InvalidData(f"grids have 2 or 3 axes, got {len(axes)}")
    return axes


def parse_tols(entries, base: dict) -> dict:
    tols = dict(base)
    for entry in entries or ():
        if isinstance(entry, str):
            if "=" not in entry:
                raise InvalidData(f"tolerance needs name=value, got {entry!r}")
            name, _, val = entry.partition("=")
            pairs = [(name.strip(), val)]
        else:
            pairs = list(entry.items())
        for name, val in pairs:
            if name not in DEFAULT_TOLS:
                raise InvalidData(
                    f"unknown tolerance {name!r}; known: "
                    f"{', '.join(sorted(DEFAULT_TOLS))}")
            try:
                if isinstance(val, bool):  # float(True) would be 1.0
                    raise TypeError(val)
                fval = float(val)
            except (TypeError, ValueError):
                raise InvalidData(f"tolerance {name} needs a number, got {val!r}")
            if not 0 < fval < math.inf:
                raise InvalidData(f"tolerance {name} must be finite and > 0")
            tols[name] = fval
    return tols


def load_config(args) -> dict:
    cfg = {"fixture": None, "params": {}, "surface": None, "grid": None,
           "tolerances": {}, "out": None, "seed": 0, "projection": None,
           "kind": None, "final_integration": True, "splitting_points": 4}
    if args.config:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidData(f"config is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise InvalidData("config must be a JSON object")
        unknown = set(doc) - set(CONFIG_TYPES)
        if unknown:
            raise InvalidData(f"unknown config keys: {sorted(unknown)}")
        cfg.update(doc)
    # flags override config fields
    for key in ("fixture", "grid", "out", "seed", "kind", "projection"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if args.no_final_integration:
        cfg["final_integration"] = False
    for key, accepted in CONFIG_TYPES.items():
        if _json_type(cfg[key]) not in accepted:
            kinds = " or ".join(_JSON_ARTICLES[t] + t for t in accepted)
            raise InvalidData(f"{key} must be {kinds}, got {cfg[key]!r}")
    if cfg["surface"] is not None and cfg["fixture"] is not None:
        raise InvalidData("the config's surface and fixture "
                          f"{cfg['fixture']!r} both give the surface; "
                          "give one")
    cfg["tolerances"] = parse_tols(
        args.tol, parse_tols([cfg["tolerances"]], DEFAULT_TOLS))
    if cfg["grid"] is not None:
        cfg["grid"] = parse_grid(cfg["grid"])
    # a report writes the seed as a 64-bit unsigned integer
    if not 0 <= cfg["seed"] < 2**64:
        raise InvalidData("seed must be in 0 .. 2**64 - 1, "
                          f"got {cfg['seed']!r}")
    # from 2**53 on, the sample parameters of the points repeat in double
    # precision
    if not 0 <= cfg["splitting_points"] < 2**53:
        raise InvalidData("splitting_points must be a nonnegative integer "
                          f"below 2**53, got {cfg['splitting_points']!r}")
    return cfg


_JSON_ARTICLES = {"null": "", "boolean": "a ", "integer": "an ",
                  "string": "a ", "array": "an ", "object": "an "}


def _json_type(value) -> str:
    for name, types in (("null", type(None)), ("boolean", bool),
                        ("integer", int), ("number", float), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return name
    return type(value).__name__


def _data_fixture(name: str | None) -> tuple[str, int] | None:
    """Fixture names that denote polynomial surface data, not charts."""
    if not name:
        return None
    m = re.fullmatch(r"n(\d+)", name)
    if m:
        return "demo", int(m.group(1))
    m = re.fullmatch(r"random-n(\d+)", name)
    if m:
        return "random", int(m.group(1))
    return None


def resolve_surface_data(cfg) -> W.WeierstrassData:
    kindn = _data_fixture(cfg["fixture"])
    if cfg["surface"] is not None:
        data = W.WeierstrassData.from_json(cfg["surface"])
    elif kindn is None:
        raise InvalidData("need a surface in the config or a data fixture "
                          "(n4..n8, random-nN)")
    elif kindn[0] == "demo":
        data = catalog.demo_weierstrass_data(kindn[1])
    else:
        data = catalog.random_weierstrass_data(
            np.random.default_rng(cfg["seed"]), kindn[1])
    if cfg["params"]:
        source = ("the config's surface" if cfg["surface"] is not None
                  else f"fixture {cfg['fixture']}")
        raise InvalidData(
            f"{source} has no param {next(iter(cfg['params']))!r}")
    # the surface document, the config field and the flag can each skip it
    return dataclasses.replace(data, final_integration=(
        data.final_integration and cfg["final_integration"]))


def resolve_chart(cfg) -> geo.ImmersionChart:
    """Surface chart from a fixture name or generated from polynomial data."""
    name = cfg["fixture"]
    if name is not None and _data_fixture(name) is None:
        return catalog.make_fixture(name, **(cfg["params"] or {}))
    return W.weierstrass_chart(resolve_surface_data(cfg))


def _axes_for(chart, cfg):
    grid = cfg["grid"]
    if grid is None:
        counts = (9, 9) if chart.domain_dim == 2 else (5, 5, 8)
        return geo.grid_axes(chart, counts), \
            [[lo, hi, n] for (lo, hi), n in zip(chart.domain, counts)]
    if len(grid) != chart.domain_dim:
        raise InvalidData(f"grid has {len(grid)} axes for a "
                          f"{chart.domain_dim}-dimensional chart")
    counts = [n for _, _, n in grid]
    ranges = [(lo, hi) for lo, hi, _ in grid]
    return geo.grid_axes(chart, counts, ranges), [list(g) for g in grid]


def _worst(values) -> float:
    """Largest value, or NaN if there is none or any value is not finite
    (None, in a JSON row), so that a bound check on it fails: no verdict
    passes over zero numbers. max() keeps a NaN only when it comes first."""
    vals = list(values)
    if not vals or not all(v is not None and math.isfinite(v) for v in vals):
        return math.nan
    return max(vals)


def _eps(tols: dict) -> dict:
    """The rank and metric floors, as keyword arguments of the geometry."""
    return {"eps_rank": tols["eps_rank"], "eps_deg": tols["eps_deg"]}


def _verdict_line(name: str, ok: bool, detail: str) -> str:
    return f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"


def cmd_generate(cfg) -> int:
    tols = cfg["tolerances"]
    data = resolve_surface_data(cfg)
    rep = W.generate_surface(data)
    ident_max = _worst(rep.residuals.values())
    ident_ok = ident_max <= tols["null"]

    spots, e0_vals, e1_vals = [], [], []
    # the spot checks read only the ellipses of orders 0 and 1, which a
    # flag of depth 1 decides
    rows = geo.point_rows(rep.chart, SPOT_POINTS, tol=tols["circle"],
                          max_order=1, **_eps(tols))
    for p, row in zip(SPOT_POINTS, rows):
        # no first normal space leaves e1 unchecked; a point that is not
        # elliptic cannot be minimal
        res = [e["residual"] for e in row["ellipses"]] or [1.0]
        spots.append({"point": list(p), "singular": row["singular"],
                      "e0_residual": None if row["singular"] else res[0],
                      "e1_residual": res[1] if len(res) > 1 else None})
        if not row["singular"]:
            e0_vals.append(res[0])
            e1_vals.extend(res[1:2])

    # _worst is NaN over no values or a null (non-finite) residual
    e0_ok = _worst(e0_vals) <= tols["circle"]
    e1_ok = not e1_vals or _worst(e1_vals) <= tols["circle"]
    passed = ident_ok and e0_ok and e1_ok

    doc = rep.to_json()
    doc.update({"command": "generate", "seed": cfg["seed"],
                "tolerances": tols, "spot_checks": spots,
                "verdicts": {"identities": ident_ok, "minimal": e0_ok,
                             "first_ellipse_circular": e1_ok},
                "pass": passed})
    print(f"surface {rep.chart.name}: ambient R^{rep.chart.ambient_dim}")
    print(_verdict_line("null identities", ident_ok,
                        f"max residual {ident_max:.3g} vs {tols['null']:g}"))
    print(_verdict_line("minimality (order-0 circles)", e0_ok,
                        f"{len(e0_vals)} spot points"))
    if e1_vals:
        print(_verdict_line("first ellipse circular", e1_ok,
                            f"max residual {_worst(e1_vals):.3g} vs "
                            f"{tols['circle']:g}"))
    else:
        print("first ellipse circular: VACUOUS (no first normal space)")
    _emit(doc, cfg["out"])
    return 0 if passed else 2


def cmd_analyze(cfg) -> int:
    tols = cfg["tolerances"]
    chart = resolve_chart(cfg)
    if chart.domain_dim != 2:
        raise InvalidData("analyze sweeps surface charts; use bundle for "
                          "3-dimensional charts")
    axes, grid_doc = _axes_for(chart, cfg)
    rows = geo.point_rows(chart, geo.grid_points(axes), tol=tols["circle"],
                          **_eps(tols))
    cert = geo.flag_certificate([r["dims"] for r in rows])
    singular = sum(1 for r in rows if r["singular"])
    unresolved = sum(1 for r in rows if "note" in r)
    orders = [r["order"] for r in rows if r["order"] is not None]
    doc = {"command": "analyze", "chart": chart.name, "grid": grid_doc,
           "seed": cfg["seed"], "tolerances": tols, "rows": rows,
           "certificate": cert,
           "summary": {"points": len(rows), "singular": singular,
                       "order_min": min(orders) if orders else None,
                       "order_max": max(orders) if orders else None}}
    print(f"analyzed {chart.name}: {len(rows)} points, {singular} singular")
    print(f"nicely curved: {cert['nicely_curved']} (dims {cert['dims']})")
    if orders:
        print(f"isotropy order: min {min(orders)}, max {max(orders)}")
    if unresolved:
        print(f"warning: {unresolved} of {len(rows)} points have the note: "
              f"{geo.UNRESOLVED}")
    if singular == len(rows):
        print(_verdict_line("regular points", False,
                            "no swept point is regular"))
    _emit(doc, cfg["out"])
    return 2 if singular == len(rows) else 0


def _splitting_points(axes, count: int) -> np.ndarray:
    """Deterministic interior sample of shape (count, dim): walk the grid
    box diagonally, the second axis from its top end."""
    lo = np.array([a[0] for a in axes], dtype=float)
    hi = np.array([a[-1] for a in axes], dtype=float)
    t = ((np.arange(count) + 1.0) / (count + 1.0))[:, None]
    return lo + (hi - lo) * np.where(np.arange(len(axes)) == 1, 1.0 - t, t)


def _bundle_chart(cfg) -> B.BundleChart:
    """The bundle chart of the config's kind over its base, checked with
    the run's tolerances."""
    tols = cfg["tolerances"]
    if cfg["kind"] == "bipolar":
        return B.unit_tangent_chart(resolve_chart(cfg), null_tol=tols["null"],
                                    eps_rank=tols["eps_rank"])
    return B.unit_normal_chart(resolve_chart(cfg), circle_tol=tols["circle"],
                               **_eps(tols))


def cmd_bundle(cfg) -> int:
    tols = cfg["tolerances"]
    kind = cfg["kind"]
    if kind not in ("bipolar", "polar"):
        raise InvalidData("bundle needs kind bipolar or polar")
    bc = _bundle_chart(cfg)
    for note in bc.notes:
        print(f"warning: {note}")

    axes, grid_doc = _axes_for(bc.chart, cfg)
    rows, split_rows = B.sweep_and_split(
        bc.chart, geo.grid_points(axes),
        _splitting_points(axes, cfg["splitting_points"]), **_eps(tols))
    live = [r for r in rows if not r["singular"]]
    singular = len(rows) - len(live)

    h_max = _worst(r["H"] for r in live)
    h_ok = h_max <= tols["mean_curvature"]
    sv_max = _worst(r["sv"][-1] for r in live)
    nu_ok = sv_max <= tols["nullity"]
    nus = sorted({r["nu"] for r in live})

    # a point with an undetermined nullity line fails both verdicts
    done = [r for r in split_rows if r["skipped"] is None]
    attempted = len(done)
    span_ok = all(r["error"] is None
                  and _worst([r["span_residual"]]) <= tols["span"]
                  for r in done)
    ode_ok = all(r["error"] is None
                 and _worst(r["ode_residuals"].values()) <= tols["ode"]
                 for r in done)

    passed = h_ok and nu_ok and span_ok and ode_ok
    doc = {"command": "bundle", "kind": kind, "chart": bc.chart.name,
           "base": bc.base.name, "tau": bc.tau, "grid": grid_doc,
           "seed": cfg["seed"], "tolerances": tols, "notes": bc.notes,
           "rows": rows, "splitting": split_rows,
           "summary": {"points": len(rows), "singular": singular,
                       "H_max": h_max, "sv_min_max": sv_max,
                       "nullity_values": nus},
           "verdicts": {"mean_curvature": h_ok, "nullity": nu_ok,
                        "splitting_span": span_ok, "splitting_ode": ode_ok},
           "pass": passed}
    print(f"bundle {bc.chart.name}: {len(rows)} points, {singular} singular")
    print(_verdict_line("mean curvature", h_ok,
                        f"max |H| {h_max:.3g} vs {tols['mean_curvature']:g}"))
    print(_verdict_line("relative nullity >= 1", nu_ok,
                        f"max smallest singular value {sv_max:.3g} vs "
                        f"{tols['nullity']:g}; values {nus}"))
    for name, ok in (("splitting span", span_ok),
                     ("splitting equations", ode_ok)):
        # no splitting point attempted: the verdict holds but checks nothing
        print(_verdict_line(name, ok, f"{attempted} points") if attempted
              else f"{name}: VACUOUS (0 points)")
    _emit(doc, cfg["out"])
    return 0 if passed else 2


def _principal_projection(verts: np.ndarray) -> np.ndarray:
    """The centred vertices on the top three principal axes, each with its
    largest entry positive; inside a cluster of equal eigenvalues the
    coordinate axes projected on it, Gram-Schmidt in coordinate order."""
    Y = verts - verts.mean(axis=0)
    lam, V = np.linalg.eigh(Y.T @ Y)
    lam, V = lam[::-1], V[:, ::-1]
    cuts = [0, *np.flatnonzero(-np.diff(lam) > PRINCIPAL_TOL * lam[0]) + 1,
            len(lam)]
    axes = []
    for lo, hi in zip(cuts, cuts[1:]):
        for e in V[:, lo:hi] @ V[:, lo:hi].T:
            for b in axes[lo:]:
                e = e - (b @ e) * b
            if len(axes) < hi and (n := np.linalg.norm(e)) > PRINCIPAL_TOL:
                axes.append(e / n)
    Wp = np.stack(axes[:3], axis=1)
    return Y @ (Wp * np.sign(Wp[np.abs(Wp).argmax(axis=0), range(3)]))


def cmd_export(cfg) -> int:
    if not cfg["out"]:
        raise InvalidData("export needs an output path (--out)")
    if cfg["kind"] is not None:
        if cfg["kind"] not in ("bipolar", "polar"):
            raise InvalidData("kind must be bipolar or polar")
        chart = _bundle_chart(cfg).chart
    else:
        chart = resolve_chart(cfg)
    axes, grid_doc = _axes_for(chart, cfg)
    pts = geo.grid_points(axes)
    verts = chart.eval_jets(pts, 0).value
    undefined = ~np.isfinite(verts).all(axis=1)
    if undefined.any():
        raise DegeneratePoint(f"{chart.name} is not defined at "
                              f"{tuple(pts[undefined][0].tolist())}")

    proj = cfg["projection"]
    if proj is None:
        proj = "principal" if chart.ambient_dim > 3 else [1, 2, 3]
    elif proj != "principal":
        try:
            proj = [int(x) for x in proj.split(",")]
        except ValueError:
            raise InvalidData(f"projection must be 'principal' or three "
                              f"comma-separated indices, got {proj!r}")
    if proj == "principal":
        xyz = _principal_projection(verts)
        proj_doc = "principal"
    else:
        if len(proj) != 3 or len(set(proj)) < 3 or any(
                not 1 <= i <= chart.ambient_dim for i in proj):
            raise InvalidData(f"projection needs three distinct coordinates "
                              f"in 1..{chart.ambient_dim}, got {proj}")
        xyz = verts[:, [i - 1 for i in proj]]
        proj_doc = "coords " + " ".join(str(i) for i in proj)

    # quads over the last two axes of the grid's index array: (u, v), or
    # (u, theta) for each v, closed over the seam when the fiber wraps
    idx = np.arange(len(pts)).reshape([len(a) for a in axes])
    wrap = False
    if chart.domain_dim == 3:
        idx = idx.transpose(1, 0, 2)
        span = grid_doc[2][1] - grid_doc[2][0]
        wrap = (chart.periodic[2] and abs(span - 2.0 * math.pi) < 1e-9
                and len(axes[2]) > 2)
    if wrap:
        cur, nxt = idx, np.roll(idx, -1, axis=-1)
    else:
        cur, nxt = idx[..., :-1], idx[..., 1:]
    faces = np.stack([cur[..., :-1, :], cur[..., 1:, :], nxt[..., 1:, :],
                      nxt[..., :-1, :]], axis=-1).reshape(-1, 4)

    lines = ["# isomin mesh",
             f"# chart: {chart.name}",
             "# grid: " + ", ".join(f"{lo:g}:{hi:g}:{n}"
                                    for lo, hi, n in grid_doc),
             f"# projection: {proj_doc}",
             f"# vertices: {len(xyz)} faces: {len(faces)}"]
    lines += [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in xyz]
    lines += ["f %d %d %d %d" % tuple(q) for q in (faces + 1).tolist()]
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(xyz)} vertices, {len(faces)} faces to {cfg['out']}")
    print(f"projection: {proj_doc}")
    return 0


COMMANDS = {"generate": cmd_generate, "analyze": cmd_analyze,
            "bundle": cmd_bundle, "export": cmd_export}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line, like any other bad input
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="isomin",
        description="generate and verify isotropic minimal surfaces and "
                    "their sphere bundles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, info in (("generate", "build a surface from polynomial data "
                                    "and check its identities"),
                       ("analyze", "sweep a surface chart: flags, ellipses, "
                                   "isotropy orders"),
                       ("bundle", "build a unit tangent or unit normal chart "
                                  "and verify it"),
                       ("export", "write an OBJ mesh of a chart")):
        p = sub.add_parser(name, help=info)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--fixture",
                       help="fixture name (veronese, plane, great-sphere, "
                            "geodesic-sphere, curve-P1-P2..., n4..n8, "
                            "random-nN)")
        p.add_argument("--grid", help="u0:u1:nu,v0:v1:nv[,t0:t1:nt]")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a tolerance: " +
                            ", ".join(sorted(DEFAULT_TOLS)))
        p.add_argument("--out", help="output path for the report or mesh")
        p.add_argument("--seed", type=int, help="recorded rng seed")
        p.add_argument("--no-final-integration", action="store_true",
                       help="take the real part of the second null vector "
                            "without the final integration")
        if name in ("bundle", "export"):
            p.add_argument("--kind", choices=("bipolar", "polar"),
                           help="bipolar = unit tangent, polar = unit normal")
        if name == "export":
            p.add_argument("--projection",
                           help="'principal' or three 1-based coordinates "
                                "like 1,2,3")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = load_config(args)
        # an overflow anywhere is a numerical breakdown, not a NaN that a
        # later pass files as a singular point
        with np.errstate(over="raise"):
            return COMMANDS[args.command](cfg)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except FlagCollapse as exc:
        print(f"flag collapse: {exc}", file=sys.stderr)
        return 3
    except IsominError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a LinAlgError is a ValueError, but not bad input; a FloatingPointError
    # is an overflow
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
