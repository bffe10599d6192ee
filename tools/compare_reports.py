"""Compare the CLI reports of two checkouts of isomin.

    python3 tools/compare_reports.py PARENT CHANGE

Runs every command of COMMANDS twice in each checkout, as
`python -m isomin.cli ... --out report.json` (`--out mesh.obj` for an
`export`) with PYTHONPATH=<checkout>/src, each run in a fresh temporary
directory. A dict in a command is a config document: it is written into
that directory and passed as `--config`. It then checks:

* every report is strict JSON: a NaN or Infinity in it is a mismatch;
* every mesh has only comment, vertex and face lines, and finite vertices;
* every report or mesh is byte-identical across the two runs of one
  checkout;
* exit codes, the PASS/FAIL/VACUOUS words on stdout and the stderr text
  (the one-line message of a command that fails) are identical between
  the checkouts;
* the reports have the same structure and non-float fields (a dict
  whose keys differ is a mismatch, and its shared keys are still
  compared), and the meshes the same comment and face lines, and their
  floats (the vertex coordinates of a mesh) agree: within REL_TOL
  relative where either value is above FLOOR in magnitude, within
  ABS_TOL absolute at or below it.

Prints one line per command, with its report's size in bytes in each
checkout and whether the two checkouts wrote byte-identical reports or
meshes, ones that differ only in their bytes (the parsed values are
equal: "same values"), or ones that match only within tolerance; for the
last it lists the first JSON paths (the vertex lines of a mesh, as
$.v[i][k]) whose floats differ. A summary gives the counts of the three
kinds, the total sizes and the largest float differences seen. Exit code
0 when everything matches, 1 on any mismatch, 2 on bad arguments.
"""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-10
FLOOR = 1e-8
ABS_TOL = 1e-11

_WORDS = re.compile(r"\b(PASS|FAIL|VACUOUS)\b")

COMMANDS = (
    [["generate", "--fixture", f"n{n}"] for n in range(4, 9)]
    + [["generate", "--fixture", "random-n6"],
       ["generate", "--fixture", "n5", "--no-final-integration"]]
    # a config surface whose polynomials carry trailing zero pairs, with a
    # zero alpha0 component and integration constants: the padding and the
    # trimming of the written polynomials
    + [["generate", {"surface": {
        "n": 6,
        "alpha0": [[[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]],
                   [[0.0, 0.0], [0.0, 0.0]]],
        "beta1": [[1.0, 0.0], [0.25, 0.0], [0.0, 0.0]],
        "beta2": [[1.0, 0.0], [0.0, 0.0]],
        "int_constants": {"phi0": [[0.0, 0.0], [0.0, 0.0]],
                          "phi1": [[0.5, -0.5], [0.0, 0.0], [0.0, 0.0],
                                   [0.0, 0.25]],
                          "phi2": [[0.5, 0.0]] * 6}}}]]
    # n8 reads its rank-1 deep level at v = 0, a segment of order 4
    + [["analyze", "--fixture", f"n{n}"] for n in range(4, 9)]
    + [["analyze", "--fixture", name] for name in (
        "curve-1-2-3", "random-n6", "plane", "veronese", "curve-1-3-pad1")]
    # deep flags, read to their end by default: the 5th partials of
    # curve-1-2-3-4-5 (tau 4), six planes of random-n12 (tau 5) and a padded
    # curve in an odd codimension (order 1)
    + [["analyze", "--fixture", name] for name in (
        "curve-1-2-3-4-5", "random-n12", "curve-1-2-pad1")]
    + [["bundle", "--kind", "bipolar", "--fixture", name] for name in (
        "n5", "n8", "curve-1-2-pad1", "plane")]
    # two more bases whose 4 default splitting points all read nullity 1
    + [["bundle", "--kind", "bipolar", "--fixture", name]
       for name in ("n6", "random-n6")]
    + [["bundle", "--kind", "polar", "--fixture", "veronese"],
       ["bundle", "--kind", "bipolar", "--fixture", "curve-2-3-pad1"],
       ["analyze", "--fixture", "curve-2-3", "--grid=-0.5:0.5:3,-0.5:0.5:3"],
       ["analyze", "--fixture", "great-sphere"]]
    # a 2x2x2 box with the default 4 splitting points, and with 1 (the
    # shape of the benchmark's splitting commands): one chart evaluation
    # shared by the sweep rows and the splitting points
    + [["bundle", "--kind", "bipolar", "--fixture", "n5",
        "--grid=0.1:0.5:2,-0.3:0.1:2,0.4:3.54:2", *split]
       for split in ([], [{"splitting_points": 1}])]
    + [["bundle", "--kind", "polar", "--fixture", "veronese",
        "--grid=-0.35:0.05:2,0.1:0.5:2,1.2:4.34:2", *split]
       for split in ([], [{"splitting_points": 1}])]
    # the shape of the benchmark's splitting commands, as they pass it: the
    # fixture, a 2x2x2 box and one splitting point, all in the config
    + [["bundle", "--kind", kind, {
        "fixture": name, "splitting_points": 1,
        "grid": [[-0.1, 0.3, 2], [-0.3, 0.1, 2], [0.4, 0.4 + math.pi, 2]]}]
       for kind, name in (("bipolar", "n5"), ("polar", "veronese"))]
    # the shape of the benchmark's bundle-sweep commands: the default grid
    # without splitting points
    + [["bundle", "--kind", kind, "--fixture", name, {"splitting_points": 0}]
       for kind, name in (("bipolar", "n5"), ("polar", "veronese"))]
    + [["export", "--kind", "bipolar", "--fixture", "n5"],
       ["export", "--kind", "polar", "--fixture", "veronese"]]
    # bases read without the final integration: n5 and n6 fail the rung
    # <phi', phi'> = 0 (the order < 1 note), n7 passes it (no note)
    + [["bundle", "--kind", "bipolar", "--fixture", f"n{n}",
        "--no-final-integration"] for n in (5, 6, 7)]
    # a base without a first normal space: no polar chart (exit 3, no
    # report), found by the 9x9 base check
    + [[command, "--kind", "polar", "--fixture", "great-sphere"]
       for command in ("bundle", "export")])

SHOWN_PATHS = 3  # float paths listed per command that differs


def _reject(const: str):
    raise ValueError(f"non-finite number {const} in the report")


def parse(report: bytes):
    """The report's value; ValueError unless it is strict JSON."""
    return json.loads(report, parse_constant=_reject)


def parse_mesh(mesh: bytes) -> dict:
    """The OBJ mesh as a tree: its comment and face lines as strings, its
    vertices as lists of floats; ValueError on any other line or on a
    vertex coordinate that is not finite."""
    tree = {"#": [], "v": [], "f": []}
    for line in mesh.decode().splitlines():
        tag, _, rest = line.partition(" ")
        if tag not in tree:
            raise ValueError(f"unexpected line {line!r} in the mesh")
        if tag == "v":
            xyz = [float(x) for x in rest.split()]
            if not all(math.isfinite(x) for x in xyz):
                raise ValueError(f"non-finite vertex {line!r} in the mesh")
            tree["v"].append(xyz)
        else:
            tree[tag].append(line)
    return tree


def label(cmd: list) -> str:
    return " ".join(arg if isinstance(arg, str)
                    else f"--config '{json.dumps(arg)}'" for arg in cmd)


def run(checkout: Path, cmd: list
        ) -> tuple[int, list[str], bytes | None, str]:
    """Exit code, verdict words, report bytes (None if no report) and
    stderr of one command run in the checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in cmd:
            if isinstance(arg, dict):
                config = Path(tmp) / "config.json"
                config.write_text(json.dumps(arg))
                arg = f"--config={config}"
            argv.append(arg)
        out = Path(tmp) / ("mesh.obj" if argv[0] == "export"
                           else "report.json")
        proc = subprocess.run(
            [sys.executable, "-m", "isomin.cli", *argv, "--out", str(out)],
            env=env, cwd=tmp, capture_output=True, text=True)
        report = out.read_bytes() if out.exists() else None
    return (proc.returncode, _WORDS.findall(proc.stdout), report,
            proc.stderr)


class Diff:
    """Mismatches between two report trees, the paths of the floats that
    differ at all, and the largest float gaps."""

    def __init__(self):
        self.problems: list[str] = []
        self.moved: list[str] = []
        self.max_rel = 0.0
        self.max_abs = 0.0

    def compare(self, a, b, path: str = "$"):
        if isinstance(a, float) or isinstance(b, float):
            if (isinstance(a, bool) or isinstance(b, bool)
                    or not isinstance(a, (int, float))
                    or not isinstance(b, (int, float))):
                self.problems.append(f"{path}: {a!r} != {b!r}")
                return
            self.compare_floats(float(a), float(b), path)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.problems.append(
                    f"{path}: keys differ: {sorted(a.keys() ^ b.keys())}")
            for key in a:
                if key in b:
                    self.compare(a[key], b[key], f"{path}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.problems.append(
                    f"{path}: lengths {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.compare(x, y, f"{path}[{i}]")
        elif type(a) is not type(b) or a != b:
            self.problems.append(f"{path}: {a!r} != {b!r}")

    def compare_floats(self, a: float, b: float, path: str):
        scale = max(abs(a), abs(b))
        gap = abs(a - b)
        if a != b:
            self.moved.append(path)
        if not (math.isfinite(a) and math.isfinite(b)):
            ok = a == b or (math.isnan(a) and math.isnan(b))
        elif scale > FLOOR:
            self.max_rel = max(self.max_rel, gap / scale)
            ok = gap <= REL_TOL * scale
        else:
            self.max_abs = max(self.max_abs, gap)
            ok = gap <= ABS_TOL
        if not ok:
            self.problems.append(f"{path}: {a!r} vs {b!r}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    for checkout in (parent, change):
        if not (checkout / "src" / "isomin" / "cli.py").is_file():
            print(f"error: no isomin sources under {checkout}", file=sys.stderr)
            return 2
    diff = Diff()
    failed = identical = same = within = 0
    sizes = [0, 0]  # report bytes in the parent and in the change
    for cmd in COMMANDS:
        problems = []
        size = kind = ""
        moved = []  # paths of the floats that differ between checkouts
        results = {}
        for side, checkout in (("parent", parent), ("change", change)):
            first, second = run(checkout, cmd), run(checkout, cmd)
            if first[2] != second[2]:
                problems.append(f"{side} report differs between two runs")
            results[side] = first
        (rc_a, words_a, rep_a, err_a), (rc_b, words_b, rep_b, err_b) = (
            results["parent"], results["change"])
        if rc_a != rc_b:
            problems.append(f"exit {rc_a} != {rc_b}")
        if words_a != words_b:
            problems.append(f"verdict words {words_a} != {words_b}")
        if err_a != err_b:
            problems.append(f"stderr {err_a!r} != {err_b!r}")
        if (rep_a is None) != (rep_b is None):
            problems.append("only one checkout wrote a report")
        elif rep_a is not None:
            sizes[0] += len(rep_a)
            sizes[1] += len(rep_b)
            size = f" ({len(rep_a)} -> {len(rep_b)} B)"
            docs = []
            read = parse_mesh if cmd[0] == "export" else parse
            for side, rep in (("parent", rep_a), ("change", rep_b)):
                try:
                    docs.append(read(rep))
                except ValueError as exc:
                    problems.append(f"{side} report is not valid: {exc}")
            if len(docs) == 2:
                cmd_diff = Diff()
                cmd_diff.compare(*docs)
                problems += cmd_diff.problems[:5]
                moved = cmd_diff.moved
                diff.max_rel = max(diff.max_rel, cmd_diff.max_rel)
                diff.max_abs = max(diff.max_abs, cmd_diff.max_abs)
        failed += bool(problems)
        if not problems and rep_a is not None:
            if rep_a == rep_b:
                identical += 1
                kind = "; byte-identical"
            elif docs[0] == docs[1]:
                same += 1
                kind = "; same values"
            else:
                within += 1
                kind = (f"; within tolerance, {len(moved)} floats differ: "
                        + ", ".join(moved[:SHOWN_PATHS])
                        + (", ..." if len(moved) > SHOWN_PATHS else ""))
        print(f"{'ok  ' if not problems else 'FAIL'} exit {rc_b} "
              f"{label(cmd)}{size}{kind}")
        for problem in problems:
            print(f"     {problem}")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands match "
          f"({identical} byte-identical, {same} with the same values, "
          f"{within} within tolerance only); "
          f"largest gaps: {diff.max_rel:.3g} relative above {FLOOR:g}, "
          f"{diff.max_abs:.3g} absolute at or below it; report bytes "
          f"{sizes[0]} -> {sizes[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
