"""The benchmark's workloads: seeded command cycles and their known answers.

A workload is a cycle of `isomin` commands. The benchmark runs the cycle
again and again for the measured time, so every command in it must be cheap
enough to repeat and must have an answer known before it runs. Seeds move
inputs (random polynomial coefficients, sample boxes) but never the shape of
the work: degrees, grid sizes and splitting point counts are fixed, so call
counts repeat exactly from one seed to the next.

The known answer of a command is a dict of the fields `check` compares:
exit code, `pass`, `summary.points`, `summary.singular`,
`summary.nullity_values`, isotropy orders and the nicely-curved flag
(`analyze`), and attempted splitting points (`bundle`). Every report must
also carry exactly the tolerances in `TOLERANCES`; the benchmark never
passes `--tol`.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

# The tolerances every report records; a speed-up that loosens one shows as
# a wrong verdict.
TOLERANCES = {"eps_deg": 1e-10, "eps_rank": 1e-8, "circle": 1e-8,
              "null": 1e-12, "mean_curvature": 1e-8, "nullity": 1e-8,
              "span": 1e-6, "ode": 1e-5}

TWO_PI = 2.0 * math.pi


@dataclasses.dataclass(frozen=True)
class Command:
    """One `isomin` invocation: argv (without --config and --out), the JSON
    config it reads, and its known answer."""

    name: str
    argv: tuple[str, ...]
    config: dict
    expect: dict

    def key(self) -> str:
        """Identity of the inputs; equal keys must give identical outputs."""
        return json.dumps([self.argv, self.config], sort_keys=True)

    def warmup(self) -> "Command":
        """Same command on a 2-point grid with no splitting points. Running
        it first builds the lazily made tables and imports, so the timed
        cycles measure steady state."""
        cfg = dict(self.config)
        dims = 3 if "--kind" in self.argv else 2
        cfg["grid"] = [[-0.1, 0.1, 2]] * 2 + [[0.0, math.pi, 2]] * (dims - 2)
        if "splitting_points" in cfg:
            cfg["splitting_points"] = 0
        return Command(self.name + " (warm-up)", self.argv, cfg,
                       {"exit": self.expect["exit"]})


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent input stream of one workload; any integer seed works."""
    return np.random.default_rng([seed % 2**64, stream])


def _poly(rng: np.random.Generator, degree: int, floor: float = 0.0):
    """Coefficients uniform in the unit square, as [re, im] pairs. A floor
    pushes the constant term away from zero, as the package's own random
    fixtures do for beta1 and beta2."""
    c = rng.uniform(-1.0, 1.0, size=(degree + 1, 2))
    if floor:
        mag = max(math.hypot(*c[0]), 1e-3)
        c[0] *= (floor + mag) / mag
    return c.tolist()


# Degrees of (alpha0..., beta1, beta2) for the seeded random surfaces. They
# are fixed so that the work per command does not depend on the seed.
RANDOM_DEGREES = {5: ((2,), 1, 2), 6: ((1, 2), 2, 1)}


def random_surface(rng: np.random.Generator, n: int) -> dict:
    """Seeded Weierstrass data for n = 5 or 6, as a config `surface` doc."""
    alpha_deg, d1, d2 = RANDOM_DEGREES[n]
    return {"n": n,
            "alpha0": [_poly(rng, d) for d in alpha_deg],
            "beta1": _poly(rng, d1, floor=0.5),
            "beta2": _poly(rng, d2, floor=0.5)}


def surfaces(seed: int) -> list[Command]:
    rng = _rng(seed, 1)
    r5, r6 = random_surface(rng, 5), random_surface(rng, 6)
    gen_ok = {"exit": 0, "pass": True}
    generate = [Command(f"generate n{n}", ("generate", "--fixture", f"n{n}"),
                        {}, gen_ok) for n in range(4, 9)]
    generate.append(Command("generate random-n6", ("generate",),
                            {"surface": r6}, gen_ok))
    generate.append(Command("generate n5 no-final-integration",
                            ("generate", "--fixture", "n5",
                             "--no-final-integration"), {},
                            {"exit": 2, "pass": False}))

    def analyze(name, expect, fixture=None, surface=None):
        cfg = {"surface": surface} if surface else {}
        argv = ("analyze",) + (("--fixture", fixture) if fixture else ())
        return Command(f"analyze {name}", argv, cfg,
                       {"exit": 0, "points": 81, "singular": 0, **expect})

    a = {name: analyze(name, expect, **src) for name, expect, src in (
        ("n4", {"order_min": 1, "order_max": 1, "nicely_curved": True},
         {"fixture": "n4"}),
        ("n5", {"order_min": 1, "order_max": 1, "nicely_curved": True},
         {"fixture": "n5"}),
        ("n6", {"order_min": 1, "order_max": 2, "nicely_curved": False},
         {"fixture": "n6"}),
        ("n7", {"order_min": 2, "order_max": 2, "nicely_curved": True},
         {"fixture": "n7"}),
        ("n8", {"order_min": 1, "order_max": 1, "nicely_curved": False},
         {"fixture": "n8"}),
        ("random-n5", {"order_min": 1}, {"surface": r5}),
        ("random-n6", {"order_min": 1}, {"surface": r6}),
        ("curve-1-2-3", {"order_min": 2, "order_max": 2,
                         "nicely_curved": True}, {"fixture": "curve-1-2-3"}),
    )}
    # By cost: generates (about 0.02 s) < analyze n4 and curve-1-2-3
    # (0.25 s) < n5 (0.5 s) < n6 < n7, n8 and the random surfaces (0.6-1 s).
    # The cycle is made of triples: a command cheaper than analyze n5,
    # analyze n5, a dearer command. Any run of whole triples has as many
    # commands below n5 as above it, so the median command is the middle
    # analyze n5. With the median on a gap between two kinds of command it
    # would jump between them with the machine's speed.
    cheaper = generate + [a["n4"], a["curve-1-2-3"]]
    dearer = [a[n] for n in ("n6", "n7", "n8", "random-n5", "random-n6",
                             "n6", "n7", "n8", "random-n6")]
    out = []
    for lo, hi in zip(cheaper, dearer, strict=True):
        out += [lo, a["n5"], hi]
    return out


def bundle_sweep(seed: int) -> list[Command]:
    rng = _rng(seed, 2)
    r6 = random_surface(rng, 6)
    ok = {"exit": 0, "pass": True, "points": 200, "singular": 0,
          "nullity_values": [1], "split_attempted": 0}

    def bundle(kind, name, cfg, expect=ok):
        return Command(f"bundle {kind} {name}", ("bundle", "--kind", kind),
                       {"splitting_points": 0, **cfg}, expect)

    n5 = bundle("bipolar", "n5", {"fixture": "n5"})
    curve = bundle("bipolar", "curve-1-2-pad1", {"fixture": "curve-1-2-pad1"},
                   {**ok, "nullity_values": [3]})
    # By cost: great-sphere (exit 3 at once) < curve-1-2-pad1 < n5 <
    # veronese < n8, random n6. With each command once per cycle the median
    # command falls on the gap between n5 and veronese and jumps between the
    # two. Three n5 with three commands on either side put the median at
    # the middle of the n5 times.
    return [
        n5,
        bundle("polar", "veronese", {"fixture": "veronese"}),
        curve,
        n5,
        bundle("bipolar", "n8", {"fixture": "n8"}),
        bundle("polar", "great-sphere", {"fixture": "great-sphere"},
               {"exit": 3}),
        n5,
        bundle("bipolar", "random-n6", {"surface": r6}),
        curve,
    ]


# Half-widths and centre ranges of the seeded sample boxes, inside each
# base chart's domain.
SPLIT_BOXES = {"n5": (0.2, 0.5), "veronese": (0.2, 0.4)}
# One polar command takes about 1.6 times as long as a bipolar one. Three
# bipolar commands to one polar keep the median and the tail inside one
# cluster of times instead of on the gap between two.
SPLIT_CYCLE = (("bipolar", "n5"), ("polar", "veronese"),
               ("bipolar", "n5"), ("bipolar", "n5"))


def splitting(seed: int) -> list[Command]:
    """Each command sweeps a 2x2x2 box and measures the splitting tensor at
    one point inside it (the box centre in u, v)."""
    rng = _rng(seed, 3)
    out = []
    for kind, fixture in SPLIT_CYCLE:
        half, reach = SPLIT_BOXES[fixture]
        cu, cv = rng.uniform(-reach, reach, size=2)
        t0 = float(rng.uniform(0.0, TWO_PI))
        grid = [[cu - half, cu + half, 2], [cv - half, cv + half, 2],
                [t0, t0 + math.pi, 2]]
        out.append(Command(
            f"split {kind} {fixture}", ("bundle", "--kind", kind),
            {"fixture": fixture, "grid": grid, "splitting_points": 1},
            {"exit": 0, "pass": True, "points": 8, "singular": 0,
             "nullity_values": [1], "split_attempted": 1}))
    return out


def distinct(cmds: list[Command]) -> list[Command]:
    """The cycle's commands with repeats of the same inputs left out."""
    return list({c.key(): c for c in cmds}.values())


WORKLOADS = {"surfaces": surfaces, "bundle-sweep": bundle_sweep,
             "splitting": splitting}


def check(cmd: Command, rc: int, output: str | None) -> tuple[int, list[str]]:
    """Compare one command's exit code and report with its known answer.

    Returns the number of results the command produced (analyze rows, or
    bundle sweep rows plus attempted splitting points) and the list of
    mismatches, empty when the answer is right."""
    exp = cmd.expect
    if rc != exp["exit"]:
        return 0, [f"exit {rc}, expected {exp['exit']}"]
    if rc == 3:
        return 0, []
    if output is None:
        return 0, ["no report written"]
    doc = json.loads(output)
    summary = doc.get("summary", {})
    split = doc.get("splitting", [])
    got = {"pass": doc.get("pass"), "points": summary.get("points"),
           "singular": summary.get("singular"),
           "nullity_values": summary.get("nullity_values"),
           "order_min": summary.get("order_min"),
           "order_max": summary.get("order_max"),
           "nicely_curved": doc.get("certificate", {}).get("nicely_curved"),
           "split_attempted": sum(1 for r in split if r["skipped"] is None
                                  and r["error"] is None)}
    results = {"analyze": summary.get("points", 0),
               "bundle": summary.get("points", 0) + got["split_attempted"]
               }.get(doc["command"], 0)
    bad = [] if doc.get("tolerances") == TOLERANCES else [
        f"tolerances {doc.get('tolerances')} differ from {TOLERANCES}"]
    bad += [f"{k} = {got.get(k)!r}, expected {v!r}"
            for k, v in exp.items() if k != "exit" and got.get(k) != v]
    return results, bad
