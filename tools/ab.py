"""Paired in-process A/B of two checkouts of isomin on a benchmark workload.

    python3 tools/ab.py PARENT CHANGE --workload W --rounds N [--seed S]

Loads `src/isomin` of both checkouts into one process, under the package
names `isomin_parent` and `isomin_change`, and runs the command cycle of
the workload from `bench/workloads.py` through each side's
`cli.main(argv)`. Every command runs once per side on a 2-point warm-up
grid first. Then each round runs every command of the cycle on both
sides back to back, on one CPU, the side that goes first alternating
from round to round; the next pair runs on the next CPU, as the
benchmark rotates. Every run goes through one `Runner` of `bench/run.py`
(both modules imported, not modified), shared by the two sides: it times
the run by its CPU time with BLAS pinned to one thread, checks the
answer with `workloads.check`, and counts as a problem a command that
raises and a report that differs from an earlier run of the same inputs
on either side.

Per command name (a name that repeats in the cycle is summed within a
round) and per whole cycle it prints the median over the rounds of the
ratio change / parent of the CPU time, its quartiles, the rounds the
change was faster in, and the two-sided sign-test p-value of that count
(ties count for neither side). Exit code 0 when every answer is right and
every report is byte-identical between the sides, 1 otherwise, 2 on bad
arguments.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_package(checkout: Path, name: str):
    """The package `src/isomin` of a checkout, imported as `name`; its
    relative imports resolve inside it, so two checkouts load side by
    side. A package loaded earlier under the name is dropped first."""
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]
    src = checkout / "src" / "isomin"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    if spec is None:
        raise FileNotFoundError(f"no isomin package at {src}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


class PairedRotation:
    """The benchmark's CPU rotation (`run.CpuRotation`) moved once per pair
    of runs, so that both sides of a pair run on the same CPU."""

    def __init__(self, rotation):
        self.rotation, self.runs = rotation, 0

    def next(self):
        if self.runs % 2 == 0:
            self.rotation.next()
        self.runs += 1


def sign_test(wins: int, losses: int) -> float:
    """Two-sided p-value of wins against losses under a fair coin."""
    n, k = wins + losses, min(wins, losses)
    if not n:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def summary(name: str, ratios: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(r < 1.0 for r in ratios)
    losses = sum(r > 1.0 for r in ratios)
    return (f"{name:<36} {median:7.3f} {q1:7.3f} {q3:7.3f} "
            f"{wins:>3}/{len(ratios):<3} {sign_test(wins, losses):9.2g}")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # pins BLAS threads before numpy loads
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    try:
        mains = {side: load_package(path.resolve(), f"isomin_{side}").main
                 for side, path in zip(SIDES, (args.parent, args.change))}
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cycle = workloads.WORKLOADS[args.workload](args.seed)
    names = list(dict.fromkeys(c.name for c in cycle))
    rounds = []  # per round and side: {name: CPU seconds}
    cpus = run.CpuRotation()
    with tempfile.TemporaryDirectory() as tmp:
        # one runner for both sides: a report that differs from the other
        # side's for the same inputs is one of its problems
        runner = run.Runner(None, Path(tmp), PairedRotation(cpus))

        def timed(side, cmd) -> float:
            runner.main = mains[side]
            return runner.run(cmd).get("seconds", math.nan)

        try:
            for cmd in workloads.distinct(cycle):
                for side in SIDES:
                    timed(side, cmd.warmup())
            for r in range(args.rounds):
                order = SIDES if r % 2 == 0 else SIDES[::-1]
                spent = {side: dict.fromkeys(names, 0.0) for side in SIDES}
                for cmd in cycle:
                    for side in order:
                        spent[side][cmd.name] += timed(side, cmd)
                rounds.append(spent)
        finally:
            os.sched_setaffinity(0, cpus.cpus)
    print(f"# {args.workload}, seed {args.seed}, {args.rounds} rounds: "
          f"{args.parent} -> {args.change}")
    print(f"{'CPU ratio change / parent':<36} {'median':>7} {'q1':>7} "
          f"{'q3':>7} {'won':>7} {'sign p':>9}")
    for name in names:
        print(summary(name, [t["change"][name] / t["parent"][name]
                             for t in rounds]))
    print(summary("cycle", [sum(t["change"].values())
                            / sum(t["parent"].values()) for t in rounds]))
    for problem in runner.problems[:20]:
        print(f"wrong: {problem}")
    print(f"{len(runner.problems)} problems")
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main())
