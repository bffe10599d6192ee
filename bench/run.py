"""Benchmark of the isomin command line, run in-process as a closed loop.

    python3 bench/run.py --workload surfaces --seed 0 --seconds 25 --trace 0

One client runs the workload's command cycle (see workloads.py) through
`isomin.cli.main(argv)`, one command after another, for the given number of
seconds, times each command by the CPU time it uses (see cpu_seconds), and
checks every verdict against its known answer. With --trace 0
it prints the end-to-end metrics named in BENCHMARK.json; with --trace 1 it
spends half the time untraced, then runs the cycle twice with spans around
the package's public functions (spans.py), once on this seed's inputs and
once on the next seed's, and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 means every command returned its known answer.

The package is imported from src/ of the checkout that holds this file;
reports, run records and spans go to .bench_out/ there.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in the set-up subprocesses.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from workloads import WORKLOADS, check, distinct  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples beyond the tail percentile


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout(f"no return within {COMMAND_TIMEOUT_S} s")


def cpu_seconds() -> float:
    """CPU time used so far by this process (all threads) and by its
    children that have been waited for.

    The benchmark times work by this clock, not by the wall clock. On the
    shared virtual machine the benchmark was built on, the wall time of a
    fixed task varied up to threefold within a run while its CPU time varied
    by a few per cent: the difference was the time the hypervisor ran other
    guests on the CPU (steal time in /proc/stat). For this single-threaded,
    CPU-bound program on an idle CPU the two clocks agree."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class CpuRotation:
    """Moves this process to the next CPU it may use, one CPU per call.

    The CPUs of a shared machine change speed independently (see README.md),
    so a client that stays on one CPU measures that CPU's state. Moving on
    after every command makes each run sample all of them alike."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.calls = 0

    def next(self):
        os.sched_setaffinity(0, {self.cpus[self.calls % len(self.cpus)]})
        self.calls += 1


class Runner:
    """Runs commands, times them, and checks each against its known answer.

    Outputs of equal inputs must be byte-identical; a verified output is not
    parsed again when it repeats."""

    def __init__(self, main, workdir: Path, cpus: CpuRotation):
        self.main = main
        self.workdir = workdir
        self.cpus = cpus
        self.seen: dict[str, tuple[str, int, list[str]]] = {}
        self.problems: list[str] = []

    def run(self, cmd) -> dict:
        key = cmd.key()
        tag = hashlib.sha1(key.encode()).hexdigest()[:12]
        cfg_path = self.workdir / f"{tag}.config.json"
        out_path = self.workdir / f"{tag}.json"
        cfg_path.write_text(json.dumps(cmd.config))
        out_path.unlink(missing_ok=True)
        argv = list(cmd.argv) + ["--config", str(cfg_path),
                                 "--out", str(out_path)]
        captured = io.StringIO()
        self.cpus.next()
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                start, cpu_start = perf_counter(), cpu_seconds()
                rc = self.main(argv)
                seconds = cpu_seconds() - cpu_start
                wall = perf_counter() - start
        except Exception as exc:  # a command that raises is a failure
            self.problems.append(f"{cmd.name}: raised {exc!r}")
            return {"name": cmd.name, "failed": True}
        finally:
            signal.alarm(0)
        data = out_path.read_bytes() if out_path.exists() else None
        digest = None if data is None else hashlib.sha1(data).hexdigest()
        if key in self.seen and self.seen[key][0] == digest:
            _, results, bad = self.seen[key]
        else:
            try:
                results, bad = check(cmd, rc, None if data is None
                                     else data.decode())
            except (ValueError, KeyError, TypeError) as exc:
                results, bad = 0, [f"unreadable report: {exc!r}"]
            if key in self.seen:
                bad = bad + ["output differs from an earlier run of the "
                             "same inputs"]
            self.seen[key] = (digest, results, bad)
        self.problems.extend(f"{cmd.name}: {b}" for b in bad)
        return {"name": cmd.name, "failed": False, "rc": rc,
                "seconds": seconds, "wall_s": wall, "results": results,
                "wrong": bool(bad),
                "out_bytes": len(captured.getvalue()) + len(data or b"")}


def run_for(runner: Runner, cycle, seconds: float) -> list[dict]:
    """Closed loop over the cycle; starts no command after the deadline."""
    samples = []
    deadline = perf_counter() + seconds
    while not samples or perf_counter() < deadline:
        samples.append(runner.run(cycle[len(samples) % len(cycle)]))
    return samples


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it (nearest
    rank), and that percentile; the maximum when there are too few."""
    xs = sorted(times)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


def end_to_end(samples, setup_s) -> tuple[dict, dict]:
    done = [s for s in samples if not s["failed"]]
    times = [s["seconds"] for s in done]
    tail_s, tail_q = tail(times)
    metrics = {
        "results_per_s": sum(s["results"] for s in done) / sum(times),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"verdict_s.tail": f"p{tail_q:.1f} of {len(times)} commands"}
    return metrics, notes


def layer_metrics(tracer, samples) -> dict:
    """Per-layer metrics of one traced cycle."""
    def stat(name):
        i = tracer.name_id(name)
        return tracer.calls[i], tracer.inclusive[i], tracer.self_time[i]

    c = tracer.counters
    results = sum(s["results"] for s in samples if not s["failed"])
    m = {}
    m["jet.mul_calls"], m["jet.mul_s"], _ = stat("jet.jet_mul")
    m["jet.mul_products"] = c.get("jet.mul_products", 0)
    m["jet.compose_calls"], m["jet.compose_s"], _ = stat("jet.jet_compose")
    evals = 0
    for kind in ("surface", "bipolar", "polar"):
        n, s, _ = stat(f"geometry.eval.{kind}")
        m[f"geometry.eval.{kind}.calls"], m[f"geometry.eval.{kind}.s"] = n, s
        evals += n
    m["geometry.eval.per_result"] = evals / results if results else 0.0
    for key, fn in (("flag_s", "osculating_flag"),
                    ("forms_s", "fundamental_forms"),
                    ("ellipse_s", "curvature_ellipse"),
                    ("point_report_s", "point_report"),
                    ("certificate_s", "nicely_curved_certificate")):
        m[f"geometry.{key}"] = stat(f"geometry.{fn}")[1]
    m["geometry.self_s"] = (tracer.totals("geometry.")[2]
                            - tracer.totals("geometry.eval.")[2])
    m["geometry.singular_points"] = c.get("singular_points", 0)
    m["bundles.chart_build_s"] = (stat("bundles.unit_tangent_chart")[1]
                                  + stat("bundles.unit_normal_chart")[1])
    m["bundles.nullity_calls"], m["bundles.nullity_s"], _ = \
        stat("bundles.relative_nullity")
    m["bundles.point_report_s"] = stat("bundles.bundle_point_report")[1]
    m["bundles.self_s"] = tracer.totals("bundles.")[2]
    split_calls, m["bundles.split_s"], _ = stat("bundles.splitting_tensor")
    m["bundles.split_calls"] = split_calls
    m["bundles.split_evals_per_point"] = (
        c.get("split_evals", 0) / split_calls if split_calls else 0.0)
    m["bundles.split_ok_ratio"] = (
        c.get("split_ok", 0) / split_calls if split_calls else 0.0)
    m["bundles.split_span_residual_max"] = c.get("split_span_max", 0.0)
    m["bundles.split_ode_residual_max"] = c.get("split_ode_max", 0.0)
    m["weierstrass.generate_calls"], m["weierstrass.generate_s"], _ = \
        stat("weierstrass.generate_surface")
    m["cpoly.mul_calls"], _, m["cpoly.self_s"] = stat("cpoly.poly_mul")
    m["catalog.fixture_s"] = sum(stat(f"catalog.{fn}")[1] for fn in (
        "make_fixture", "demo_weierstrass_data", "random_weierstrass_data"))
    m["cli.self_s"] = tracer.totals("cli.")[2]
    m["cli.emit_s"] = stat("cli.report_text")[1]
    m["cli.out_bytes"] = sum(s.get("out_bytes", 0) for s in samples)
    return m


def is_count(name: str) -> bool:
    """Counts that must repeat exactly across runs and seeds."""
    return (name.endswith("calls") or name in (
        "jet.mul_products", "geometry.eval.per_result",
        "bundles.split_evals_per_point"))


def traced_cycles(runner: Runner, workload: str,
                  seed: int) -> tuple[dict, list]:
    """Run each distinct command of the cycle traced, on this seed's inputs
    and on the next seed's. Counts come from the first; times are the mean
    of the two."""
    import spans
    from isomin import cli

    tracer = spans.Tracer()
    patched = spans.install(tracer)
    runner.main = tracer.wrap("cli.main", cli.main)
    per_cycle, samples = [], []
    try:
        for s in (seed, seed + 1):
            tracer.reset()
            got = [runner.run(cmd) for cmd in distinct(WORKLOADS[workload](s))]
            per_cycle.append(layer_metrics(tracer, got))
            samples += got
            if s == seed:
                tracer.save(OUT / f"{workload}-spans.npz")
    finally:
        spans.uninstall(patched)
        runner.main = cli.main
    first, second = per_cycle
    metrics = {}
    for name, val in first.items():
        if is_count(name) or name in ("geometry.singular_points",
                                      "cli.out_bytes"):
            metrics[name] = val
        elif name.endswith("_max"):
            metrics[name] = max(val, second[name])
        else:
            metrics[name] = (val + second[name]) / 2.0
    mismatched = [n for n in first if is_count(n) and first[n] != second[n]]
    metrics["trace.count_mismatches"] = len(mismatched)
    if mismatched:
        print(f"warning: counts differ between seeds {seed} and {seed + 1}: "
              f"{mismatched}", file=sys.stderr)
    return metrics, samples


def overhead_ratio(untraced, traced) -> float:
    """Median over traced commands of the command's time over the untraced
    median time of the same command (0 when no command ran both ways)."""
    base: dict[str, list[float]] = {}
    for s in untraced:
        if not s["failed"]:
            base.setdefault(s["name"], []).append(s["seconds"])
    ratios = [s["seconds"] / statistics.median(base[s["name"]])
              for s in traced if not s["failed"] and s["name"] in base]
    return statistics.median(ratios) if ratios else 0.0


def setup_seconds(cpus: CpuRotation) -> float:
    """Median CPU time for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import isomin"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes byte code
    times = []
    for _ in range(SETUP_REPEATS):
        cpus.next()
        start = cpu_seconds()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(cpu_seconds() - start)
    return statistics.median(times)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isomin" / "cli.py").is_file():
        print(f"error: no isomin sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from isomin import cli

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    signal.signal(signal.SIGALRM, _alarm)
    cpus = CpuRotation()
    setup_s = None if args.trace else setup_seconds(cpus)
    runner = Runner(cli.main, workdir, cpus)
    cycle = WORKLOADS[args.workload](args.seed)
    warm = [runner.run(cmd.warmup()) for cmd in distinct(cycle)]

    if args.trace:
        untraced = run_for(runner, cycle, args.seconds / 2.0)
        metrics, traced = traced_cycles(runner, args.workload, args.seed)
        metrics["trace.overhead_ratio"] = overhead_ratio(untraced, traced)
        samples, notes = untraced + traced, {}
        wanted = spec["per_layer"]
    else:
        samples = run_for(runner, cycle, args.seconds)
        metrics, notes = end_to_end(samples, setup_s)
        wanted = spec["end_to_end"]

    everything = warm + samples
    attempted = len(everything)
    failed = sum(1 for s in everything if s["failed"])
    wrong = sum(1 for s in everything if not s["failed"] and s["wrong"])
    for problem in runner.problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)

    print(f"# {json.dumps(env, sort_keys=True)}")
    for m in wanted:
        val = metrics[m["name"]]
        shown = f"{val:>14d}" if isinstance(val, int) else f"{val:>14.6g}"
        print(f"{m['name']:<36} {shown} {m['unit']:<12} "
              f"{notes.get(m['name'], '')}".rstrip())
    print(f"{'wrong_verdicts':<36} {wrong:>14d} count")
    print(f"{'failed_ratio':<36} {failed / attempted:>14.6g} ratio        "
          f"{failed} of {attempted} commands")
    correct = wrong == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    record = {"environment": env, "result": result, "notes": notes,
              "wrong_verdicts": wrong, "problems": runner.problems,
              "samples": samples}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
