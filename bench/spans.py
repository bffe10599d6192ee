"""Spans around the package's public functions, kept in memory.

`install` replaces module attributes of `isomin` with wrappers that open a
span on entry and close it on exit. Every call site in the package reaches
these functions through a module attribute (or, for `eval_jets`, through
the class), so the wrappers see every call. A span records its name, start,
end and parent span; self time is a span's duration minus the time its
child spans cover. Per-name totals are kept as calls come in, so reading
them costs nothing; the raw spans are written out by `Tracer.save`.
"""
from __future__ import annotations

import functools
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

from workloads import TOLERANCES


class Tracer:
    """Spans and per-name totals (calls, inclusive and self seconds), plus
    counters that the wrappers' hooks fill in."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.inclusive: list[float] = []   # outermost spans of each name only
        self.self_time: list[float] = []
        self._depth: list[int] = []
        self._stack: list[list] = []       # [span index, name id, child time]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
            self._depth.append(0)
        return self._ids[name]

    def reset(self):
        """Forget spans and totals, keeping the name table."""
        n = len(self.names)
        self.calls[:] = [0] * n
        self.inclusive[:] = [0.0] * n
        self.self_time[:] = [0.0] * n
        for a in (self.span_name, self.span_parent, self.span_start,
                  self.span_end):
            del a[:]
        self.counters = {}

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def enter(self, nid: int):
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([i, nid, 0.0])
        self._depth[nid] += 1
        self.calls[nid] += 1
        self.span_start.append(perf_counter())

    def exit(self):
        t = perf_counter()
        i, nid, child = self._stack.pop()
        self.span_end[i] = t
        dur = t - self.span_start[i]
        self.self_time[nid] += dur - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.inclusive[nid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn, on_return=None):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_return is not None:
                on_return(args, result)
            return result
        return traced

    def totals(self, prefix: str) -> tuple[int, float, float]:
        """Calls, inclusive seconds and self seconds of every name that
        starts with prefix."""
        idx = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return (sum(self.calls[i] for i in idx),
                sum(self.inclusive[i] for i in idx),
                sum(self.self_time[i] for i in idx))

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def _public_functions(module):
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


def chart_kind(chart) -> str:
    """surface, bipolar (unit tangent) or polar (unit normal), from the
    chart's dimension and the name its bundle constructor gives it."""
    if chart.domain_dim == 2:
        return "surface"
    return "polar" if chart.name.startswith("unit-normal") else "bipolar"


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the package's public functions; returns what `uninstall` needs
    to put the originals back."""
    from isomin import bundles, catalog, cli, cpoly, geometry, jet, weierstrass

    patched = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    products: dict[int, int] = {}

    def count_products(args, _):
        space = args[0].space
        n = products.get(id(space))
        if n is None:
            deg = [sum(m) for m in space.indices]
            n = products[id(space)] = sum(1 for a in deg for b in deg
                                          if a + b <= space.order)
        tracer.count("jet.mul_products", n)

    patch(jet, "jet_mul", tracer.wrap("jet.jet_mul", jet.jet_mul,
                                      count_products))
    patch(jet, "jet_compose", tracer.wrap("jet.jet_compose", jet.jet_compose))

    eval_ids = {k: tracer.name_id(f"geometry.eval.{k}")
                for k in ("surface", "bipolar", "polar")}
    split_id = tracer.name_id("bundles.splitting_tensor")
    eval_jets = geometry.ImmersionChart.eval_jets

    @functools.wraps(eval_jets)
    def traced_eval(chart, point, order):
        if tracer._depth[split_id]:
            tracer.count("split_evals")
        tracer.enter(eval_ids[chart_kind(chart)])
        try:
            return eval_jets(chart, point, order)
        finally:
            tracer.exit()

    patch(geometry.ImmersionChart, "eval_jets", traced_eval)

    def count_singular(args, row):
        if row["singular"]:
            tracer.count("singular_points")

    def split_outcome(args, rep):
        ode = max(rep.ode_residuals.values())
        ok = (rep.span_residual <= TOLERANCES["span"]
              and ode <= TOLERANCES["ode"])
        tracer.count("split_ok", int(ok))
        for key, val in (("split_span_max", rep.span_residual),
                         ("split_ode_max", ode)):
            # max() would drop a NaN; report it as infinite instead
            tracer.maximum(key, val if math.isfinite(val) else math.inf)

    hooks = {"point_report": count_singular,
             "bundle_point_report": count_singular,
             "splitting_tensor": split_outcome}
    for module in (geometry, bundles, catalog):
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(module):
            patch(module, name, tracer.wrap(f"{short}.{name}", fn,
                                            hooks.get(name)))
    patch(weierstrass, "generate_surface",
          tracer.wrap("weierstrass.generate_surface",
                      weierstrass.generate_surface))
    patch(cpoly, "poly_mul", tracer.wrap("cpoly.poly_mul", cpoly.poly_mul))
    patch(cli, "report_text", tracer.wrap("cli.report_text", cli.report_text))
    return patched


def uninstall(patched):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
