"""Span tracing of fracdim2d from outside the package.

``install(recorder)`` wraps every public function of every ``fracdim2d``
module and rebinds the wrapper in each module namespace that binds the
original, because ``cli`` and ``verify`` import names directly.  The
``eval`` and ``xy_split`` methods of the public source classes are wrapped
at class level.  Each wrapper records one span (name, start, end, parent)
plus a few counts taken where the work happens.  Spans stay in memory;
``Recorder.dump`` writes them out once the run ends.

An untraced run installs nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

MODULES = ("core", "special", "fracint", "variation", "boxdim", "constructions", "verify", "cli")

# span name -> per-layer group; anything unlisted is recorded but not summed
_GROUPS = {
    "fracint.katugampola_2d_grid": "fracint.grid",
    "fracint.katugampola_1d": "fracint.point",
    "fracint.katugampola_2d": "fracint.point",
    "fracint.hadamard_2d": "fracint.point",
    "fracint.riemann_liouville_2d": "fracint.oracle",
    "fracint.compose_semigroup": "fracint.compose",
    "fracint.boundedness_certificate": "fracint.certificate",
    "fracint.quad_error_probe": "fracint.certificate",
    "core.sample": "core.sample",
    "core.stable_sum": "core.stable_sum",
    "core.read_samples_csv": "core.io",
    "core.write_samples_csv": "core.io",
    "core.read_samples_json": "core.io",
    "core.write_samples_json": "core.io",
    "variation.arzela_variation": "variation.dp",
    "variation.arzela_variation_bruteforce": "variation.brute",
    "boxdim.oscillation_counts": "boxdim.osc",
    "boxdim.dimension_fit": "boxdim.fit",
    "boxdim.boxcount_bruteforce_3d": "boxdim.brute",
    "verify.run_suite": "verify.suite",
    "cli.main": "cli.main",
    "source.interp": "core.interp",
    "source.constructions": "constructions.eval",
}

# the per-layer metrics a traced run reports, with their units
PER_LAYER = {
    "fracint.grid.calls": "count",
    "fracint.grid.outputs": "count",
    "fracint.grid.self_s": "s",
    "fracint.evals_per_output": "count",
    "fracint.grid.useful_ratio": "ratio",
    "fracint.point.calls": "count",
    "fracint.point.self_s": "s",
    "fracint.oracle.calls": "count",
    "fracint.oracle.self_s": "s",
    "fracint.compose.self_s": "s",
    "fracint.certificate.self_s": "s",
    "constructions.eval.points": "count",
    "constructions.eval.s": "s",
    "core.sample.points": "count",
    "core.sample.self_s": "s",
    "core.interp.points": "count",
    "core.interp.s": "s",
    "core.io.bytes": "bytes",
    "core.io.s": "s",
    "core.stable_sum.terms": "count",
    "core.stable_sum.s": "s",
    "variation.dp.calls": "count",
    "variation.dp.nodes": "count",
    "variation.dp.s": "s",
    "variation.brute.s": "s",
    "boxdim.osc.cells": "count",
    "boxdim.osc.s": "s",
    "boxdim.fit.useful_ratio": "ratio",
    "boxdim.brute.s": "s",
    "verify.suite.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """In-memory spans of one traced pass at a time.

    A span is ``[name, start, end, parent, counts]`` with ``parent`` the
    index of the enclosing span in the same pass (-1 at top level).
    ``paused`` lets the benchmark run its reference checks untraced.
    """

    def __init__(self):
        self.passes: list[list[list]] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.paused = True
        self.source_depth = 0
        self.grid_depth = 0
        self.grid_keys: set = set()
        self.grid_evals = 0

    def start_pass(self) -> None:
        self.spans = []
        self.stack = []
        self.grid_keys = set()
        self.grid_evals = 0
        self.paused = False

    def end_pass(self) -> dict:
        self.paused = True
        self.passes.append(self.spans)
        return {"grid_distinct": len(self.grid_keys), "grid_evals": self.grid_evals}

    def open(self, name: str) -> int:
        k = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(k)
        return k

    def close(self, k: int, counts: dict | None = None) -> None:
        self.spans[k][2] = time.perf_counter()
        self.spans[k][4] = counts
        self.stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"], "passes": self.passes}, fh)


def _size(x) -> int:
    return int(np.size(x))


def _counts_for(qualname: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Work counts for the spans whose per-layer metric needs one."""
    if qualname == "fracint.katugampola_2d_grid":
        return {"outputs": result.spec.m * result.spec.n}
    if qualname == "core.sample":
        return {"points": result.spec.m * result.spec.n}
    if qualname == "variation.arzela_variation":
        g = args[0] if args else kwargs["g"]
        return {"nodes": _size(g.values if hasattr(g, "values") else g)}
    if qualname == "boxdim.oscillation_counts":
        return {"cells": result.m * result.n}
    if qualname == "boxdim.dimension_fit":
        return {"usable": len(result.points), "tried": len(result.points) + len(result.dropped)}
    if qualname.startswith("core.write_samples") or qualname.startswith("core.read_samples"):
        path = args[1] if qualname.startswith("core.write") else args[0]
        return {"bytes": os.path.getsize(path)}
    return None


def _wrap_function(rec: Recorder, qualname: str, fn):
    if qualname == "core.stable_sum":

        @functools.wraps(fn)
        def stable_sum(terms):
            if rec.paused:
                return fn(terms)
            # generators are drawn once here so their terms can be counted;
            # the order, and so the sum, is unchanged
            terms = terms if isinstance(terms, np.ndarray) else list(terms)
            k = rec.open(qualname)
            try:
                return fn(terms)
            finally:
                rec.close(k, {"terms": _size(terms) if isinstance(terms, np.ndarray) else len(terms)})

        return stable_sum

    is_grid = qualname == "fracint.katugampola_2d_grid"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        k = rec.open(qualname)
        counts = None
        if is_grid:
            rec.grid_keys.add(_grid_key(fn, args, kwargs))
            rec.grid_depth += 1
        try:
            result = fn(*args, **kwargs)
            counts = _counts_for(qualname, args, kwargs, result)
            return result
        finally:
            if is_grid:
                rec.grid_depth -= 1
            rec.close(k, counts)

    return traced


def _grid_key(fn, args, kwargs) -> tuple:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    src = a["f"]
    return (getattr(src, "name", repr(src)), a["spec"], a["order"], a["quad"])


def _owner_module(fn) -> str:
    inner = getattr(fn, "pyfunc", fn)  # np.vectorize keeps the python function here
    return getattr(inner, "__module__", "") or ""


def _wrap_eval(rec: Recorder, cls, method):
    interp = cls.__name__ == "SampledSource"
    constructions = cls.__module__.endswith(".constructions")

    @functools.wraps(method)
    def eval(self, x, y):
        if rec.paused:
            return method(self, x, y)
        group = None
        if interp:
            group = "source.interp"
        elif constructions or _owner_module(getattr(self, "_fn", None)).endswith(".constructions"):
            group = "source.constructions"
        return _eval_span(rec, group, lambda: method(self, x, y))

    return eval


def _wrap_split(rec: Recorder, method):
    @functools.wraps(method)
    def xy_split(self):
        split = method(self)
        if split is None:
            return None
        return tuple(_wrap_axis(rec, fn) for fn in split)

    return xy_split


def _wrap_axis(rec: Recorder, fn):
    group = "source.constructions" if _owner_module(fn).endswith(".constructions") else None

    def axis(t):
        if rec.paused:
            return fn(t)
        return _eval_span(rec, group, lambda: fn(t))

    return axis


def _eval_span(rec: Recorder, group: str | None, call):
    """Run one source evaluation, counting the points it produced.

    Only the outermost evaluation inside an operator grid adds to the grid's
    evaluation count, so wrapped sources (shifted, restored) count once.
    """
    outer = rec.source_depth == 0
    rec.source_depth += 1
    k = rec.open(group) if group else -1
    out = None
    try:
        out = call()
        return out
    finally:
        rec.source_depth -= 1
        n = _size(out) if out is not None else 0
        if k >= 0:
            rec.close(k, {"points": n})
        if outer and rec.grid_depth:
            rec.grid_evals += n


def install(rec: Recorder) -> list[tuple]:
    """Install the wrappers; returns what ``uninstall`` needs to undo them."""
    import fracdim2d
    from fracdim2d import constructions, core

    mods = {name: sys.modules[f"fracdim2d.{name}"] for name in MODULES}
    namespaces = [fracdim2d, *mods.values()]
    undo: list[tuple] = []
    for name, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapper = _wrap_function(rec, f"{name}.{attr}", fn)
            for ns in namespaces:
                if ns.__dict__.get(attr) is fn:
                    undo.append((ns, attr, fn))
                    setattr(ns, attr, wrapper)
    for cls in (core.CallableSource, core.SampledSource, core.ShiftedSource, constructions.TSource):
        if "eval" in cls.__dict__:
            undo.append((cls, "eval", cls.__dict__["eval"]))
            cls.eval = _wrap_eval(rec, cls, cls.__dict__["eval"])
        if "xy_split" in cls.__dict__:
            undo.append((cls, "xy_split", cls.__dict__["xy_split"]))
            cls.xy_split = _wrap_split(rec, cls.__dict__["xy_split"])
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], grid_distinct: int, grid_evals: int) -> dict[str, float]:
    """Per-layer sums for one traced pass.

    ``*.self_s`` is span time minus child spans; ``*.s`` is the time of a
    group's outermost spans, so nested spans of one group count once.
    """
    selft = _self_times(spans)
    group_of = [_GROUPS.get(s[0], s[0]) for s in spans]
    acc: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        acc[key] = acc.get(key, 0.0) + v

    for k, (name, start, end, parent, counts) in enumerate(spans):
        g = group_of[k]
        add(g + ".calls", 1)
        add(g + ".self_s", selft[k])
        p = parent
        while p >= 0 and group_of[p] != g:
            p = spans[p][3]
        if p < 0:  # outermost span of its group
            add(g + ".s", end - start)
            for key, v in (counts or {}).items():
                add(f"{g}.{key}", v)
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        if name == "fracint.evals_per_output":
            outputs = acc.get("fracint.grid.outputs", 0.0)
            out[name] = grid_evals / outputs if outputs else 0.0
        elif name == "fracint.grid.useful_ratio":
            calls = acc.get("fracint.grid.calls", 0.0)
            out[name] = grid_distinct / calls if calls else 1.0
        elif name == "boxdim.fit.useful_ratio":
            tried = acc.get("boxdim.fit.tried", 0.0)
            out[name] = acc.get("boxdim.fit.usable", 0.0) / tried if tried else 1.0
        else:
            out[name] = acc.get(name, 0.0)
    return out
