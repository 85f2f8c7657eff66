"""The three workloads: seeded inputs, job lists and their reference checks.

A job is a timed call into the public library or into ``fracdim2d.cli.main``
with default routes, followed by an untimed check of its output against an
independent reference.  A check is a list of ``(name, gap, tolerance)``
triples; the job passes when every gap is within its tolerance, and the
largest gap/tolerance ratio of a workload is its ``err_max``.

The seed changes only generated values (orders, weights, Weierstrass ``s``,
evaluation points, the values of random tiny grids, refit counts), never
a size, so the cost of a pass does not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fracdim2d as fd
from fracdim2d import cli

WORKLOADS = ("operator", "geometry", "small-calls")

E = math.e
UNIT = fd.Box(1.0, 2.0, 1.0, 2.0)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # (ctx) -> output, timed
    check: Callable  # (ctx, output) -> [(name, gap, tolerance)], untimed
    artifacts: tuple[str, ...] = ()  # files that must repeat byte for byte in every pass
    traced: bool = True  # False for the one multi-threaded job, whose spans would interleave


class Ctx:
    """What a pass needs: its artifact directory, the seeded params and sources."""

    def __init__(self, workdir: str, params: dict, sources: dict):
        self.workdir = workdir
        self.params = params
        self.sources = sources

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# ---------------------------------------------------------------------------
# seeded inputs


def make_params(workload: str, seed: int) -> dict:
    """Seeded values for one workload; plain floats and ints, JSON-safe."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def near(center: float, half: float) -> float:
        return round(float(center + half * (2.0 * rng.random() - 1.0)), 6)

    def nodes(m: int, n: int, k: int = 3) -> list[list[int]]:
        return [[int(rng.integers(1, m)), int(rng.integers(1, n))] for _ in range(k)]

    if workload == "operator":
        return {
            "sinxy": {"alpha": near(0.5, 0.02), "beta": near(0.5, 0.02), "nodes": nodes(65, 65)},
            "weighted": {
                "alpha": near(0.5, 0.02),
                "beta": near(0.5, 0.02),
                "p": near(0.6, 0.05),
                "q": near(-0.4, 0.05),
                "nodes": nodes(33, 33),
            },
            "closed": {"k": near(2.0, 0.5), "alpha": near(0.6, 0.02), "beta": near(0.4, 0.02), "p": near(0.5, 0.05), "q": near(0.3, 0.05)},
            "tparab": {"alpha": near(0.5, 0.02), "beta": near(0.5, 0.02), "nodes": nodes(33, 33)},
            "compose": {"alpha": near(0.5, 0.02), "beta": near(0.5, 0.02)},
            "weier": {"s": near(2.5, 0.02), "order": near(0.2, 0.01)},
        }
    if workload == "geometry":
        return {
            "stair": {"amp": near(1.0, 0.2), "freq": near(1.0, 0.2)},
            "weier": {"s": near(2.5, 0.01)},
        }
    if workload == "small-calls":
        grids = []
        for k in range(1000):
            m, n = _TINY_SHAPES[k % len(_TINY_SHAPES)]
            grids.append(np.round(rng.standard_normal((m, n)), 12).tolist())
        slope = near(2.3, 0.2)
        deltas = [0.25 * 0.5**k for k in range(8)]
        counts = [max(1, int(round(7.0 * d**-slope * (1.0 + 0.05 * rng.standard_normal())))) for d in deltas]
        return {
            "grids": grids,
            "rl": {"alpha": near(0.5, 0.02), "beta": near(0.5, 0.02)},
            "hadamard": {"k": near(2.0, 0.5), "alpha": near(0.5, 0.05), "beta": near(0.5, 0.05)},
            "counts": [[d, c] for d, c in zip(deltas, counts)],
            "rational": {"alpha": near(0.5, 0.02), "beta": near(0.5, 0.02)},
            "guard": {"alpha": near(0.5, 0.05), "beta": near(0.5, 0.05)},
        }
    raise ValueError(f"unknown workload {workload!r}")


# every monotone-chain brute force stays below 12 nodes; cycling a fixed
# list of shapes keeps the cost of a pass independent of the seed
_TINY_SHAPES = ((1, 1), (1, 5), (5, 1), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3), (3, 4), (4, 3), (2, 6), (6, 2))


def build_sources(workload: str, params: dict) -> dict:
    """Sources a workload evaluates, built through the public library."""
    if workload == "operator":
        c = params["closed"]
        p, q, k = c["p"], c["q"], c["k"]
        w = params["weier"]
        return {
            "sinxy": fd.make_source("sinxy"),
            "tparab": fd.ShiftedSource(fd.make_source("t-parabola-sine"), 1.0, 1.0),
            "weier": fd.ShiftedSource(fd.make_source(f"weierstrass:2,{w['s']},12"), 1.0, 1.0),
            "constant": fd.make_source(f"constant:{k}"),
            "product": fd.CallableSource(lambda x, y: x ** (p + 1.0) * y ** (q + 1.0), name="bench-product"),
        }
    if workload == "geometry":
        st = params["stair"]
        amp, freq = st["amp"], st["freq"]
        # x(x - 1/2) vanishes on both seams, so the pieces join for any amp, freq
        seed = fd.CallableSource(
            lambda x, y: amp * x * (x - 0.5) * np.sin(freq * y),
            name="bench-stair-seed",
            domain=fd.Box(0.0, 0.5, 0.0, 1.0),
        )
        tc = fd.TConstruction(rect=fd.Box(0.0, 1.0, 0.0, 1.0), phi=seed)
        return {
            "tparab": fd.make_source("t-parabola-sine"),
            "stair": fd.TSource(tc, name="bench-staircase"),
            "weier": fd.make_source(f"weierstrass:2,{params['weier']['s']},12"),
        }
    if workload == "small-calls":
        return {
            "catalog": {n: fd.make_source(n) for n in fd.catalog_names()},
            "rational": fd.ShiftedSource(fd.make_source("rational-indicator"), 1.0, 1.0),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# helpers


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``fracdim2d.cli.main`` with its one-line summary captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _fmt(v: float) -> str:
    return repr(float(v))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _exit_ok(code: int) -> list[tuple]:
    return [("exit-code", float(code != 0), 0.5)]


def _load_grid(path: str, m: int, n: int) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=2).reshape(m, n)


# the grid jobs are second order; against a reference at 4x the panels the
# error seen at the far corner is about 5e-5, so 1.5e-4 passes any route of
# the same order and accuracy and fails one that loses accuracy
ORACLE_REL_TOL = 1.5e-4
ORACLE_REFINE = 4


def _oracle_points(spec: fd.GridSpec, nodes) -> list[tuple[int, int]]:
    """The seeded nodes plus the far corner, where the quadrature error peaks."""
    return [tuple(ij) for ij in nodes] + [(spec.m - 1, spec.n - 1)]


def _rl_nodes(name: str, src, box: fd.Box, grid: np.ndarray, nodes, alpha, beta, panels) -> list[tuple]:
    """Riemann-Liouville oracle (p = q = 0) at refined panels, at a few nodes."""
    spec = fd.GridSpec(box, grid.shape[0], grid.shape[1])
    quad = fd.QuadratureSpec(panels=ORACLE_REFINE * panels)
    worst = 0.0
    for i, j in _oracle_points(spec, nodes):
        x, y = spec.node(i, j)
        ref = fd.riemann_liouville_2d(src, box, x, y, alpha, beta, quad)
        worst = max(worst, _rel(float(grid[i, j]), ref))
    return [(name, worst, ORACLE_REL_TOL)]


def _axis_u(lo: float, hi: float, a: float, w: float = 0.0) -> float:
    """One-axis operator of s^(w+1), exactly.

    In u = s^(w+1) the integrand is u, and int_A^X (X-u)^(a-1) u du =
    X L^a / a - L^(a+1) / (a+1) with L = X - A.
    """
    X, A = hi ** (w + 1.0), lo ** (w + 1.0)
    L = X - A
    return (w + 1.0) ** -a / math.gamma(a) * (X * L**a / a - L ** (a + 1.0) / (a + 1.0))


def _axis_one(lo: float, hi: float, a: float, w: float = 0.0) -> float:
    """One-axis operator of 1, exactly."""
    return (hi ** (w + 1.0) - lo ** (w + 1.0)) ** a / ((w + 1.0) ** a * math.gamma(a + 1.0))


def _path_sum(mat: np.ndarray, path) -> float:
    vals = [float(mat[i, j]) for i, j in path]
    return math.fsum(abs(b - a) for a, b in zip(vals, vals[1:]))


def _suite_checks(path: str) -> list[tuple]:
    with open(path) as fh:
        report = json.load(fh)
    out = []
    for c in report["checks"]:
        tol = float(c["tolerance"])
        gap = float(c["gap"])
        if tol > 0.0:
            out.append((c["name"], gap, tol))
        else:  # zero-tolerance checks (exact counts): pass flag only
            out.append((c["name"], 0.0 if c["passed"] else 1.0, 0.5))
    return out


# ---------------------------------------------------------------------------
# operator: few, large operator grids


def _operator_jobs() -> list[Job]:
    def sinxy_run(ctx):
        p = ctx.params["sinxy"]
        argv = ["integrate", "--fn", "sinxy", "--alpha", _fmt(p["alpha"]), "--beta", _fmt(p["beta"]),
                "--grid", "65,65", "--panels", "128", "--out", ctx.path("sinxy.csv")]
        return run_cli(argv)

    def sinxy_check(ctx, out):
        code, line = out
        p = ctx.params["sinxy"]
        grid = _load_grid(ctx.path("sinxy.csv"), 65, 65)
        checks = _exit_ok(code) + [("certificate", float("bound ok" not in line), 0.5)]
        return checks + _rl_nodes("rl-oracle", ctx.sources["sinxy"], UNIT, grid, p["nodes"], p["alpha"], p["beta"], 128)

    def weighted_run(ctx):
        p = ctx.params["weighted"]
        order = fd.FracOrder(p["alpha"], p["beta"], p["p"], p["q"])
        return fd.katugampola_2d_grid(ctx.sources["sinxy"], fd.GridSpec(UNIT, 33, 33), order, fd.QuadratureSpec(panels=128))

    def weighted_check(ctx, gs):
        # with u = s^(p+1), v = t^(q+1) the weighted operator is
        # (p+1)^-alpha (q+1)^-beta times Riemann-Liouville of g(u, v) = f(s, t)
        p = ctx.params["weighted"]
        a, b, pw, qw = p["alpha"], p["beta"], p["p"], p["q"]
        g = fd.CallableSource(lambda u, v: np.sin(u ** (1.0 / (pw + 1.0)) * v ** (1.0 / (qw + 1.0))), name="bench-sinxy-uv")
        ubox = fd.Box(UNIT.a ** (pw + 1.0), UNIT.b ** (pw + 1.0), UNIT.c ** (qw + 1.0), UNIT.d ** (qw + 1.0))
        quad = fd.QuadratureSpec(panels=ORACLE_REFINE * 128)
        worst = 0.0
        for i, j in _oracle_points(gs.spec, p["nodes"]):
            x, y = gs.spec.node(i, j)
            u = min(max(x ** (pw + 1.0), ubox.a), ubox.b)
            v = min(max(y ** (qw + 1.0), ubox.c), ubox.d)
            ref = (pw + 1.0) ** -a * (qw + 1.0) ** -b * fd.riemann_liouville_2d(g, ubox, u, v, a, b, quad)
            worst = max(worst, _rel(gs.value(i, j), ref))
        return [("rl-oracle-weighted", worst, ORACLE_REL_TOL)]

    def closed_run(ctx):
        c = ctx.params["closed"]
        order = fd.FracOrder(c["alpha"], c["beta"], c["p"], c["q"])
        spec = fd.GridSpec(UNIT, 17, 17)
        quad = fd.QuadratureSpec(panels=64)
        return (
            fd.katugampola_2d_grid(ctx.sources["constant"], spec, order, quad),
            fd.katugampola_2d_grid(ctx.sources["product"], spec, order, quad),
        )

    def closed_check(ctx, out):
        const, prod = out
        c = ctx.params["closed"]
        a, b, pw, qw = c["alpha"], c["beta"], c["p"], c["q"]
        xs, ys = const.spec.xs(), const.spec.ys()
        ref1 = np.array([[c["k"] * _axis_one(UNIT.a, x, a, pw) * _axis_one(UNIT.c, y, b, qw) for y in ys] for x in xs])
        ref2 = np.array([[_axis_u(UNIT.a, x, a, pw) * _axis_u(UNIT.c, y, b, qw) for y in ys] for x in xs])
        scale2 = max(1.0, float(np.max(np.abs(ref2))))
        return [
            ("closed-constant", float(np.max(np.abs(const.matrix - ref1))) / max(1.0, abs(c["k"])), 1e-12),
            # the error at 64 panels is about 6e-5; one panel halving (4x the error) fails
            ("closed-product", float(np.max(np.abs(prod.matrix - ref2))) / scale2, 2e-4),
        ]

    def tparab_run(ctx):
        p = ctx.params["tparab"]
        argv = ["integrate", "--fn", "t-parabola-sine", "--shift", "1,1", "--alpha", _fmt(p["alpha"]),
                "--beta", _fmt(p["beta"]), "--grid", "33,33", "--panels", "64", "--out", ctx.path("tparab.csv")]
        return run_cli(argv)

    def tparab_check(ctx, out):
        code, line = out
        p = ctx.params["tparab"]
        grid = _load_grid(ctx.path("tparab.csv"), 33, 33)
        checks = _exit_ok(code) + [("certificate", float("bound ok" not in line), 0.5)]
        return checks + _rl_nodes("rl-oracle", ctx.sources["tparab"], UNIT, grid, p["nodes"], p["alpha"], p["beta"], 64)

    def compose_run(ctx):
        p = ctx.params["compose"]
        half = fd.FracOrder(p["alpha"], p["beta"])
        return fd.compose_semigroup(ctx.sources["sinxy"], fd.GridSpec(UNIT, 33, 33), half, half, fd.QuadratureSpec(panels=64))

    def compose_check(ctx, out):
        lhs, rhs = out
        # the gap at 64 panels is about 7e-4; the verify suite asks 5e-3 at 32 panels, 1e-3 at 128
        return [("composition-gap", float(np.max(np.abs(lhs.values - rhs.values))), 2.5e-3)]

    def weier_run(ctx):
        w = ctx.params["weier"]
        argv = ["dimension", "--fn", f"weierstrass:2,{w['s']},12", "--shift", "1,1", "--integral",
                "--alpha", _fmt(w["order"]), "--beta", _fmt(w["order"]), "--panels", "16384",
                "--grid", "1025,1025", "--fit-out", ctx.path("weier-int-fit.json")]
        return run_cli(argv)

    def weier_check(ctx, out):
        code, _ = out
        w = ctx.params["weier"]
        with open(ctx.path("weier-int-fit.json")) as fh:
            slope = json.load(fh)["slope"]
        # integrating to order nu lowers the graph dimension by about nu
        return _exit_ok(code) + [("slope-integral", abs(slope - (w["s"] - w["order"])), 0.15)]

    return [
        Job("integrate-sinxy-65", sinxy_run, sinxy_check, ("sinxy.csv",)),
        Job("weighted-sinxy-33", weighted_run, weighted_check),
        Job("closed-forms-17", closed_run, closed_check),
        Job("integrate-t-parabola-sine-33", tparab_run, tparab_check, ("tparab.csv",)),
        Job("compose-sinxy-33", compose_run, compose_check),
        Job("dimension-weierstrass-integral-1025", weier_run, weier_check, ("weier-int-fit.json",)),
    ]


# ---------------------------------------------------------------------------
# geometry: large graphs, no operator


def _geometry_jobs() -> list[Job]:
    def construct_run(ctx):
        return run_cli(["construct", "--fn", "t-parabola-sine", "--grid", "1025,1025", "--out", ctx.path("t.csv")])

    def construct_check(ctx, out):
        code, line = out
        return _exit_ok(code) + [("grid-size", float("1025x1025" not in line), 0.5)]

    def csv_variation_run(ctx):
        return run_cli(["variation", "--fn", "csv:" + ctx.path("t.csv"), "--out", ctx.path("t-var.json")])

    def csv_variation_check(ctx, out):
        code, _ = out
        with open(ctx.path("t-var.json")) as fh:
            doc = json.load(fh)
        src = ctx.sources["tparab"]
        mat = fd.sample(src, fd.GridSpec(src.domain, 1025, 1025)).matrix
        return _exit_ok(code) + [("path-sum", _rel(doc["value"], _path_sum(mat, doc["path"])), 1e-9)]

    def csv_dimension_run(ctx):
        return run_cli(["dimension", "--fn", "csv:" + ctx.path("t.csv"), "--fit-out", ctx.path("t-fit.json")])

    def csv_dimension_check(ctx, out):
        code, _ = out
        with open(ctx.path("t-fit.json")) as fh:
            slope = json.load(fh)["slope"]
        src = ctx.sources["tparab"]
        g = fd.sample(src, fd.GridSpec(src.domain, 1025, 1025))
        direct = fd.dimension_fit(g, fd.default_deltas(g.spec)).slope
        return _exit_ok(code) + [
            ("csv-roundtrip-slope", abs(slope - direct), 1e-12),
            ("slope-staircase", abs(slope - 2.0), 0.15),
        ]

    def stair_run(ctx):
        src = ctx.sources["stair"]
        g = fd.sample(src, fd.GridSpec(src.domain, 4097, 4097))
        var = fd.arzela_variation(g)
        fit = fd.dimension_fit(g, fd.default_deltas(g.spec))
        return g, var, fit

    def stair_check(ctx, out):
        g, var, fit = out
        return [
            ("path-sum", _rel(var.value, _path_sum(g.matrix, var.argpath)), 1e-9),
            ("slope-staircase", abs(fit.slope - 2.0), 0.15),
        ]

    def weier_run(ctx):
        s = ctx.params["weier"]["s"]
        return run_cli(["dimension", "--fn", f"weierstrass:2,{s},12", "--grid", "4097,4097",
                        "--fit-out", ctx.path("weier-fit.json")])

    def weier_check(ctx, out):
        code, _ = out
        with open(ctx.path("weier-fit.json")) as fh:
            slope = json.load(fh)["slope"]
        return _exit_ok(code) + [("slope-weierstrass", abs(slope - ctx.params["weier"]["s"]), 0.15)]

    def trend_run(ctx):
        return run_cli(["variation", "--fn", "t-parabola-sine", "--trend", "--levels",
                        "16,32,64,128,256,512,1024", "--out", ctx.path("trend.json")])

    def trend_check(ctx, out):
        code, _ = out
        with open(ctx.path("trend.json")) as fh:
            vals = [v for _, v in json.load(fh)["levels"]]
        # unbounded variation: every refinement must raise the grid variation
        drop = max(0.0, max(a - b for a, b in zip(vals, vals[1:])))
        return _exit_ok(code) + [("trend-increasing", drop, 1e-12)]

    # the CSV jobs depend on the artifact of the construct job before them
    return [
        Job("construct-t-parabola-sine-1025", construct_run, construct_check, ("t.csv",)),
        Job("variation-csv-1025", csv_variation_run, csv_variation_check, ("t-var.json",)),
        Job("dimension-csv-1025", csv_dimension_run, csv_dimension_check, ("t-fit.json",)),
        Job("staircase-4097", stair_run, stair_check),
        Job("dimension-weierstrass-4097", weier_run, weier_check, ("weier-fit.json",)),
        Job("variation-trend-16-1024", trend_run, trend_check, ("trend.json",)),
    ]


# ---------------------------------------------------------------------------
# small-calls: the same layers through thousands of small calls


def _small_jobs() -> list[Job]:
    def suite_job(suite: str) -> Job:
        fname = f"verify-{suite}.json"

        def run(ctx):
            return run_cli(["verify", suite, "--scale", "full", "--out", ctx.path(fname)])

        def check(ctx, out):
            return _exit_ok(out[0]) + _suite_checks(ctx.path(fname))

        return Job(f"verify-{suite}-full", run, check, (fname,))

    def tiny_run(ctx):
        out = []
        for rows in ctx.params["grids"]:
            a = np.asarray(rows, dtype=np.float64)
            out.append((fd.arzela_variation(a).value, fd.arzela_variation_bruteforce(a)))
        return out

    def tiny_check(ctx, out):
        worst = max(_rel(dp, brute) for dp, brute in out)
        return [("dp-vs-bruteforce", worst, 1e-12)]

    def rl_run(ctx):
        p = ctx.params["rl"]
        return run_cli(["integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", _fmt(p["alpha"]),
                        "--beta", _fmt(p["beta"]), "--grid", "17,17", "--out", ctx.path("rl.csv")])

    def rl_check(ctx, out):
        a, b = ctx.params["rl"]["alpha"], ctx.params["rl"]["beta"]
        grid = _load_grid(ctx.path("rl.csv"), 17, 17)
        spec = fd.GridSpec(UNIT, 17, 17)
        worst = 0.0
        for i, x in enumerate(spec.xs()):
            for j, y in enumerate(spec.ys()):
                ref = _axis_u(UNIT.a, x, a) * _axis_one(UNIT.c, y, b) + _axis_one(UNIT.a, x, a) * _axis_u(UNIT.c, y, b)
                worst = max(worst, abs(grid[i, j] - ref) / max(1.0, abs(ref)))
        return _exit_ok(out[0]) + [("closed-plane", worst, 2e-4)]

    def hadamard_run(ctx):
        p = ctx.params["hadamard"]
        return run_cli(["integrate", "--op", "hadamard", "--fn", f"constant:{p['k']}", "--rect", f"1,{E!r},1,{E!r}",
                        "--alpha", _fmt(p["alpha"]), "--beta", _fmt(p["beta"]), "--grid", "9,9", "--out", ctx.path("hadamard.csv")])

    def hadamard_check(ctx, out):
        p = ctx.params["hadamard"]
        grid = _load_grid(ctx.path("hadamard.csv"), 9, 9)
        spec = fd.GridSpec(fd.Box(1.0, E, 1.0, E), 9, 9)
        lx = np.log(spec.xs())[:, None] ** p["alpha"] / math.gamma(p["alpha"] + 1.0)
        ly = np.log(spec.ys())[None, :] ** p["beta"] / math.gamma(p["beta"] + 1.0)
        gap = float(np.max(np.abs(grid - p["k"] * lx * ly))) / max(1.0, abs(p["k"]))
        return _exit_ok(out[0]) + [("closed-hadamard-constant", gap, 1e-12)]

    def refit_run(ctx):
        return [run_cli(["dimension", "--counts-from", ctx.path("counts.csv"), "--which", which,
                         "--fit-out", ctx.path(f"refit-{which}.json")]) for which in ("lower", "upper") for _ in range(100)]

    def refit_check(ctx, outs):
        pts = ctx.params["counts"]
        xv = [-math.log(d) for d, _ in pts]
        yv = [math.log(c) for _, c in pts]
        ref = float(np.polyfit(xv, yv, 1)[0])
        with open(ctx.path("refit-lower.json")) as fh:
            slope = json.load(fh)["slope"]
        bad = float(any(code != 0 for code, _ in outs))
        return [("exit-code", bad, 0.5), ("refit-slope", _rel(slope, ref), 1e-9)]

    def rational_run(ctx):
        p = ctx.params["rational"]
        order = fd.FracOrder(p["alpha"], p["beta"])
        return fd.boundedness_certificate(ctx.sources["rational"], fd.GridSpec(UNIT, 9, 9), order, fd.QuadratureSpec(panels=16))

    def rational_check(ctx, cert):
        # the certificate itself raises when observed > bound + tolerance
        return [("certificate-excess", max(0.0, cert.sup_abs_observed - cert.bound), cert.tolerance)]

    def guard_run(ctx):
        p = ctx.params["guard"]
        base = ["integrate", "--fn", "sinxy", "--alpha", _fmt(p["alpha"]), "--beta", _fmt(p["beta"]),
                "--grid", "17,17", "--panels", "32"]
        return [run_cli(base + ["--threads", str(t), "--out", ctx.path(f"guard-{t}.csv")]) for t in (1, 2)]

    def guard_check(ctx, outs):
        with open(ctx.path("guard-1.csv"), "rb") as f1, open(ctx.path("guard-2.csv"), "rb") as f2:
            same = f1.read() == f2.read()
        bad = float(any(code != 0 for code, _ in outs))
        return [("exit-code", bad, 0.5), ("threads-1-vs-2-bytes", float(not same), 0.5)]

    return [
        suite_job("special-cases"),
        suite_job("separable"),
        suite_job("sandwich"),
        Job("dp-vs-bruteforce-x1000", tiny_run, tiny_check),
        Job("cli-riemann-liouville-17", rl_run, rl_check, ("rl.csv",)),
        Job("cli-hadamard-9", hadamard_run, hadamard_check, ("hadamard.csv",)),
        Job("refit-counts-x200", refit_run, refit_check, ("refit-lower.json", "refit-upper.json")),
        Job("certificate-rational-indicator-16", rational_run, rational_check),
        Job("determinism-threads-1-2", guard_run, guard_check, ("guard-1.csv", "guard-2.csv"), traced=False),
    ]


def prepare(workload: str, ctx: Ctx) -> None:
    """Input files a workload reads; written once, outside any timing."""
    if workload == "small-calls":
        with open(ctx.path("counts.csv"), "w") as fh:
            fh.write("delta,count\n")
            for d, c in ctx.params["counts"]:
                fh.write(f"{d!r},{c}\n")


def jobs_for(workload: str) -> list[Job]:
    return {"operator": _operator_jobs, "geometry": _geometry_jobs, "small-calls": _small_jobs}[workload]()
