"""Command-line front end.

One binary, five subcommands: ``integrate`` applies one of the three
operators to a function on a grid, ``dimension`` estimates the box
dimension of a graph, ``variation`` measures grid variation, ``construct``
materializes catalog functions to CSV/JSON, and ``verify`` runs a named
assertion suite.

Contract: every run prints exactly one human-readable summary line to
stdout; file artifacts are requested explicitly via ``--out`` (and
``--fit-out``).  Failures print a machine-readable JSON object
``{code, message, parameter?}`` to stderr and exit nonzero: 2 for
usage/parameter/domain errors, 3 for resolution/size/numeric errors,
4 for verification failures.  Identical invocations produce byte-identical
artifacts regardless of --threads and FRACDIM2D_THREADS.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from .boxdim import DimensionFit, _fit_counts, _ladder, boxcount_bruteforce_3d, default_deltas, fit_loglog
from .constructions import _refuse_quadrature_unsafe, default_box, make_source
from .core import (
    Box,
    CatalogError,
    DomainError,
    FracOrder,
    FunctionSource,
    GridSamples,
    GridSpec,
    NumericError,
    ParameterError,
    ResolutionError,
    SampledSource,
    ShiftedSource,
    SizeError,
    VerificationError,
    _row_reader,
    _threads_for,
    read_samples_csv,
    read_samples_json,
    sample,
    write_samples_csv,
    write_samples_json,
)
from .fracint import _PROBE_PANELS, QuadratureSpec, _rl_grid, boundedness_certificate, katugampola_2d_grid
from .variation import arzela_variation, variation_trend
from .verify import SUITES, run_suite

__all__ = ["main"]


class _UsageError(Exception):
    """Raised in place of argparse's sys.exit so errors share one format."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, allow_abbrev=False, **kwargs):  # every flag in full, in subparsers too
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _fail(code: int, message: str, parameter: str | None = None) -> int:
    payload: dict = {"code": code, "message": message}
    if parameter:
        payload["parameter"] = parameter
    print(json.dumps(payload), file=sys.stderr)
    return code


def _parse_floats(text: str, count: int | None, flag: str) -> list[float]:
    """Comma-separated numbers; ``count`` None accepts any number of them."""
    parts = [p.strip() for p in text.split(",")]
    if count is not None and len(parts) != count:
        raise ParameterError(f"{flag} needs {count} comma-separated numbers, got {text!r}", parameter=flag.lstrip("-"))
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"{flag} has a non-numeric entry in {text!r}", parameter=flag.lstrip("-"))


def _parse_grid(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(p.lstrip("+").isdigit() for p in parts):
        raise ParameterError(f"--grid needs two positive integers m,n, got {text!r}", parameter="grid")
    return int(parts[0]), int(parts[1])


def _require(args: argparse.Namespace, name: str) -> float:
    v = getattr(args, name)
    if v is None:
        raise ParameterError(f"--{name} is required", parameter=name)
    return float(v)


def _resolve_source(args: argparse.Namespace) -> tuple[FunctionSource, Box, GridSamples | None]:
    """Source, working box, and (for CSV input) the raw ingested grid.

    CSV/JSON sample files become bilinear interpolants; their own grid is
    returned so commands can reuse the exact node values when neither
    --rect nor --grid overrides them.  Catalog specs fall back to their
    default rectangle.  --shift translates source and default box together.
    """
    spec_text = args.fn
    if spec_text is None:
        raise ParameterError("--fn is required", parameter="fn")
    raw = None
    if spec_text.startswith(("csv:", "json:")):
        kind, _, path = spec_text.partition(":")
        try:
            raw = (read_samples_csv if kind == "csv" else read_samples_json)(path)
        except ParameterError as exc:
            raise ParameterError(str(exc), parameter="fn") from None
        src: FunctionSource = SampledSource(raw, name=spec_text)
        box = raw.spec.rect
    else:
        src = make_source(spec_text)
        box = default_box(spec_text)
    if args.shift:
        dx, dy = _parse_floats(args.shift, 2, "--shift")
        src = ShiftedSource(src, dx, dy)
        box = box.shifted(dx, dy)
        raw = None  # the shifted function no longer matches the file's nodes
    if args.rect:
        box = Box(*_parse_floats(args.rect, 4, "--rect"))
    return src, box, raw


def _spec_of(args: argparse.Namespace, box: Box, raw: GridSamples | None, default: int) -> GridSpec:
    """The grid a command works on: the ingested file's own, or --grid (else default) on the box."""
    if raw is not None and args.grid is None and not args.rect:
        return raw.spec
    m, n = (default, default) if args.grid is None else _parse_grid(args.grid)
    return GridSpec(box, m, n)


def _grid_of(args: argparse.Namespace, src: FunctionSource, box: Box, raw: GridSamples | None, default: int) -> GridSamples:
    """Sampled grid for commands that start from node values."""
    spec = _spec_of(args, box, raw, default)
    if raw is not None and spec is raw.spec:
        return raw
    return sample(src, spec)


def _write_grid(gs: GridSamples, path: str, fmt: str) -> None:
    (write_samples_json if fmt == "json" else write_samples_csv)(gs, path)


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_integrate(args: argparse.Namespace) -> int:
    alpha = _require(args, "alpha")
    beta = _require(args, "beta")
    src, box, _ = _resolve_source(args)
    _refuse_quadrature_unsafe(args.fn)
    m, n = _parse_grid(args.grid) if args.grid else (17, 17)
    spec = GridSpec(box, m, n)
    quad = QuadratureSpec(panels=args.panels)
    certify = args.op == "katugampola" and src.sup_bound is not None
    if certify and quad.panels < _PROBE_PANELS:
        # the certificate's error probe halves the panels; refuse before any work
        raise ParameterError(
            f"--panels {quad.panels} is too few for the boundedness certificate; it needs at least {_PROBE_PANELS}",
            parameter="panels",
        )

    if args.op == "katugampola":
        order = FracOrder(alpha, beta, args.p, args.q)
        gs = katugampola_2d_grid(src, spec, order, quad, method=args.method)
    elif args.op == "hadamard":  # the p = q = -1 member, on the route of its point calls
        gs = katugampola_2d_grid(src, spec, FracOrder(alpha, beta, -1.0, -1.0), quad, method="tensor")
    else:
        gs = GridSamples(spec, _rl_grid(src, spec, alpha, beta, quad))

    corner = gs.value(m - 1, n - 1)
    note = ""
    if certify:
        cert = boundedness_certificate(src, gs, order, quad)
        note = f"; bound ok: sup|I f| = {cert.sup_abs_observed:.6g} <= {cert.bound:.6g}"
    if args.out:
        _write_grid(gs, args.out, args.format)
    wrote = f" -> {args.out}" if args.out else ""
    print(
        f"integrate {args.op} {src.name} on {box} grid {m}x{n}: "
        f"value({box.b:g},{box.d:g}) = {corner:.17g}{note}{wrote}"
    )
    return 0


def cmd_dimension(args: argparse.Namespace) -> int:
    fit, source = _refit(args.counts_from, args.which) if args.counts_from else _count(args)
    if args.fit_out:
        doc = {"which": fit.which, "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared,
               "points": [[d, c] for d, c in fit.points], "dropped": list(fit.dropped)}
        _write_json(doc, args.fit_out)
    extra = f", dropped {len(fit.dropped)}" if fit.dropped else ""
    print(
        f"dimension {source} ({fit.which}): slope = {fit.slope:.6f}, "
        f"r^2 = {fit.r_squared:.6f} over {len(fit.points)} deltas{extra}"
    )
    return 0


def _refit(path: str, which: str) -> tuple[DimensionFit, str]:
    """The fit of a counts file: a delta,count file's one count column, or the ``which`` bound of an --out file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file with no rows is reported below, in the JSON error
            rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    except ValueError:
        raise ParameterError(f"{path}: non-numeric delta,count row", parameter="counts-from") from None
    # delta,count or, as --out writes them, delta,count_lower,count_upper[,count_oracle]
    cols = [0, 2 if which == "upper" and rows.shape[1] > 2 else 1]
    if rows.size == 0 or rows.shape[1] < 2 or not np.all(np.isfinite(rows[:, cols])):
        raise ParameterError(f"{path}: expected rows of delta,count", parameter="counts-from")
    return fit_loglog(rows[:, cols].tolist(), which=which), path


def _count(args: argparse.Namespace) -> tuple[DimensionFit, str]:
    """The fit of the counts of a source's graph, after writing them to --out if it is given."""
    src, box, raw = _resolve_source(args)
    if args.integral:
        _refuse_quadrature_unsafe(args.fn)
        # the integral needs only the grid, not samples of f on it; an order left out is 1/2
        order = FracOrder(*(0.5 if v is None else v for v in (args.alpha, args.beta)), args.p, args.q)
        spec = _spec_of(args, box, raw, default=257)
        gs = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=args.panels), method=args.method)
    elif args.oracle:  # the independent 3-d counter reads a sampled grid
        gs = _grid_of(args, src, box, raw, default=257)
    else:
        spec = _spec_of(args, box, raw, default=257)
        # the file's own nodes, or rows evaluated a band at a time: the m x n grid is never held
        gs = raw if raw is not None and spec is raw.spec else _row_reader(src, spec)

    deltas = _parse_floats(args.deltas, None, "--deltas") if args.deltas else default_deltas(gs.spec)
    if not deltas:
        raise ResolutionError("no usable deltas for this grid; refine the grid or pass --deltas")
    # one ladder of counts feeds the fit and, with both bounds, the --out file
    counts, dropped = _ladder(gs, deltas)
    fit = _fit_counts(counts, dropped, args.which)

    if args.out:
        # only this file reads the direct 3-d counts; they are all counted
        # before it is opened
        oracle = {d: boxcount_bruteforce_3d(gs, d) for d, _ in fit.points} if args.oracle else {}
        by_delta = {bc.delta: bc for bc in counts}
        with open(args.out, "w", newline="\n") as fh:
            fh.write("delta,count_lower,count_upper" + (",count_oracle\n" if oracle else "\n"))
            for d, _ in fit.points:
                bc = by_delta[d]
                tail = f",{oracle[d]}" if oracle else ""
                fh.write(f"{d:.17g},{bc.n_lower},{bc.n_upper}{tail}\n")
    return fit, src.name


def cmd_variation(args: argparse.Namespace) -> int:
    src, box, raw = _resolve_source(args)
    if args.trend:
        if not args.levels:
            raise ParameterError("--trend needs --levels n1,n2,...", parameter="levels")
        try:
            levels = [int(t) for t in args.levels.split(",")]
        except ValueError:
            raise ParameterError(f"--levels has a non-integer entry in {args.levels!r}", parameter="levels")
        series = variation_trend(src, box, levels)
        if args.out:
            _write_json({"rect": [box.a, box.b, box.c, box.d], "levels": [[k, v] for k, v in series]}, args.out)
        path = " -> ".join(f"{k}:{v:.6g}" for k, v in series)
        print(f"variation trend {src.name}: {path}")
        return 0
    gs = _grid_of(args, src, box, raw, default=33)
    res = arzela_variation(gs, pinned=args.pinned)
    if args.out:
        _write_json({"value": res.value, "path": [[i, j] for i, j in res.argpath]}, args.out)
    print(
        f"variation {src.name} on {gs.spec.m}x{gs.spec.n} grid: {res.value:.17g} "
        f"(path of {len(res.argpath)} nodes{', pinned' if args.pinned else ''})"
    )
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    src, box, raw = _resolve_source(args)
    gs = _grid_of(args, src, box, raw, default=257)
    if args.out:
        _write_grid(gs, args.out, args.format)
    lo, hi = float(np.min(gs.values)), float(np.max(gs.values))
    wrote = f" -> {args.out}" if args.out else ""
    print(
        f"construct {src.name}: {gs.spec.m}x{gs.spec.n} grid on {box}, "
        f"values in [{lo:.6g}, {hi:.6g}]{wrote}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, scale=args.scale, fn=args.fn, g=args.g)
    if args.out:
        _write_json(report.to_json(), args.out)
    done = sum(1 for c in report.checks if c.passed)
    line = f"verify {report.suite} ({report.scale}): {done}/{len(report.checks)} checks passed"
    if not report.passed:
        line += "; failed: " + ", ".join(c.name for c in report.checks if not c.passed)
    print(line)
    if not report.passed:
        raise VerificationError(f"suite {report.suite} failed {len(report.checks) - done} checks")
    return 0


# ---------------------------------------------------------------------------
# parser


_THREADS_HELP = "worker threads for this command, 0 for one per CPU (default: FRACDIM2D_THREADS, else one per CPU)"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fn", help="catalog spec name[:params], t:<catalog seed> (not a csv:/json: file), or csv:/json: sample file")
    sub.add_argument("--rect", help="rectangle a,b,c,d")
    sub.add_argument("--grid", help="grid sizes m,n")
    sub.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    sub.add_argument("--shift", help="translate the function by dx,dy before use")


def _add_quadrature(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="fractional order along x")
    sub.add_argument("--beta", type=float, default=None, help="fractional order along y")
    sub.add_argument("--p", type=float, default=None, help="power weight along x, -1 or more; -1 is the log kernel (katugampola only)")
    sub.add_argument("--q", type=float, default=None, help="power weight along y, -1 or more; -1 is the log kernel (katugampola only)")
    sub.add_argument("--panels", type=int, default=None, help="quadrature panels per axis")
    sub.add_argument(
        "--method",
        default=None,
        help="grid evaluation route: auto (shared mesh for split sources g(x)+h(y), for smooth catalog "
        "sources, and, with their piece edges or sample nodes as mesh nodes, for t-* constructions over "
        "smooth seeds and csv:/json: grids; else tensor), tensor, separable (auto's shared mesh, refusing "
        "a source without a split g(x)+h(y))",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="fracdim2d", description="fractional integrals, grid variation, box dimension")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p_int = subs.add_parser("integrate", help="apply a fractional operator on a grid", parents=[])
    _add_common(p_int)
    _add_quadrature(p_int)
    p_int.add_argument("--op", default="katugampola", choices=["katugampola", "riemann-liouville", "hadamard"])
    p_int.add_argument("--out", help="write the result grid here")
    p_int.add_argument("--format", choices=["csv", "json"], help="format of the --out file (default: csv)")
    p_int.set_defaults(run=cmd_integrate)

    p_dim = subs.add_parser("dimension", help="box-dimension estimate of a function graph")
    _add_common(p_dim)
    _add_quadrature(p_dim)
    p_dim.add_argument("--integral", action="store_true", help="fit the graph of the integral, not of f")
    p_dim.add_argument("--deltas", help="comma-separated box sizes (default: halving ladder)")
    p_dim.add_argument(
        "--which",
        default="lower",
        choices=["lower", "upper"],
        help="bound to fit; --counts-from reads count_lower or count_upper of an --out file, "
        "and the one count column of a delta,count file either way",
    )
    p_dim.add_argument("--oracle", action="store_true", help="add direct 3-d box counts (small grids)")
    p_dim.add_argument("--counts-from", dest="counts_from", help="fit pre-computed counts instead: delta,count rows or an --out file")
    p_dim.add_argument("--out", help="write per-delta counts CSV here")
    p_dim.add_argument("--fit-out", dest="fit_out", help="write the fit JSON here")
    p_dim.set_defaults(run=cmd_dimension)

    p_var = subs.add_parser("variation", help="grid variation (largest monotone-path sum)")
    _add_common(p_var)
    p_var.add_argument("--pinned", action="store_true", help="pin the path endpoint to the far corner")
    p_var.add_argument("--trend", action="store_true", help="variation across refining grids")
    p_var.add_argument("--levels", help="grid levels for --trend, e.g. 64,128,256")
    p_var.add_argument("--out", help="write the value/path (or trend) JSON here")
    p_var.set_defaults(run=cmd_variation)

    p_con = subs.add_parser("construct", help="materialize a catalog function on a grid")
    _add_common(p_con)
    p_con.add_argument("--out", help="write the sample grid here")
    p_con.add_argument("--format", choices=["csv", "json"], help="format of the --out file (default: csv)")
    p_con.set_defaults(run=cmd_construct)

    p_ver = subs.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", help=", ".join(SUITES))
    p_ver.add_argument("--scale", default="quick", choices=["quick", "full"])
    p_ver.add_argument("--fn", default=None, help="restrict the suite to one catalog function")
    p_ver.add_argument("--g", default=None, help="univariate factor for the separable suite")
    p_ver.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p_ver.add_argument("--out", help="write the JSON report here")
    p_ver.set_defaults(run=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # Building the parser costs about as much as a small command itself,
    # so one parser serves every main() call in a process.  Reuse is safe:
    # parse_args fills a fresh Namespace each call and no argument has a
    # mutable default.  It is built on first use, not at import.
    return build_parser()


# the flags each mode reads, by dest; a flag that picks a mode counts as read by the modes it picks
# between.  --threads is read by every mode, and --format and --oracle, which only shape the --out
# file, only when --out is given.  A read flag left out takes its _DEFAULTS value.
_SOURCE = ("fn", "rect", "grid", "shift")
_OPERATOR = ("alpha", "beta", "p", "q", "panels", "method")
_CLASSICAL = {*_SOURCE, "alpha", "beta", "panels", "op", "out", "format"}  # one route, no power weights
_COUNTS = {*_SOURCE, "integral", "deltas", "which", "oracle", "counts_from", "out", "fit_out"}
_READS = {
    "integrate": {*_CLASSICAL, *_OPERATOR},
    "integrate --op riemann-liouville": _CLASSICAL,
    "integrate --op hadamard": _CLASSICAL,
    "dimension": _COUNTS,
    "dimension --integral": {*_COUNTS, *_OPERATOR},
    "dimension --counts-from": {"which", "counts_from", "fit_out"},
    "variation": {*_SOURCE, "pinned", "trend", "out"},
    "variation --trend": {"fn", "rect", "shift", "trend", "levels", "out"},
    "construct": {*_SOURCE, "out", "format"},
    "verify": {"suite", "scale", "fn", "g", "out"},
}
_DEFAULTS = {"p": 0.0, "q": 0.0, "panels": 64, "method": "auto", "format": "csv"}


def _refuse_unread(parser: _Parser, args: argparse.Namespace) -> None:
    """Refuse the first given flag (not None or False), in declaration order, that the mode of ``args`` does not read."""
    given = vars(args)  # a flag that picks a mode belongs to one subcommand; --counts-from outranks --integral
    pick = next((f"--{dest}".replace("_", "-") for dest in ("counts_from", "integral", "trend") if given.get(dest)), "")
    pick = f"--op {args.op}" if given.get("op", "katugampola") != "katugampola" else pick
    mode = f"{args.subcommand} {pick}".rstrip()
    reads = {*_READS[mode], "threads"} - (set() if args.out else {"format", "oracle"})
    for action in next(a for a in parser._actions if a.dest == "subcommand").choices[args.subcommand]._actions:
        value = given.get(action.dest)
        if action.dest not in reads and value is not None and value is not False:
            flag, where = action.option_strings[0], mode if action.dest not in _READS[mode] else f"{mode} without --out"
            raise ParameterError(f"{flag} is not read by {where}; drop it", parameter=flag.lstrip("-"))
    for name, default in _DEFAULTS.items():
        if name in reads and given[name] is None:
            given[name] = default


def main(argv=None) -> int:
    try:
        parser = _shared_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise _UsageError("a subcommand is required (integrate, dimension, variation, construct, verify)")
        for dest in ("counts_from", "out", "fit_out"):  # an empty path names no file to read or write
            if getattr(args, dest, None) == "":
                flag = "--" + dest.replace("_", "-")
                raise ParameterError(f"{flag} needs a file path, got an empty one", parameter=flag[2:])
        _refuse_unread(parser, args)
        # a non-finite intermediate ends the command as one NumericError; underflow to 0 is a result
        with np.errstate(over="raise", invalid="raise", divide="raise"), _threads_for(args.threads):
            return args.run(args)
    except (FloatingPointError, OverflowError) as exc:
        return _fail(3, f"a floating-point result left float64: {exc}")
    except (_UsageError, DomainError) as exc:
        return _fail(2, str(exc))
    except ParameterError as exc:
        return _fail(2, exc.args[0] if exc.args else str(exc), getattr(exc, "parameter", None))
    except CatalogError as exc:  # only --fn names a catalog function
        return _fail(2, str(exc), "fn")
    except (ResolutionError, SizeError, NumericError) as exc:
        return _fail(3, str(exc))
    except VerificationError as exc:
        return _fail(4, str(exc))
    except OSError as exc:
        return _fail(2, f"{exc.__class__.__name__}: {exc}")
