"""The CLI's error contract under hostile input.

Every argv built from the grammar below must end in exit 0, 2, 3 or 4, with
stderr empty or exactly one JSON object, no traceback, no warning, and within
a second.  An ``integrate --fn constant:k`` run that exits 0 must also print
the closed form at the far corner, to 1e-12 wherever it is a normal float.
Sizes stay small inside the grammar; nothing is filtered out.
"""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time
import warnings
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fracdim2d.cli as cli
from fracdim2d import Box, default_box
from fracdim2d.variation import _NARROW

from closed_form import constant_integral, in_float_range

# name -> contents; each is reachable as csv:<path>, json:<path> or --counts-from <path>
_FILES = {
    "good.csv": "x,y,value\n" + "".join(f"{x},{y},{x * y}\n" for x in (1, 1.5, 2) for y in (1, 1.5, 2)),
    "huge.csv": "x,y,value\n0,0,-1e308\n0,1,1e308\n1,0,1e308\n1,1,-1e308\n",
    "nan.csv": "x,y,value\n0,0,1\n0,1,nan\n1,0,3\n1,1,4\n",
    "ragged.csv": "x,y,value\n0,0,1\n0,1\n1,0,3\n1,1,4\n",
    "unordered.csv": "x,y,value\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n",
    "empty.csv": "",
    "header.csv": "x,y,value\n",
    "good.json": json.dumps({"rect": {"a": 1, "b": 2, "c": 1, "d": 2}, "m": 2, "n": 2, "values": [1, 2, 3, 4]}),
    "bad.json": "{",
    "deep.json": "[" * 100000,
    "huge-mn.json": json.dumps({"rect": {"a": 0, "b": 1, "c": 0, "d": 1}, "m": 10**12, "n": 2, "values": [1, 2, 3, 4]}),
    "counts.csv": "delta,count\n0.5,4\n0.25,16\n0.125,64\n",
    "counts-negative.csv": "delta,count\n0.5,4\n0.25,16\n-0.125,64\n",
    "counts-zero.csv": "delta,count\n0.5,4\n0.25,16\n0,64\n",
    "counts-fraction.csv": "delta,count\n0.5,4.9\n0.25,16.2\n0.125,64.7\n",
    "counts-nan.csv": "delta,count\n0.5,nan\n0.25,16\n0.125,64\n",
    "counts-text.csv": "delta,count\n0.5,four\n",
    "nonuniform.csv": "x,y,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n3,0,5\n3,1,6\n",
    "counts-one-column.csv": "delta\n0.5\n0.25\n0.125\n",
    "counts-two-rows.csv": "delta,count\n0.5,4\n0.25,16\n",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (root / name).write_text(text)
    return root


_NUMBERS = [".5", "1", "1.5", "200", "1e-300", "1e308", "-1e308", "nan", "inf", "-1", "0", "x"]
_FNS = [
    "constant:1", "constant:1e308", "constant:nan", "plane", "sinxy", "parabola-sine", "t-parabola-sine",
    "t:plane", "t:sinxy", "weierstrass", "weierstrass:2,2.5,99999999", "weierstrass:1.00001,2.5,2000000",
    "weierstrass:2,3.5,4", "weierstrass:1,2.5,4", "rational-indicator", "zeppelin", "",
] + [f"{kind}:@{name}" for name in _FILES for kind in ("csv", "json") if not name.startswith("counts")]
_VALUES = {
    "--fn": _FNS,
    "--rect": ["1,2,1,2", "0,1,0,1", "1e308,1.7e308,1e308,1.7e308", "-1e308,1e308,0,1", "1,1,1,2", "nan,1,0,1",
               "1,2", "2,1,1,2", "1e-300,2e-300,1,2", "1,2,1,1e308", "0.01,0.02,1,2", "1000000,1000000.000000003,1,2"],
    "--grid": ["2,2", "3,3", "9,9", "5,7", "17,3", "1,5", "0,0", "x,y", "9", "200000,200000", "+3,3"],
    "--threads": ["1", "2", "0", "-3", "x"],
    "--shift": ["1,1", "nan,0", "1e308,1e308", "-1e308,0", "x"],
    "--alpha": _NUMBERS,
    "--beta": _NUMBERS,
    "--p": _NUMBERS,
    "--q": _NUMBERS,
    "--panels": ["4", "8", "16", "3", "0", "-5", "x", "20000"],
    "--method": ["auto", "tensor", "separable", "magic"],
    "--op": ["katugampola", "riemann-liouville", "hadamard", "fourier"],
    "--format": ["csv", "json", "xml"],
    "--out": ["@out", "/nonexistent-dir/out", ""],
    "--fit-out": ["@fit", "/nonexistent-dir/fit", ""],
    "--deltas": ["1e-300", "5e-324", "1e-12,1e-13,1e-14", "0.25,0.125,0.0625", "nan", "-1,0.5,0.25", "0,0.1,0.2", "x", ""],
    "--which": ["lower", "upper", "middle"],
    "--counts-from": [f"@{name}" for name in _FILES if name.startswith("counts")] + ["@good.csv", "@missing.csv", ""],
    "--levels": ["2,3", "16,32", "2,3,200000", "3,2", "x", "1"],
}
# variation grids on both sides of the width rule that picks the DP's sweep: narrow while min(m, n) <= _NARROW
_NARROW_GRIDS = [f"{_NARROW},200", f"300,{_NARROW}", "1,300", "2,2"]
_WIDE_GRIDS = [f"{_NARROW + 1},{_NARROW + 1}", f"{_NARROW + 1},120", f"150,{_NARROW + 1}", "40,40"]
_FLAGS = ["--integral", "--oracle", "--pinned", "--trend"]
_COMMON = ["--fn", "--rect", "--grid", "--threads", "--shift"]
_QUAD = ["--alpha", "--beta", "--p", "--q", "--panels", "--method"]
# a working command of each kind, which the drawn options then override (the last one of a flag wins) or
# extend; "refit" is dimension --counts-from, which refuses every option that reads a grid
_BASES = {
    "integrate": ["integrate", "--fn", "sinxy", "--alpha", ".5", "--beta", ".5", "--grid", "9,9"],
    # the integral of a constant, whose printed corner value the closed form checks
    "constant": ["integrate", "--fn", "constant:1", "--alpha", ".5", "--beta", ".5", "--grid", "5,5"],
    "dimension": ["dimension", "--fn", "sinxy", "--grid", "33,33", "--deltas", "0.25,0.125,0.0625"],
    "refit": ["dimension", "--counts-from", "@counts.csv"],
    "variation": ["variation", "--fn", "sinxy", "--grid", "9,9"],
    "construct": ["construct", "--fn", "sinxy", "--grid", "9,9"],
}
_DIMENSION = _COMMON + _QUAD + ["--integral", "--deltas", "--which", "--oracle", "--counts-from", "--out", "--fit-out"]
_INTEGRATE = _COMMON + _QUAD + ["--op", "--format", "--out"]
_OPTIONS = {
    "integrate": _INTEGRATE,
    "constant": _INTEGRATE,
    "dimension": _DIMENSION,
    "refit": _DIMENSION,
    "variation": _COMMON + ["--pinned", "--trend", "--levels", "--out"],
    "construct": _COMMON + ["--format", "--out"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_BASES, "verify", "transmogrify"]))
    if command == "verify":
        suite = draw(st.sampled_from(["separable", "nosuch", "sandwich", "boundedness"]))
        extra = draw(st.sampled_from(
            [[], ["--scale", "huge"], ["--g", "sin"], ["--g", "cosh"], ["--fn", "zeppelin"], ["--fn", "t:rational-indicator"]]
        ))
        return ["verify", suite, *extra]
    if command == "transmogrify":
        return [command]
    argv = list(_BASES[command])
    if command == "variation":
        argv += ["--grid", draw(st.sampled_from(_NARROW_GRIDS + _WIDE_GRIDS))]
    for option in draw(st.lists(st.sampled_from(_OPTIONS[command]), unique=True, max_size=4)):
        argv.append(option)
        if option not in _FLAGS:
            argv.append(draw(st.sampled_from(_VALUES[option])))
    return argv


def _run(argv):
    """Run the CLI in-process: (exit code, stdout, stderr, warnings recorded, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught], seconds


def _constant_corner(argv):
    """The closed form at the far corner of an ``integrate --fn constant:k`` argv (the last of each option wins), else None."""
    last = {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}  # a flag without a value pairs with the next flag
    fn = last.get("--fn", "")
    if argv[0] != "integrate" or not fn.startswith("constant:") or not math.isfinite(float(fn[9:])):
        return None
    weights = {"hadamard": (-1.0, -1.0), "riemann-liouville": (0.0, 0.0)}
    p, q = weights.get(last.get("--op"), (float(last.get("--p", 0)), float(last.get("--q", 0))))
    if "--rect" in last:
        box = Box(*map(float, last["--rect"].split(",")))
    else:
        box = default_box(fn).shifted(*map(float, last.get("--shift", "0,0").split(",")))
    return constant_integral(float(fn[9:]), box.a, box.b, box.c, box.d, float(last["--alpha"]), float(last["--beta"]), p, q)


def _resolve(argv, root):
    # "@name" stands for a file in the fixture directory
    return [a.replace("@", f"{root}/") if "@" in a else a for a in argv]


# argv, exit code and the JSON error's ``parameter`` (None for an exit-3 error, which names none)
_REPRODUCERS = [
    (["construct", "--fn", "plane", "--rect=1e308,1.7e308,1e308,1.7e308", "--grid", "9,9"], 3, None),
    (["construct", "--fn", "plane", "--rect=-1e308,1e308,0,1", "--grid", "9,9"], 3, None),
    (["dimension", "--fn", "csv:@huge.csv", "--grid", "65,65"], 3, None),
    (["variation", "--fn", "csv:@huge.csv"], 3, None),
    (["dimension", "--counts-from", "@counts-negative.csv"], 2, "deltas"),
    (["dimension", "--counts-from", "@counts-zero.csv"], 2, "deltas"),
    (["dimension", "--counts-from", "@counts-fraction.csv"], 2, "counts"),
    (["variation", "--fn", "csv:@nonuniform.csv"], 2, "fn"),
    (["dimension", "--counts-from", "@counts-one-column.csv"], 2, "counts-from"),
    (["dimension", "--counts-from", "@counts-two-rows.csv"], 3, None),
    (["variation", "--fn", "sinxy", "--trend", "--levels", "16,x"], 2, "levels"),
]
# constant integrals that the closed form checks: an ordinary box that the tensor route refused, a box
# within one float spacing of log s, where it printed values off by up to 60%, and wide boxes at large
# weights, where lo^rho is 0 or the ratio of the ends leaves float64
_CONSTANTS = [
    ["integrate", "--fn", "constant:1", "--rect", "0.01,0.02,1,2", "--p", "2", "--alpha", ".5", "--beta", ".5", "--grid", "5,5",
     "--panels", "64", "--method", "tensor"],
    ["integrate", "--fn", "constant:1", "--rect", "1000000,1000000.000000003,1,2", "--p", "-1", "--alpha", ".5", "--beta", ".5",
     "--grid", "5,5", "--method", "tensor"],
    ["integrate", "--op", "hadamard", "--fn", "constant:3", "--rect", "1000000,1000000.000000003,1,2", "--alpha", ".5",
     "--beta", "1.5", "--grid", "5,5"],
    ["integrate", "--fn", "constant:2", "--rect", "1e-25,1,1,2", "--p", "12", "--alpha", ".5", "--beta", ".5", "--grid", "5,5"],
    ["integrate", "--fn", "constant:2", "--rect", "1e-300,1e9,1,2", "--p", "1", "--alpha", ".5", "--beta", ".5", "--grid", "5,5",
     "--method", "tensor"],
]


def _with_examples(test):
    # each reproducer, each constant above and a variation grid on each side of the sweep's width rule
    argvs = [argv for argv, _, _ in _REPRODUCERS] + _CONSTANTS
    argvs += [["variation", "--fn", "sinxy", "--grid", grid, "--pinned"] for grid in (_NARROW_GRIDS[0], _WIDE_GRIDS[0])]
    for argv in reversed(argvs):
        test = example(argv=argv)(test)
    return test


@settings(max_examples=400, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@_with_examples
@given(argv=_argv())
def test_every_argv_ends_in_a_result_or_one_json_error(files, argv):
    argv = _resolve(argv, files)
    code, out, err, caught, seconds = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert not caught, (argv, caught)
    if err:
        assert len(err.splitlines()) == 1, (argv, err)
        payload = json.loads(err)
        assert isinstance(payload, dict) and payload["code"] == code, (argv, err)
    else:
        assert code == 0, argv
    assert seconds < 1.0, (argv, seconds)
    # a constant's integral has a closed form: a printed value must meet it wherever it is a normal float
    exact = _constant_corner(argv) if code == 0 else None
    if exact is not None and (exact == 0 or in_float_range(exact)):
        value = Decimal(re.search(r"value\([^)]*\) = ([^;\s]+)", out).group(1))
        assert abs(value - exact) <= Decimal("1e-12") * abs(exact), (argv, value, exact)


_DRIVER = """
import contextlib, io, json, sys, traceback, warnings
warnings.simplefilter("always")
from fracdim2d import cli
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except BaseException:
            traceback.print_exc()
            code = 1
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reproducers_end_in_one_json_error_in_a_fresh_process(files, threads):
    # a fresh interpreter, outside pytest's warning capture, so a RuntimeWarning reaches stderr;
    # at two threads the sampling and the hat rule run in worker threads
    cases = [(_resolve(argv, files) + ["--threads", threads], want, parameter) for argv, want, parameter in _REPRODUCERS]
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps([argv for argv, _, _ in cases])], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for (argv, want, parameter), (code, err) in zip(cases, json.loads(proc.stdout)):
        lines = err.splitlines()
        assert code == want and len(lines) == 1, (argv, code, err)
        payload = json.loads(lines[0])
        assert payload["code"] == want and payload.get("parameter") == parameter, (argv, err)
