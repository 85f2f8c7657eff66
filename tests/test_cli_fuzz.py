"""The CLI's error contract under hostile input.

Every argv built from the grammar below must end in exit 0, 2, 3 or 4, with
stderr empty or exactly one JSON object, no traceback, no warning, and within
a second.  Sizes stay small inside the grammar; nothing is filtered out.
"""

import contextlib
import io
import json
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fracdim2d.cli as cli

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
               "1,2", "2,1,1,2", "1e-300,2e-300,1,2", "1,2,1,1e308"],
    "--grid": ["2,2", "3,3", "9,9", "5,7", "17,3", "1,5", "0,0", "x,y", "9", "200000,200000", "+3,3"],
    "--threads": ["1", "2", "0", "-3", "x"],
    "--shift": ["1,1", "nan,0", "1e308,1e308", "-1e308,0", "x"],
    "--alpha": _NUMBERS,
    "--beta": _NUMBERS,
    "--p": _NUMBERS,
    "--q": _NUMBERS,
    "--panels": ["4", "8", "16", "3", "0", "-5", "x", "20000"],
    "--grading": ["1", "2", "8", "0.5", "nan"],
    "--method": ["auto", "tensor", "separable", "magic"],
    "--op": ["katugampola", "riemann-liouville", "hadamard", "fourier"],
    "--format": ["csv", "json", "xml"],
    "--out": ["@out", "/nonexistent-dir/out"],
    "--fit-out": ["@fit", "/nonexistent-dir/fit"],
    "--deltas": ["1e-300", "5e-324", "1e-12,1e-13,1e-14", "0.25,0.125,0.0625", "nan", "-1,0.5,0.25", "0,0.1,0.2", "x", ""],
    "--which": ["lower", "upper", "middle"],
    "--counts-from": [f"@{name}" for name in _FILES if name.startswith("counts")] + ["@good.csv", "@missing.csv"],
    "--levels": ["2,3", "16,32", "2,3,200000", "3,2", "x", "1"],
}
_FLAGS = ["--integral", "--oracle", "--pinned", "--trend"]
_COMMON = ["--fn", "--rect", "--grid", "--threads", "--shift"]
_QUAD = ["--alpha", "--beta", "--p", "--q", "--panels", "--grading", "--method"]
# a working command of each kind, which the drawn options then override (the last one of a flag wins) or extend
_BASES = {
    "integrate": ["--fn", "sinxy", "--alpha", ".5", "--beta", ".5", "--grid", "9,9"],
    "dimension": ["--fn", "sinxy", "--grid", "33,33", "--deltas", "0.25,0.125,0.0625"],
    "variation": ["--fn", "sinxy", "--grid", "9,9"],
    "construct": ["--fn", "sinxy", "--grid", "9,9"],
}
_OPTIONS = {
    "integrate": _COMMON + _QUAD + ["--op", "--format", "--out"],
    "dimension": _COMMON + _QUAD + ["--integral", "--deltas", "--which", "--oracle", "--counts-from", "--out", "--fit-out"],
    "variation": _COMMON + ["--pinned", "--trend", "--levels", "--out"],
    "construct": _COMMON + ["--format", "--out"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["integrate", "dimension", "variation", "construct", "verify", "transmogrify"]))
    if command == "verify":
        suite = draw(st.sampled_from(["separable", "nosuch"]))
        extra = draw(st.sampled_from([[], ["--scale", "huge"], ["--g", "sin"], ["--g", "cosh"], ["--fn", "zeppelin"]]))
        return ["verify", suite, *extra]
    if command == "transmogrify":
        return [command]
    argv = [command, *_BASES[command]]
    for option in draw(st.lists(st.sampled_from(_OPTIONS[command]), unique=True, max_size=4)):
        argv.append(option)
        if option not in _FLAGS:
            argv.append(draw(st.sampled_from(_VALUES[option])))
    return argv


def _run(argv):
    """Run the CLI in-process: (exit code, stderr, warnings recorded, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, err.getvalue(), [str(w.message) for w in caught], seconds


def _resolve(argv, root):
    # "@name" stands for a file in the fixture directory
    return [a.replace("@", f"{root}/") if "@" in a else a for a in argv]


_REPRODUCERS = [
    (["construct", "--fn", "plane", "--rect=1e308,1.7e308,1e308,1.7e308", "--grid", "9,9"], 3),
    (["construct", "--fn", "plane", "--rect=-1e308,1e308,0,1", "--grid", "9,9"], 3),
    (["dimension", "--fn", "csv:@huge.csv", "--grid", "65,65"], 3),
    (["variation", "--fn", "csv:@huge.csv"], 3),
    (["dimension", "--counts-from", "@counts-negative.csv"], 2),
    (["dimension", "--counts-from", "@counts-zero.csv"], 2),
    (["dimension", "--counts-from", "@counts-fraction.csv"], 2),
]


@settings(max_examples=400, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@example(argv=_REPRODUCERS[0][0])
@example(argv=_REPRODUCERS[1][0])
@example(argv=_REPRODUCERS[2][0])
@example(argv=_REPRODUCERS[3][0])
@example(argv=_REPRODUCERS[4][0])
@example(argv=_REPRODUCERS[5][0])
@example(argv=_REPRODUCERS[6][0])
@given(argv=_argv())
def test_every_argv_ends_in_a_result_or_one_json_error(files, argv):
    argv = _resolve(argv, files)
    code, err, caught, seconds = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert not caught, (argv, caught)
    if err:
        assert len(err.splitlines()) == 1, (argv, err)
        payload = json.loads(err)
        assert isinstance(payload, dict) and payload["code"] == code, (argv, err)
    else:
        assert code == 0, argv
    assert seconds < 1.0, (argv, seconds)


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
    cases = [(_resolve(argv, files) + ["--threads", threads], want) for argv, want in _REPRODUCERS]
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps([argv for argv, _ in cases])], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for (argv, want), (code, err) in zip(cases, json.loads(proc.stdout)):
        lines = err.splitlines()
        assert code == want and len(lines) == 1, (argv, code, err)
        payload = json.loads(lines[0])
        assert payload["code"] == want, (argv, err)
        if want == 2:
            assert payload["parameter"] in ("deltas", "counts"), (argv, err)
