"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q

Scratch files go under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import fracdim2d as fd  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.fixture
def workdir(request):
    d = os.path.join(WORK, f"test-{request.node.name}-{os.getpid()}")
    os.makedirs(d, exist_ok=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _artifact_jobs(d: str) -> list[list[str]]:
    """Small CLI calls that cover every layer and write artifacts into ``d``."""
    p = lambda name: os.path.join(d, name)  # noqa: E731
    return [
        ["construct", "--fn", "t-parabola-sine", "--grid", "129,129", "--out", p("t.csv")],
        ["variation", "--fn", "csv:" + p("t.csv"), "--out", p("var.json")],
        ["dimension", "--fn", "csv:" + p("t.csv"), "--fit-out", p("fit.json"), "--out", p("counts.csv")],
        ["integrate", "--fn", "sinxy", "--alpha", ".5", "--beta", ".5", "--grid", "9,9", "--panels", "16", "--out", p("int.csv")],
        ["integrate", "--fn", "t-parabola-sine", "--shift", "1,1", "--alpha", ".5", "--beta", ".5",
         "--grid", "9,9", "--panels", "16", "--out", p("int-t.json"), "--format", "json"],
        ["dimension", "--fn", "weierstrass", "--shift", "1,1", "--integral", "--panels", "256", "--grid", "129,129",
         "--fit-out", p("weier.json")],
        ["integrate", "--op", "riemann-liouville", "--fn", "plane", "--alpha", ".5", "--beta", ".5", "--grid", "5,5",
         "--out", p("rl.csv")],
        ["variation", "--fn", "t-parabola-sine", "--trend", "--levels", "8,16,32", "--out", p("trend.json")],
        ["verify", "sandwich", "--fn", "sinxy", "--out", p("sandwich.json")],
    ]


def _run_all(d: str) -> dict[str, bytes]:
    for argv in _artifact_jobs(d):
        code, _ = jobs.run_cli(argv)
        assert code == 0, argv
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_traced_and_untraced_artifacts_are_byte_identical(workdir):
    plain_dir = os.path.join(workdir, "plain")
    traced_dir = os.path.join(workdir, "traced")
    os.makedirs(plain_dir)
    os.makedirs(traced_dir)
    original = fd.katugampola_2d_grid
    plain = _run_all(plain_dir)

    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        rec.start_pass()
        traced = _run_all(traced_dir)
        counters = rec.end_pass()
    finally:
        spans.uninstall(undo)

    assert fd.katugampola_2d_grid is original
    assert fd.cli.katugampola_2d_grid is original
    assert sorted(plain) == sorted(traced)
    for name in plain:
        assert plain[name] == traced[name], name
    names = {s[0] for s in rec.passes[0]}
    for want in ("cli.main", "fracint.katugampola_2d_grid", "core.sample", "core.write_samples_csv",
                 "variation.arzela_variation", "boxdim.oscillation_counts", "source.constructions"):
        assert want in names
    layer = spans.layer_metrics(rec.passes[0], **counters)
    assert set(layer) == {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead_frac"}
    assert layer["fracint.grid.calls"] > 0 and layer["fracint.evals_per_output"] > 0
    # integrate recomputes its own grid inside the certificate
    assert layer["fracint.grid.useful_ratio"] < 1.0


def test_self_time_and_outermost_group_time():
    # a [0, 10] holds b [2, 6], which holds another span of b's group [3, 4]
    sp = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["source.constructions", 2.0, 6.0, 0, {"points": 5}],
        ["source.constructions", 3.0, 4.0, 1, {"points": 7}],
    ]
    m = spans.layer_metrics(sp, grid_distinct=0, grid_evals=0)
    assert m["cli.main.self_s"] == pytest.approx(6.0)
    assert m["constructions.eval.s"] == pytest.approx(4.0)
    assert m["constructions.eval.points"] == 5
    assert m["fracint.grid.calls"] == 0 and m["fracint.grid.useful_ratio"] == 1.0


def test_times_scale_to_the_reference_host():
    ref = run.PROBE_REF_S
    assert run.to_ref(2.0, ref, ref) == pytest.approx(2.0)
    # on a host at half speed the probes take twice as long
    assert run.to_ref(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)
    assert run.probe_repeats(None) == 1 and run.probe_repeats(0.01) == 1
    assert run.probe_repeats(1e6) == run.PROBE_MAX_REPEATS
    assert run.host_probe_s(2) > 0.0


def test_params_repeat_for_a_seed_and_keep_sizes():
    for w in jobs.WORKLOADS:
        a, b, c = jobs.make_params(w, 1), jobs.make_params(w, 1), jobs.make_params(w, 2)
        assert a == b
        assert a != c
    g1, g2 = jobs.make_params("small-calls", 1)["grids"], jobs.make_params("small-calls", 2)["grids"]
    assert [len(x) * len(x[0]) for x in g1] == [len(x) * len(x[0]) for x in g2]


def _bench(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_output(trace):
    res = _bench(["--workload", "small-calls", "--seed", "11", "--seconds", "1", "--trace", str(trace)], ROOT)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_the_package(workdir):
    shutil.copytree(HERE, os.path.join(workdir, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    res = _bench(["--workload", "operator", "--seed", "1", "--seconds", "1", "--trace", "0"], workdir)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
