import inspect
import json
import math
import multiprocessing
import os
import pathlib
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdim2d import (
    Box,
    CallableSource,
    DomainError,
    FracOrder,
    GridSamples,
    GridSpec,
    NumericError,
    ParameterError,
    QuadratureSpec,
    Rectangle,
    SampledSource,
    ShiftedSource,
    SizeError,
    katugampola_2d,
    make_source,
    quad_error_probe,
    read_samples_csv,
    read_samples_json,
    riemann_liouville_2d,
    sample,
    stable_sum,
    t_eval,
    worker_count,
    write_samples_csv,
    write_samples_json,
)
from fracdim2d import cli, core
from fracdim2d.core import row_blocks


# ---------------------------------------------------------------------------
# Box / Rectangle / FracOrder


def test_box_basic_geometry():
    b = Box(1.0, 3.0, 2.0, 6.0)
    assert b.width == 2.0 and b.height == 4.0
    assert str(b) == "[1,3]x[2,6]"
    assert b.shifted(1.0, -1.0) == Box(2.0, 4.0, 1.0, 5.0)


@pytest.mark.parametrize("args", [(2, 1, 0, 1), (0, 1, 5, 5), (1, 1, 0, 1)])
def test_box_rejects_degenerate(args):
    with pytest.raises(ParameterError):
        Box(*args)


def test_box_rejects_non_finite():
    with pytest.raises(ParameterError):
        Box(0.0, math.inf, 0.0, 1.0)
    with pytest.raises(ParameterError):
        Box(0.0, 1.0, math.nan, 1.0)


def test_box_covers_with_slack():
    outer = Box(0.0, 1.0, 0.0, 1.0)
    assert outer.covers(Box(0.25, 0.5, 0.25, 0.5))
    assert outer.covers(Box(0.0, 1.0 + 1e-12, 0.0, 1.0))  # within relative slack
    assert not outer.covers(Box(0.0, 1.1, 0.0, 1.0))


def test_rectangle_requires_positive_corner():
    Rectangle(1.0, 2.0, 0.5, 1.5)
    with pytest.raises(ParameterError):
        Rectangle(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        Rectangle(1.0, 2.0, -1.0, 2.0)


def test_fracorder_validation():
    o = FracOrder(0.5, 1.5, p=1.0, q=-0.5)
    assert (o.alpha, o.beta, o.p, o.q) == (0.5, 1.5, 1.0, -0.5)
    with pytest.raises(ParameterError):
        FracOrder(0.0, 1.0)
    with pytest.raises(ParameterError):
        FracOrder(1.0, -0.1)
    # -1 is the Hadamard member of the family; below it is refused
    h = FracOrder(1.0, 1.0, p=-1.0, q=-1.0)
    assert (h.p, h.q) == (-1.0, -1.0)
    with pytest.raises(ParameterError, match="p must be at least -1"):
        FracOrder(1.0, 1.0, p=-1.0000000000000002)
    with pytest.raises(ParameterError, match="q must be at least -1"):
        FracOrder(1.0, 1.0, q=-1.5)
    with pytest.raises(ParameterError):
        FracOrder(math.inf, 1.0)


# ---------------------------------------------------------------------------
# GridSpec / GridSamples


def test_gridspec_nodes_and_steps():
    spec = GridSpec(Box(0.0, 1.0, 0.0, 2.0), 5, 3)
    assert np.allclose(spec.xs(), [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(spec.ys(), [0, 1.0, 2.0])
    assert spec.hx == 0.25 and spec.hy == 1.0
    assert spec.node(0, 0) == (0.0, 0.0)
    assert spec.node(4, 2) == (1.0, 2.0)


def test_gridspec_rejects_tiny_grids():
    with pytest.raises(ParameterError):
        GridSpec(Box(0, 1, 0, 1), 1, 5)
    with pytest.raises(ParameterError):
        GridSpec(Box(0, 1, 0, 1), 5, 0)
    with pytest.raises(ParameterError, match="^m must be an integer$"):
        GridSpec(Box(0, 1, 0, 1), 2.5, 3)


def test_gridsamples_matrix_round_trip():
    spec = GridSpec(Box(0, 1, 0, 1), 3, 4)
    mat = np.arange(12, dtype=np.float64).reshape(3, 4)
    gs = GridSamples(spec, mat)
    assert np.array_equal(gs.matrix, mat)
    assert gs.value(2, 3) == 11.0
    with pytest.raises(ParameterError):
        GridSamples(spec, np.zeros(5))


def test_gridsamples_rejects_non_finite():
    spec = GridSpec(Box(0, 1, 0, 1), 2, 2)
    with pytest.raises(Exception):
        GridSamples(spec, np.array([0.0, 1.0, math.nan, 2.0]))


# ---------------------------------------------------------------------------
# sources


def test_callable_source_eval_and_split():
    src = CallableSource(name="affine", split=(lambda x: np.asarray(x, float), lambda y: 2 * np.asarray(y, float)))
    assert src(0.5, 0.25) == 1.0
    g, h = src.xy_split()
    assert g(3.0) == 3.0 and h(3.0) == 6.0
    arr = src.eval(np.array([0.0, 1.0])[:, None], np.array([0.0, 1.0])[None, :])
    assert np.array_equal(np.broadcast_to(arr, (2, 2)), [[0, 2], [1, 3]])
    called = src(np.array([0.5, 1.0]), np.array([0.25, 0.5]))
    assert type(called) is np.ndarray and np.array_equal(called, [1.0, 2.0])


def test_callable_source_takes_fn_or_split_and_not_both():
    split = (np.sin, np.cos)
    for kwargs in ({"fn": lambda x, y: np.sin(x) + np.cos(y), "split": split}, {}):
        with pytest.raises(ParameterError, match="^give exactly one of fn and split$") as err:
            CallableSource(**kwargs)
        assert err.value.parameter == "fn"


def test_sampled_source_exact_at_nodes_and_bilinear_between():
    spec = GridSpec(Box(0, 1, 0, 1), 3, 3)
    f = lambda x, y: 2 * x + 3 * y + 1  # bilinear interpolation is exact for affine data
    gs = sample(CallableSource(f, name="affine"), spec)
    src = SampledSource(gs)
    for i in range(3):
        for j in range(3):
            x, y = spec.node(i, j)
            assert src(x, y) == gs.value(i, j)
    assert src(0.3, 0.7) == pytest.approx(f(0.3, 0.7), abs=1e-14)
    with pytest.raises(DomainError):
        src(1.5, 0.5)


def test_sampled_source_accepts_queries_up_to_the_box_slack():
    box = Box(-3.0, 2.0, 10.0, 20.0)
    src = SampledSource(sample(CallableSource(lambda x, y: x + y), GridSpec(box, 3, 3)))
    sx, sy = box.slack()
    assert (sx, sy) == (1e-9 * 3.0, 1e-9 * 20.0)  # relative to the larger of 1 and each axis's largest bound
    for x, y in ((box.a - sx, 15.0), (box.b + sx, 15.0), (0.0, box.c - sy), (0.0, box.d + sy)):
        assert np.isfinite(src.eval(x, y))
    for x, y in ((np.nextafter(box.a - sx, -9.0), 15.0), (np.nextafter(box.b + sx, 9.0), 15.0), (0.0, np.nextafter(box.d + sy, 99.0))):
        with pytest.raises(DomainError, match="^query outside the sampled box$"):
            src.eval(x, y)
    assert box.covers(Box(box.a - sx, box.b + sx, box.c - sy, box.d + sy))
    assert not box.covers(Box(np.nextafter(box.a - sx, -9.0), box.b, box.c, box.d))


_UNIT_RECT = Box(1.0, 2.0, 1.0, 2.0)


def _point_queries():
    """Every public point query, with the box whose ``Box._clip`` it follows."""
    g = sample(make_source("sinxy"), GridSpec(_UNIT_RECT, 5, 5))
    t = make_source("t-parabola-sine")
    quad = QuadratureSpec(panels=8)
    return {
        "SampledSource.eval": (_UNIT_RECT, SampledSource(g).eval),
        "TSource.eval": (t.domain, t.eval),
        "t_eval": (t.domain, lambda x, y: t_eval(t.tc, x, y)),
        "katugampola_2d": (_UNIT_RECT, lambda x, y: katugampola_2d(make_source("sinxy"), _UNIT_RECT, x, y, FracOrder(0.5, 0.5), quad)),
        "riemann_liouville_2d": (_UNIT_RECT, lambda x, y: riemann_liouville_2d(make_source("sinxy"), _UNIT_RECT, x, y, 0.5, 0.5, quad)),
    }


@pytest.mark.parametrize("entry", list(_point_queries()))
def test_every_point_query_refuses_the_same_queries(entry):
    box, query = _point_queries()[entry]
    sx, sy = box.slack()
    mx, my = 0.5 * (box.a + box.b), 0.5 * (box.c + box.d)
    past = (
        (np.nextafter(box.a - sx, -np.inf), my),
        (np.nextafter(box.b + sx, np.inf), my),
        (mx, np.nextafter(box.c - sy, -np.inf)),
        (mx, np.nextafter(box.d + sy, np.inf)),
    )
    for x, y in ((math.nan, my), (mx, math.nan), (math.inf, my), (mx, -math.inf), *past):
        with pytest.raises(DomainError):
            query(x, y)
    # within the slack: the value at the clipped point, bit for bit
    for (x, y), (cx, cy) in (((box.b + sx, box.d + sy), (box.b, box.d)), ((box.a - sx, my), (box.a, my)), ((mx, box.c - sy), (mx, box.c))):
        assert query(x, y) == query(cx, cy)


@pytest.mark.parametrize("entry", ["SampledSource.eval", "TSource.eval", "t_eval"])
def test_array_queries_with_a_nan_are_refused_and_empty_ones_are_not(entry):
    box, query = _point_queries()[entry]
    mx, my = 0.5 * (box.a + box.b), 0.5 * (box.c + box.d)
    far = box.b + 7.0
    # one NaN turns min and max into NaN: it must not hide the NaN itself, nor an out-of-box entry next to it
    for x, y in (([mx, math.nan, far], my), ([mx, math.nan], my), (mx, [my, math.nan]), ([math.nan, mx], [[my], [math.inf]])):
        with pytest.raises(DomainError):
            query(np.array(x), np.array(y))
    for x, y in ((np.empty(0), math.nan), (np.empty((0, 1)), np.array([far, my])), (far, np.empty(0))):
        assert query(x, y).shape == np.broadcast_shapes(np.shape(x), np.shape(y))


def _broadcast_bilinear(src: SampledSource, x, y):
    # the interpolant with cells found on the broadcast inputs
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    r, (m, n) = src.domain, (src.samples.spec.m, src.samples.spec.n)
    xs, ys = src.samples.spec.xs(), src.samples.spec.ys()
    xf, yf = np.clip(xb.reshape(-1), r.a, r.b), np.clip(yb.reshape(-1), r.c, r.d)
    i = np.clip(np.searchsorted(xs, xf, side="right") - 1, 0, m - 2)
    j = np.clip(np.searchsorted(ys, yf, side="right") - 1, 0, n - 2)
    fx = (xf - xs[i]) / (xs[i + 1] - xs[i])
    fy = (yf - ys[j]) / (ys[j + 1] - ys[j])
    v = src.samples.matrix
    out = (1.0 - fx) * (1.0 - fy) * v[i, j] + fx * (1.0 - fy) * v[i + 1, j] + (1.0 - fx) * fy * v[i, j + 1] + fx * fy * v[i + 1, j + 1]
    return out.reshape(xb.shape)


@pytest.mark.parametrize(
    "box, m, n",
    [(Box(1.0, 2.0, 1.0, 2.0), 129, 129), (Box(-3.0, 1e-3, 2.0, 9.0), 5, 7), (Box(0.1, 0.7, -1.0, 1.0), 1025, 3), (Box(1e6, 1e6 + 1.0, -0.5, 0.25), 33, 2)],
)
def test_sampled_source_eval_on_axis_shapes_matches_the_broadcast_interpolant(box, m, n):
    # cells are found on each axis's own shape; the values are those of the broadcast form, bit for bit
    rng = np.random.default_rng(m * n)
    spec = GridSpec(box, m, n)
    src = SampledSource(GridSamples(spec, rng.standard_normal((m, n))))
    xs, ys = spec.xs(), spec.ys()
    sx, sy = box.slack()
    qx = np.concatenate([rng.uniform(box.a - sx, box.b + sx, 4000), xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)])
    qy = np.concatenate([rng.uniform(box.c - sy, box.d + sy, qx.size - 3 * n), ys, np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf)])
    qx = np.clip(qx, box.a - sx, box.b + sx)
    qy = np.clip(rng.permutation(qy), box.c - sy, box.d + sy)
    for x, y in ((qx, qy), (qx[:, None], ys[None, :]), (xs[:, None], qy[None, :64]), (qx[7], qy)):
        assert src.eval(x, y).tobytes() == _broadcast_bilinear(src, x, y).tobytes()
    # every node passes through exactly
    assert src.eval(xs[:, None], ys[None, :]).tobytes() == src.samples.matrix.tobytes()


def test_knots_are_declared_by_smooth_sampled_and_shifted_sources():
    assert CallableSource(lambda x, y: x).knots() is None
    assert CallableSource(lambda x, y: x, smooth=True).knots() == ((), ())
    spec = GridSpec(Box(0.0, 1.0, 2.0, 4.0), 5, 3)
    src = SampledSource(sample(CallableSource(lambda x, y: x * y), spec))
    kx, ky = src.knots()
    assert np.array_equal(kx, spec.xs()) and np.array_equal(ky, spec.ys())
    kx, ky = ShiftedSource(src, 1.0, -0.5).knots()
    assert np.array_equal(kx, spec.xs() + 1.0) and np.array_equal(ky, spec.ys() - 0.5)
    assert ShiftedSource(CallableSource(lambda x, y: x), 1.0, 1.0).knots() is None
    assert [k.size for k in ShiftedSource(CallableSource(lambda x, y: x, smooth=True), 1.0, 1.0).knots()] == [0, 0]


def test_finite_field_messages_name_the_field():
    cases = [
        (lambda: Box("x", 1, 0, 1), "box coordinate a must be a real number", "a"),
        (lambda: Box(0, 1, 0, math.inf), "box coordinate d must be finite", "d"),
        (lambda: Rectangle(1, None, 1, 2), "box coordinate b must be a real number", "b"),
        (lambda: FracOrder(0.5, [1]), "beta must be a real number", "beta"),
        (lambda: FracOrder(0.5, 0.5, q=math.nan), "q must be finite", "q"),
    ]
    for build, message, name in cases:
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message and info.value.parameter == name


def test_sampled_source_interpolates_inside_cells():
    spec = GridSpec(Box(0, 1, 0, 1), 2, 2)
    gs = GridSamples(spec, np.array([0.0, 0.0, 0.0, 4.0]))
    src = SampledSource(gs)
    assert src(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)  # bilinear: 4 * 0.5 * 0.5
    assert src(1.0, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_shifted_source_eval_domain_split_sup():
    base = CallableSource(
        lambda x, y: x * y,
        name="prod",
        domain=Box(0, 1, 0, 1),
        split=None,
        sup_bound=lambda box: abs(box.b * box.d),
    )
    sh = ShiftedSource(base, 2.0, 3.0)
    assert sh(2.5, 3.5) == 0.5 * 0.5
    assert sh.domain == Box(2, 3, 3, 4)
    # sup bound queries translate back to base coordinates
    assert sh.sup_bound(Box(2, 3, 3, 4)) == 1.0


def test_shifted_source_preserves_split():
    base = CallableSource(name="s", split=(np.sin, np.cos))
    sh = ShiftedSource(base, 1.0, 1.0)
    g, h = sh.xy_split()
    assert g(1.5) == pytest.approx(math.sin(0.5), abs=1e-15)
    assert h(1.5) == pytest.approx(math.cos(0.5), abs=1e-15)


# ---------------------------------------------------------------------------
# sampling and parallel helpers


def test_sample_thread_count_never_changes_bits(monkeypatch):
    spec = GridSpec(Box(1, 2, 1, 2), 17, 13)
    src = CallableSource(lambda x, y: np.sin(x * y) / (x + y), name="mix")
    monkeypatch.setenv("FRACDIM2D_THREADS", "1")
    base = sample(src, spec).values
    for k in ("2", "3", "8"):
        monkeypatch.setenv("FRACDIM2D_THREADS", k)
        assert np.array_equal(sample(src, spec).values, base)


def test_sample_threads_run_through_the_shared_block_runner(monkeypatch):
    # the runner, not sample, decides how many workers a grid gets, from the thread count and the work
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    runs = []
    real = core._spread

    def counted(run, items, cost):
        runs.append((items, core.worker_count(), cost))
        return real(run, items, cost)

    monkeypatch.setattr(core, "_spread", counted)
    spec = GridSpec(Box(1, 2, 1, 2), 17, 13)
    src = CallableSource(lambda x, y: np.sin(x * y) / (x + y), name="mix")
    monkeypatch.setenv("FRACDIM2D_THREADS", "1")
    one = sample(src, spec)
    assert runs == [(range(17), 1, 13)]  # one runner call at every worker count, a row of n entries per item
    monkeypatch.setenv("FRACDIM2D_THREADS", "2")
    two = sample(src, spec)
    assert runs[1:] == [(range(17), 2, 13)]
    assert one.values.tobytes() == two.values.tobytes()


def test_sample_rejects_uncovered_domain():
    src = CallableSource(lambda x, y: x, name="id", domain=Box(0, 1, 0, 1))
    with pytest.raises(DomainError):
        sample(src, GridSpec(Box(0, 2, 0, 1), 3, 3))


def test_worker_count_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("FRACDIM2D_THREADS", raising=False)
    assert worker_count() == 8  # every core by default
    monkeypatch.setenv("FRACDIM2D_THREADS", "5")
    assert worker_count() == 5
    monkeypatch.setenv("FRACDIM2D_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("FRACDIM2D_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("FRACDIM2D_THREADS", "0")
    assert worker_count() == 8
    for bad in ("zebra", "-4", "-1"):
        monkeypatch.setenv("FRACDIM2D_THREADS", bad)
        with pytest.raises(ParameterError) as err:
            worker_count()
        assert err.value.parameter == "FRACDIM2D_THREADS"


def test_cli_threads_hold_for_one_command(monkeypatch, capsys):
    # --threads decides inside its command and FRACDIM2D_THREADS outside it, also after a command that failed
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("FRACDIM2D_THREADS", "2")
    handed = []
    real = core.row_blocks
    monkeypatch.setattr(core, "row_blocks", lambda count, workers: handed.append(workers) or real(count, workers))
    grid = ["--fn", "sinxy", "--rect", "1,2,1,2", "--grid", "512,257"]  # over 2^17 samples: two workers
    assert cli.main(["construct", *grid, "--threads", "1"]) == 0
    assert handed == [1]  # sample's one loop, in one block
    assert worker_count() == 2
    assert cli.main(["construct", *grid]) == 0
    assert handed[1:] == [2]
    assert cli.main(["construct", *grid, "--threads", "1", "--shift", "x"]) == 2
    assert worker_count() == 2
    assert cli.main(["dimension", "--fn", "sinxy", "--grid", "3,3", "--threads", "1"]) == 3  # no usable delta
    assert worker_count() == 2
    capsys.readouterr()
    assert cli.main(["construct", *grid, "--threads", "-3"]) == 2
    assert json.loads(capsys.readouterr().err)["parameter"] == "threads"
    assert worker_count() == 2
    assert len(handed) == 2  # neither failed command nor the refused one reached a loop


def test_thread_requests_are_capped_at_the_cpu_count(monkeypatch):
    # the cap is read off the blocks a parallel loop would run; no thread starts
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("FRACDIM2D_THREADS", raising=False)
    assert len(row_blocks(4097, worker_count())) == 4
    monkeypatch.setenv("FRACDIM2D_THREADS", "4097")
    assert len(row_blocks(4097, worker_count())) == 4
    assert len(row_blocks(3, worker_count())) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one block
    assert len(row_blocks(4097, worker_count())) == 1


def test_sample_refuses_grids_over_the_node_budget(monkeypatch):
    def never(x, y):
        raise AssertionError("evaluated an oversized grid")

    src = CallableSource(never, name="never")
    with pytest.raises(SizeError):
        sample(src, GridSpec(Box(0, 1, 0, 1), 200000, 200000))
    monkeypatch.setitem(core._BUDGET, "entries", 100)
    with pytest.raises(SizeError):
        sample(src, GridSpec(Box(0, 1, 0, 1), 10, 11))
    ok = sample(CallableSource(lambda x, y: x + y, name="sum"), GridSpec(Box(0, 1, 0, 1), 10, 10))
    assert ok.values.size == 100


# ---------------------------------------------------------------------------
# the one resource budget

_SRC = pathlib.Path(core.__file__).parent

# The largest need of each limit, among calls that ran to the end, that core._within saw over
# tier-1, the three bench/run.py workloads, every `verify --scale full` suite and the README
# commands (a wrapper around the helper logged them), with the call that made it.
_LARGEST_CALL = {
    "entries": 4097 * 4097,  # bench geometry: sampling the 4097^2 staircase
    "evaluations": 33 * 33 * 128 * 128,  # bench operator weighted-sinxy-33, tensor route
    "operations": 1_511_752_000,  # bench operator and the README: weierstrass 1025^2 on the split mesh at 16384 panels
    "panels": 2048,  # a 65^2 mesh-2d grid at 2048 panels, and the error probe doubling 1024
    "cells": 2048,  # verify sandwich: 32 x 64 cells on [0, 0.5] x [0, 1]
    "nodes": 16,  # the variation oracle on 4 x 4 grids
    "terms": 91,  # weierstrass kmax = 90 at lam = 1.5
}
# limits whose value sits below eight times their largest call, and the ratio they keep
_BELOW_EIGHT = {
    "entries": 7.99,  # 2^27 is eight times 4096^2, one node short per side
    "panels": 4.0,  # the knot mesh shares the tensor rule's panel cap
    "nodes": 1.0,  # the oracle enumerates chains, exponentially many in its nodes: capped at the grids it checks
}


def test_every_limit_sits_far_above_the_largest_logged_call():
    assert set(_LARGEST_CALL) == set(core._BUDGET)
    for limit, need in _LARGEST_CALL.items():
        assert core._BUDGET[limit] >= _BELOW_EIGHT.get(limit, 8.0) * need, limit
    # the evaluation budget is the smallest power of two at least eight times its largest call
    assert core._BUDGET["evaluations"] // 2 < 8 * _LARGEST_CALL["evaluations"] <= core._BUDGET["evaluations"]


def test_every_size_refusal_is_the_budget_helper():
    texts = {path.name: path.read_text() for path in _SRC.glob("*.py")}
    sites = [(name, line) for name, text in texts.items() for line in text.splitlines() if "SizeError(" in line]
    assert sites == [("core.py", "class SizeError(RuntimeError):"), ("core.py", inspect.getsource(core._within).splitlines()[-1])]
    assert "raise SizeError(" in inspect.getsource(core._within)
    assert "_within" not in texts["cli.py"] and "_BUDGET" not in texts["cli.py"]
    for name, text in texts.items():
        assert not re.search(r"_MAX_[A-Z]|_BRUTE_(CELL_)?LIMIT", text), name


def test_each_limit_literal_appears_once():
    table = re.search(r"_BUDGET = \{(.*?)\n\}", (_SRC / "core.py").read_text(), re.S).group(1)
    literals = dict(re.findall(r'"(\w+)": ([^,]+),', table))
    assert set(literals) == set(core._BUDGET)
    code = "".join(path.read_text() for path in _SRC.glob("*.py"))
    for limit, literal in literals.items():
        k = int(math.log2(core._BUDGET[limit]))
        assert literal == f"1 << {k}", limit
        assert len(re.findall(rf"1\s*<<\s*{k}\b|2\s*\*\*\s*{k}\b", code)) == 1, limit


def test_workers_keep_the_callers_floating_point_state(monkeypatch):
    # numpy's errstate is a context variable: each block runs in a copy of the caller's context
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("FRACDIM2D_THREADS", "2")
    big = np.full(4, 1e308)

    def run(rows):
        big[rows.start : rows.stop] * 10.0

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            core._spread(run, range(4))
    with np.errstate(over="ignore"):
        core._spread(run, range(4))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_a_forked_child_builds_its_own_pool(monkeypatch):
    # the pool's threads do not survive a fork: a child handed its parent's pool would queue
    # its blocks for a thread that is not there and wait for ever
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    src = CallableSource(lambda x, y: np.sin(x * y), name="sinxy")
    spec = GridSpec(Box(1, 2, 1, 2), 512, 512)  # 2^18 samples: two workers
    monkeypatch.setenv("FRACDIM2D_THREADS", "2")
    expect = sample(src, spec).values.tobytes()
    assert core._pool is not None  # the parent's pool, its worker now idle

    def child():
        if sample(src, spec).values.tobytes() != expect:
            raise SystemExit(1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    try:
        proc.join(10)
        hung = proc.is_alive()
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert not hung, "the forked child did not finish its grid within 10 s"
    assert proc.exitcode == 0


def test_concurrent_callers_build_one_pool_and_keep_their_bits(monkeypatch):
    # many callers at once, switching threads every microsecond: the pool is still built
    # once, and every caller's grid has the bits of a one-worker run
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    built = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(core, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(core, "_pool", None)
    src = CallableSource(lambda x, y: np.sin(x * y), name="sinxy")
    spec = GridSpec(Box(1, 2, 1, 2), 512, 257)  # over 2^17 samples: two workers
    monkeypatch.setenv("FRACDIM2D_THREADS", "1")
    expect = sample(src, spec).values.tobytes()
    monkeypatch.setenv("FRACDIM2D_THREADS", "2")
    start = threading.Barrier(8)

    def caller():
        start.wait(timeout=60)  # all eight reach the first grid, and the unbuilt pool, at once
        return [sample(src, spec).values.tobytes() for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            futures = [callers.submit(caller) for _ in range(8)]
            got = [g for f in futures for g in f.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
        if core._pool is not None:
            core._pool.shutdown()  # this test's pool; the one before it comes back at teardown
    assert built == [1]
    assert all(g == expect for g in got)


@given(st.integers(1, 200), st.integers(1, 16))
def test_row_blocks_partition(count, workers):
    blocks = row_blocks(count, workers)
    flat = [i for b in blocks for i in b]
    assert flat == list(range(count))
    assert len(blocks) <= workers


# ---------------------------------------------------------------------------
# compensated sum


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=0, max_size=200))
def test_stable_sum_matches_fsum(xs):
    assert stable_sum(xs) == pytest.approx(math.fsum(xs), rel=1e-15, abs=1e-9)


def test_stable_sum_cancellation():
    # naive summation loses the 1.0 here; compensated keeps it
    terms = [1e16, 1.0, -1e16] * 10
    assert stable_sum(terms) == pytest.approx(10.0, abs=1e-6)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: stable_sum([1.0, math.nan]), NumericError, "stable_sum term is not finite"),
        (lambda: stable_sum([1e308, 1e308]), NumericError, "stable_sum overflowed"),
        (
            lambda: quad_error_probe(make_source("sinxy"), Box(1.0, 2.0, 1.0, 2.0), FracOrder(0.5, 0.5), QuadratureSpec(panels=4)),
            ParameterError,
            "error probe needs at least 8 panels",
        ),
    ],
    ids=["stable-sum-nan", "stable-sum-overflow", "probe-at-4-panels"],
)
def test_library_refusals_raise_their_documented_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# CSV / JSON round trips


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_samples_csv_round_trip_exact(m, n, scale):
    spec = GridSpec(Box(0.5, 2.5, 1.0, 4.0), m, n)
    rng = np.random.default_rng(abs(hash((m, n, scale))) % 2**32)
    gs = GridSamples(spec, scale * rng.standard_normal(m * n))
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "g.csv")
        write_samples_csv(gs, path)
        back = read_samples_csv(path)
    assert back.spec == gs.spec
    assert np.array_equal(back.values, gs.values)


def _savetxt_csv(gs, path):
    # the writer's original form: one np.savetxt row per grid node
    m, n = gs.spec.m, gs.spec.n
    cols = np.empty((m * n, 3), dtype=np.float64)
    cols[:, 0] = np.repeat(gs.spec.xs(), n)
    cols[:, 1] = np.tile(gs.spec.ys(), m)
    cols[:, 2] = gs.values
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,value\n")
        np.savetxt(fh, cols, fmt="%.17g", delimiter=",", newline="\n")


def test_samples_csv_bytes_match_savetxt(tmp_path):
    spec = GridSpec(Box(-1.0 / 3.0, 2.5, 1e-3, 4.0), 3, 5)
    vals = np.random.default_rng(9).standard_normal(15)
    vals[[0, 4, 7, 11]] = [-0.0, 5e-324, 1e300, -1e-300]
    gs = GridSamples(spec, vals)
    write_samples_csv(gs, str(tmp_path / "new.csv"))
    _savetxt_csv(gs, str(tmp_path / "ref.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_samples_json_round_trip_exact(tmp_path):
    spec = GridSpec(Box(1, 2, 1, 3), 4, 5)
    gs = GridSamples(spec, np.linspace(-1, 1, 20))
    path = tmp_path / "g.json"
    write_samples_json(gs, str(path))
    back = read_samples_json(str(path))
    assert back.spec == gs.spec
    assert np.array_equal(back.values, gs.values)


def test_read_samples_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n0,0,1\n0,1,2\n1,0,3\n")  # 3 rows cannot tile a grid with n=2
    with pytest.raises(ParameterError):
        read_samples_csv(str(path))


def test_read_samples_csv_rejects_column_major_rows(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("x,y,value\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n0,2,5\n1,2,6\n")  # y varies slowest
    with pytest.raises(ParameterError, match="rows are not in row-major grid order"):
        read_samples_csv(str(path))


def test_read_samples_json_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 2, "n": 2}')
    with pytest.raises(ParameterError):
        read_samples_json(str(path))


@pytest.mark.parametrize("cell", ["abc", "0x10", "1_0"])
def test_read_samples_csv_rejects_a_cell_that_is_not_a_number(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,value\n0,0,{cell}\n0,1,2\n1,0,3\n1,1,4\n")
    with pytest.raises(ParameterError):
        read_samples_csv(str(path))


def test_read_samples_csv_header_only_raises_without_a_warning(tmp_path):
    import warnings

    path = tmp_path / "empty.csv"
    path.write_text("x,y,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            read_samples_csv(str(path))


@pytest.mark.parametrize(
    "body",
    [
        '{"rect": {"a": 0, "b": 1, "c": 0, "d": 1}, "m": 2, "n": 2, "values": [1, 2,',
        '{"rect": {"a": 0, "b": 1, "c": 0, "d": 1}, "m": 2, "n": 2, "values": [1, 2, "x", 4]}',
        '{"rect": {"a": 0, "b": 1, "c": 0, "d": 1}, "m": "two", "n": 2, "values": [1, 2, 3, 4]}',
    ],
)
def test_read_samples_json_rejects_malformed_documents(tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    with pytest.raises(ParameterError):
        read_samples_json(str(path))
