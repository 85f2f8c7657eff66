import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdim2d import (
    Box,
    BoxCount,
    CallableSource,
    DimensionFit,
    GridSamples,
    GridSpec,
    ParameterError,
    ResolutionError,
    SampledSource,
    SizeError,
    boxcount_bruteforce_3d,
    default_deltas,
    dimension_fit,
    fit_loglog,
    make_source,
    oscillation_counts,
    sample,
)
from fracdim2d import boxdim

UNIT = Box(0.0, 1.0, 0.0, 1.0)


def _grid(f, side=65, box=UNIT):
    return sample(CallableSource(f, name="t"), GridSpec(box, side, side))


# ---------------------------------------------------------------------------
# counts: exact cases


def test_flat_graph_needs_one_layer_of_boxes():
    g = _grid(lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))))
    bc = oscillation_counts(g, 0.25)
    # a flat graph touches exactly one box per cell column
    assert bc.m == bc.n == 4
    assert bc.n_lower == 16
    assert boxcount_bruteforce_3d(g, 0.25) == 16


def test_plane_counts_match_slope_two():
    g = _grid(lambda x, y: x + y)
    # oscillation per delta-cell of x+y is 2*delta, so each column needs
    # ceil(2 delta/delta) = 2 boxes at least
    bc = oscillation_counts(g, 0.125)
    assert bc.n_lower == 2 * 8 * 8
    direct = boxcount_bruteforce_3d(g, 0.125)
    assert bc.n_lower <= direct <= bc.n_upper


def test_known_lower_counts_for_plane_ladder():
    g = _grid(lambda x, y: x + y, side=1025)
    got = {d: oscillation_counts(g, d).n_lower for d in (0.25, 0.125, 0.0625, 0.03125)}
    assert got == {0.25: 32, 0.125: 128, 0.0625: 512, 0.03125: 2048}


def test_lower_never_exceeds_upper_and_both_positive():
    g = _grid(lambda x, y: np.sin(7 * x) * np.cos(5 * y))
    for d in (0.5, 0.25, 0.125):
        bc = oscillation_counts(g, d)
        assert 0 < bc.n_lower <= bc.n_upper


# ---------------------------------------------------------------------------
# sandwich property against the direct 3-d count


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 0.25, 0.125]))
def test_sandwich_on_random_smooth_fields(seed, delta):
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-2, 2, size=3)
    g = _grid(lambda x, y: a * x + b * y + c * np.sin(3 * x * y), side=33)
    bc = oscillation_counts(g, delta)
    direct = boxcount_bruteforce_3d(g, delta)
    assert bc.n_lower <= direct <= bc.n_upper


def test_sandwich_for_every_catalog_function():
    from fracdim2d import catalog_names, default_box

    for name in catalog_names():
        src = make_source(name)
        box = src.domain if src.domain is not None else default_box(name)
        g = sample(src, GridSpec(box, 33, 33))
        side = min(box.width, box.height)
        for k in (4, 8):
            d = side / k
            bc = oscillation_counts(g, d)
            direct = boxcount_bruteforce_3d(g, d)
            assert bc.n_lower <= direct <= bc.n_upper, (name, d)


# ---------------------------------------------------------------------------
# resolution and validation errors


def test_delta_validation():
    g = _grid(lambda x, y: x * y, side=17)
    with pytest.raises(ParameterError):
        oscillation_counts(g, 0.0)
    with pytest.raises(ParameterError):
        oscillation_counts(g, -0.5)
    with pytest.raises(ResolutionError):
        oscillation_counts(g, 1.5)  # coarser than the rectangle
    with pytest.raises(ResolutionError):
        oscillation_counts(g, 0.001)  # finer than the sample spacing supports


def test_bruteforce_cell_cap():
    g = _grid(lambda x, y: x, side=513)
    with pytest.raises(SizeError):
        boxcount_bruteforce_3d(g, 1.0 / 256.0)


def test_boxcount_validation():
    with pytest.raises(ParameterError):
        BoxCount(delta=0.0, n_lower=1, n_upper=2, m=1, n=1)
    with pytest.raises(ParameterError):
        BoxCount(delta=0.5, n_lower=5, n_upper=2, m=1, n=1)
    with pytest.raises(ParameterError):
        BoxCount(delta=0.5, n_lower=1, n_upper=2, m=0, n=1)


def test_dimension_fit_validation():
    pts = ((0.5, 10), (0.25, 40), (0.125, 160))
    fit = DimensionFit(points=pts, slope=2.0, intercept=1.0, r_squared=1.0, which="lower")
    assert fit.points == pts
    with pytest.raises(ParameterError):
        DimensionFit(points=pts, slope=2.0, intercept=1.0, r_squared=1.0, which="median")
    with pytest.raises(ResolutionError):
        DimensionFit(points=pts[:2], slope=2.0, intercept=1.0, r_squared=1.0, which="lower")
    with pytest.raises(ParameterError):
        DimensionFit(points=pts[::-1], slope=2.0, intercept=1.0, r_squared=1.0, which="lower")


# ---------------------------------------------------------------------------
# fitting


def test_fit_loglog_exact_power_law():
    pts = [(2.0 ** -k, int(4.0 ** k)) for k in range(1, 6)]
    fit = fit_loglog(pts, which="lower")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_constant_counts_degenerate_r2():
    pts = [(2.0 ** -k, 7) for k in range(1, 5)]
    fit = fit_loglog(pts, which="lower")
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # zero total variance: perfectly explained


def test_dimension_fit_drops_unusable_deltas():
    g = _grid(lambda x, y: x + y, side=65)
    deltas = [1.5, 0.25, 0.125, 0.0625, 1e-5]
    fit = dimension_fit(g, deltas, "lower")
    assert set(fit.dropped) == {1.5, 1e-5}
    assert len(fit.points) == 3
    assert fit.slope == pytest.approx(2.0, abs=0.05)


def test_dimension_fit_needs_three_usable():
    g = _grid(lambda x, y: x + y, side=9)
    with pytest.raises(ResolutionError):
        dimension_fit(g, [0.5, 0.25], "lower")
    with pytest.raises(ParameterError):
        dimension_fit(g, [0.5, 0.25, 0.125], "oracle")


def test_plane_dimension_two_both_bounds():
    g = _grid(lambda x, y: x + y, side=257)
    for which in ("lower", "upper"):
        fit = dimension_fit(g, default_deltas(g.spec), which)
        assert 1.9 <= fit.slope <= 2.1, which
        assert fit.r_squared > 0.98


def test_staircase_construction_dimension_two():
    src = make_source("t-parabola-sine")
    g = sample(src, GridSpec(src.domain, 257, 257))
    fit = dimension_fit(g, default_deltas(g.spec), "lower")
    assert 1.85 <= fit.slope <= 2.15


def test_weierstrass_dimension_above_two():
    src = make_source("weierstrass")
    from fracdim2d import default_box

    g = sample(src, GridSpec(default_box("weierstrass"), 257, 257))
    fit = dimension_fit(g, default_deltas(g.spec), "lower")
    assert 2.3 <= fit.slope <= 2.7
    assert fit.r_squared > 0.99


def test_default_deltas_halving_ladder():
    spec = GridSpec(UNIT, 257, 257)
    ds = default_deltas(spec)
    assert ds[0] == 0.25
    for a, b in zip(ds, ds[1:]):
        assert b == a / 2
    assert ds[-1] >= 8.0 * spec.hx * (1 - 1e-12)
    assert len(ds) >= 3


# ---------------------------------------------------------------------------
# the column-strip brute-force count against a plain per-cell count


def _per_cell_count(g, delta):
    """The brute-force count one cell at a time: candidates, one evaluation and one range per cell."""
    box = g.spec.rect
    mc = boxdim._cells_1d(box.a, box.b, delta)
    nc = boxdim._cells_1d(box.c, box.d, delta)
    xs, ys = g.spec.xs(), g.spec.ys()
    xst, xsp = boxdim._window_bounds(xs, box.a, mc, delta, box.b)
    yst, ysp = boxdim._window_bounds(ys, box.c, nc, delta, box.d)
    interp = SampledSource(g, name="per-cell")
    total = 0
    for i in range(mc):
        x0 = box.a + i * delta
        x1 = min(x0 + delta, box.b)
        cand_x = np.unique(np.concatenate((xs[xst[i] : xsp[i]], [x0, x1])).clip(box.a, box.b))
        for j in range(nc):
            y0 = box.c + j * delta
            y1 = min(y0 + delta, box.d)
            cand_y = np.unique(np.concatenate((ys[yst[j] : ysp[j]], [y0, y1])).clip(box.c, box.d))
            patch = interp.eval(cand_x[:, None], cand_y[None, :])
            rng = (float(np.max(patch)) - float(np.min(patch))) / delta
            total += max(int(math.ceil(rng - boxdim._EDGE_TOL * (1.0 + rng))), 1)
    return total


# 0.25 and 0.125 divide the unit side; 0.3 leaves a short last cell; 0.1
# puts edges where lo + k*delta + delta and lo + (k+1)*delta differ in the
# last bit; 0.25 (1 + 1e-11) puts every node 0.25 k within the edge slack
# of a cell edge, so that node belongs to both neighbours
_EDGE_CASE_DELTAS = (0.25, 0.125, 0.3, 0.1, 0.25 * (1.0 + 1e-11))


def test_bruteforce_equals_per_cell_count_on_catalog_grids():
    from fracdim2d import catalog_names, default_box

    for name in catalog_names():
        src = make_source(name)
        box = src.domain if src.domain is not None else default_box(name)
        g = sample(src, GridSpec(box, 65, 65))
        side = min(box.width, box.height)
        for k in (4, 8, 16):
            assert boxcount_bruteforce_3d(g, side / k) == _per_cell_count(g, side / k), (name, k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bruteforce_equals_per_cell_count_on_random_fields(seed):
    rng = np.random.default_rng(seed)
    square = GridSpec(UNIT, 65, 65)
    skew = GridSpec(Box(-1.0, 2.0, 0.5, 1.7), 97, 37)  # non-square cells and grid
    for spec, deltas in ((square, _EDGE_CASE_DELTAS), (skew, (0.3, 0.1, 0.123456))):
        g = GridSamples.from_matrix(spec, rng.standard_normal((spec.m, spec.n)))
        for d in deltas:
            assert boxcount_bruteforce_3d(g, d) == _per_cell_count(g, d), (spec, d)


def test_bruteforce_equals_per_cell_count_across_strip_cuts(monkeypatch):
    g = _grid(lambda x, y: np.sin(7 * x) * np.cos(5 * y) + x * y, side=65)
    want = {d: _per_cell_count(g, d) for d in _EDGE_CASE_DELTAS}
    # a block smaller than one cell's patch: every strip is a single y-cell
    for block in (1, 64, 300):
        monkeypatch.setattr(boxdim, "_BRUTE_BLOCK", block)
        assert {d: boxcount_bruteforce_3d(g, d) for d in _EDGE_CASE_DELTAS} == want, block


def test_candidate_runs_hold_each_cells_own_set():
    coords = np.linspace(0.0, 1.0, 65)
    for delta in _EDGE_CASE_DELTAS:
        count = boxdim._cells_1d(0.0, 1.0, delta)
        starts, stops = boxdim._window_bounds(coords, 0.0, count, delta, 1.0)
        runs, offs = boxdim._candidate_runs(coords, 0.0, 1.0, delta, starts, stops)
        assert offs[0] == 0 and offs[-1] == runs.size and offs.size == count + 1
        for k in range(count):
            e0 = 0.0 + k * delta
            e1 = min(e0 + delta, 1.0)
            own = np.unique(np.concatenate((coords[starts[k] : stops[k]], [e0, e1])).clip(0.0, 1.0))
            assert np.array_equal(runs[offs[k] : offs[k + 1]], own), (delta, k)
    # a node within the slack of an edge sits in both neighbours' runs
    delta = 0.25 * (1.0 + 1e-11)
    starts, stops = boxdim._window_bounds(coords, 0.0, 4, delta, 1.0)
    runs, offs = boxdim._candidate_runs(coords, 0.0, 1.0, delta, starts, stops)
    assert 0.5 in runs[offs[1] : offs[2]] and 0.5 in runs[offs[2] : offs[3]]
