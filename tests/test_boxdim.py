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
    NumericError,
    ParameterError,
    ResolutionError,
    SampledSource,
    ShiftedSource,
    SizeError,
    boxcount_bruteforce_3d,
    default_deltas,
    dimension_fit,
    fit_loglog,
    make_source,
    oscillation_counts,
    sample,
)
from fracdim2d import boxdim, core

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
        box = default_box(name)
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


def test_oscillation_counts_refuses_a_bare_matrix_before_reading_delta():
    g = _grid(lambda x, y: x * y, side=17)
    with pytest.raises(ParameterError, match="^expected GridSamples$") as info:
        oscillation_counts(g.matrix, 0.25)
    assert info.traceback[-1].name == "_rows"  # the row reader checks the type before the cells are sized


def test_bruteforce_cell_cap():
    g = _grid(lambda x, y: x, side=513)
    with pytest.raises(SizeError):
        boxcount_bruteforce_3d(g, 1.0 / 256.0)


@pytest.mark.parametrize(
    "delta, error, message",
    [
        # 256 x 256 cells also leave cells without 2 x 2 nodes: the cell cap is checked first
        (1.0 / 256.0, SizeError, "brute-force count at delta=0.00390625 needs about 65536 cells; the budget is 16384"),
        (0.01, ResolutionError, "delta=0.01 leaves a cell with fewer than 2x2 sample nodes on a 65x65 grid"),
        (2.0, ResolutionError, "delta=2 does not split the rectangle"),
        (-0.5, ParameterError, "delta must be positive and finite"),
        (math.nan, ParameterError, "delta must be positive and finite"),
    ],
)
def test_bruteforce_error_precedence_and_messages(delta, error, message):
    g = _grid(lambda x, y: x)
    with pytest.raises(error) as info:
        boxcount_bruteforce_3d(g, delta)
    assert type(info.value) is error and str(info.value) == message
    with pytest.raises(ParameterError, match="^expected GridSamples$"):
        boxcount_bruteforce_3d(g.matrix, delta)  # the argument type is checked before anything else


@pytest.mark.parametrize("delta", [1e-12, 1e-300, 5e-324])
def test_delta_finer_than_the_grid_is_refused_before_its_cells_are_sized(delta):
    # 1e12 cells per side would size 8 TB windows; at 5e-324 the side/delta quotient is inf
    g = _grid(lambda x, y: x)
    with pytest.raises(ResolutionError, match="fewer than 2x2 sample nodes on a 65x65 grid"):
        oscillation_counts(g, delta)
    with pytest.raises(SizeError, match="brute-force count at delta=.* cells; the budget is 16384"):
        boxcount_bruteforce_3d(g, delta)


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
    for which in ("median", "oracle"):  # a fit is of the lower or the upper count
        with pytest.raises(ParameterError, match="^which must be lower or upper$"):
            DimensionFit(points=pts, slope=2.0, intercept=1.0, r_squared=1.0, which=which)
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


@pytest.mark.parametrize(
    "row, parameter",
    [
        ((-0.125, 64), "deltas"),
        ((0.0, 64), "deltas"),
        ((math.inf, 64), "deltas"),
        ((0.125, 64.7), "counts"),  # not truncated to 64
        ((0.125, 0), "counts"),
        ((0.125, math.nan), "counts"),
    ],
)
def test_fit_loglog_refuses_bad_rows(row, parameter):
    with pytest.raises(ParameterError) as info:
        fit_loglog([(0.5, 4), (0.25, 16), row], which="lower")
    assert info.value.parameter == parameter
    # a count that is an integer stored as a float is one
    assert fit_loglog([(0.5, 4.0), (0.25, 16.0), (0.125, 64.0)]).points == ((0.5, 4), (0.25, 16), (0.125, 64))


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
        box = default_box(name)
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
        g = GridSamples(spec, rng.standard_normal((spec.m, spec.n)))
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


# ---------------------------------------------------------------------------
# the one-pass ladder against a plain per-delta count


def _strip_reduce(mat, starts, stops, op):
    out = np.empty((starts.size,) + mat.shape[1:], dtype=np.float64)
    for k in range(starts.size):
        out[k] = op(mat[starts[k] : stops[k]], axis=0)
    return out


def _reference_counts(g, delta):
    """``oscillation_counts`` one delta at a time: a max and a min pass over the matrix per axis."""
    if not isinstance(g, GridSamples):
        raise ParameterError("expected GridSamples")
    delta = float(delta)
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError("delta must be positive and finite", parameter="delta")
    box = g.spec.rect
    if delta >= min(box.width, box.height):
        raise ResolutionError(f"delta={delta:g} does not split the rectangle")
    mc = boxdim._cells_1d(box.a, box.b, delta)
    nc = boxdim._cells_1d(box.c, box.d, delta)
    xst, xsp = boxdim._window_bounds(g.spec.xs(), box.a, mc, delta, box.b)
    yst, ysp = boxdim._window_bounds(g.spec.ys(), box.c, nc, delta, box.d)
    if np.any(xsp - xst < 2) or np.any(ysp - yst < 2):
        raise ResolutionError(
            f"delta={delta:g} leaves a cell with fewer than 2x2 sample nodes on a {g.spec.m}x{g.spec.n} grid"
        )
    col_max = _strip_reduce(g.matrix, xst, xsp, np.max)
    col_min = _strip_reduce(g.matrix, xst, xsp, np.min)
    osc = (_strip_reduce(col_max.T, yst, ysp, np.max).T - _strip_reduce(col_min.T, yst, ysp, np.min).T) / delta
    s_low = float(np.sum(np.maximum(osc, 1.0)))
    s_high = 2.0 * mc * nc + float(np.sum(osc))
    return BoxCount(
        delta=delta,
        n_lower=int(math.ceil(s_low - boxdim._EDGE_TOL * (1.0 + abs(s_low)))),
        n_upper=int(math.floor(s_high + boxdim._EDGE_TOL * (1.0 + abs(s_high)))),
        m=mc,
        n=nc,
    )


def _reference_fit(g, deltas, which="lower"):
    """``dimension_fit`` with one ``_reference_counts`` call per delta, in the caller's order."""
    if which not in ("lower", "upper"):
        raise ParameterError("which must be lower or upper", parameter="which")
    usable, dropped = [], []
    for d in deltas:
        try:
            bc = _reference_counts(g, float(d))
        except ResolutionError:
            dropped.append(float(d))
            continue
        usable.append((bc.delta, bc.n_lower if which == "lower" else bc.n_upper))
    if len(usable) < 3:
        raise ResolutionError(f"need at least 3 usable deltas, got {len(usable)} (dropped {len(dropped)})")
    return fit_loglog(usable, which=which, dropped=dropped)


def _outcome(call, *args):
    try:
        return call(*args)
    except (ParameterError, ResolutionError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "parameter", None)


def _assert_ladder_matches(g, deltas):
    counts, dropped = boxdim._ladder(g, deltas)
    want, want_dropped = [], []
    for d in deltas:
        try:
            want.append(_reference_counts(g, d))
        except ResolutionError:
            want_dropped.append(float(d))
    assert counts == want and dropped == want_dropped, (g.spec, deltas)
    for which in ("lower", "upper"):
        assert _outcome(dimension_fit, g, deltas, which) == _outcome(_reference_fit, g, deltas, which)
    for bc in want:
        assert oscillation_counts(g, bc.delta) == bc


@pytest.fixture
def matrix_reads(monkeypatch):
    """Counts the levels that read the sample matrix rather than a finer level's cells."""
    reads = []
    real = boxdim._window_extrema

    def counted(mat, xwin, ywin):
        reads.append(xwin[0].size)
        return real(mat, xwin, ywin)

    monkeypatch.setattr(boxdim, "_window_extrema", counted)
    return reads


def test_ladder_equals_per_delta_counts_on_catalog_grids(matrix_reads):
    from fracdim2d import catalog_names, default_box

    for name in catalog_names():
        src = make_source(name)
        box = default_box(name)
        g = sample(src, GridSpec(box, 257, 257))
        _assert_ladder_matches(g, default_deltas(g.spec))
        side = min(box.width, box.height)
        _assert_ladder_matches(g, [side / 4, side / 8, side / 16, side / 32])
    # a box away from the origin: cell edges lo + k delta carry rounding
    g = sample(make_source("weierstrass"), GridSpec(Box(1.0, 2.0, 1.0, 2.0), 1025, 1025))
    del matrix_reads[:]
    counts, _ = boxdim._ladder(g, default_deltas(g.spec))
    assert len(counts) == 6 and len(matrix_reads) == 1
    _assert_ladder_matches(g, default_deltas(g.spec))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ladder_equals_per_delta_counts_on_random_fields(seed):
    rng = np.random.default_rng(seed)
    specs = (
        GridSpec(UNIT, 129, 129),
        GridSpec(UNIT, 129, 97),  # non-square grid
        GridSpec(Box(1e3, 1e3 + 2.0, -7.3, -5.1), 161, 177),  # away from the origin
    )
    for spec in specs:
        g = GridSamples(spec, rng.standard_normal((spec.m, spec.n)))
        side = min(spec.rect.width, spec.rect.height)
        _assert_ladder_matches(g, default_deltas(spec))
        _assert_ladder_matches(g, [side * f for f in (0.3, 0.1, 0.07, 0.05, 0.25, 0.125)])
        _assert_ladder_matches(g, [side * f / 4 * (1.0 + 1e-11) for f in (1.0, 0.5, 0.25, 0.125)])


def test_ladder_on_deltas_that_do_not_nest_or_leave_a_short_cell(matrix_reads):
    rng = np.random.default_rng(7)
    g = GridSamples(GridSpec(UNIT, 129, 97), rng.standard_normal((129, 97)))
    _assert_ladder_matches(g, [0.3, 0.1, 0.07])
    del matrix_reads[:]
    boxdim._ladder(g, [0.3, 0.1, 0.07])
    assert matrix_reads == [15, 10]  # 0.07 and 0.1 do not nest; 0.3 is three cells of 0.1
    # 0.3 leaves a short last cell on both axes; it is reduced from 0.15 and from 0.075
    bc = oscillation_counts(g, 0.3)
    assert (bc.m, bc.n) == (4, 4)
    del matrix_reads[:]
    counts, _ = boxdim._ladder(g, [0.3, 0.15, 0.075])
    assert counts == [_reference_counts(g, d) for d in (0.3, 0.15, 0.075)]
    assert len(matrix_reads) == 1


def test_ladder_keeps_order_duplicates_drops_and_errors():
    rng = np.random.default_rng(3)
    g = GridSamples(GridSpec(UNIT, 65, 65), rng.standard_normal((65, 65)))
    cases = [
        [0.0625, 0.25, 1.5, 0.125, 1e-5],  # unsorted, two dropped
        [0.125, 0.5, 0.25, 0.125, 0.0625],  # a duplicate: deltas must be distinct
        [0.25, 0.25, 0.25],
        [0.25, 0.125],  # too few
        [1.5, 0.25, 1e-5, 0.125, 2.0],  # too few once the drops are out
        [0.25, -1.0, 0.125, 0.0625],  # a bad delta after a good one
        [1.5, float("nan"), 0.25],
        [0.5, 0.25, 0.125, float("inf")],
        [],
    ]
    for deltas in cases:
        for which in ("lower", "upper", "oracle"):
            assert _outcome(dimension_fit, g, deltas, which) == _outcome(_reference_fit, g, deltas, which), (deltas, which)
        assert [_outcome(oscillation_counts, g, d) for d in deltas] == [_outcome(_reference_counts, g, d) for d in deltas]
    counts, dropped = boxdim._ladder(g, [0.0625, 0.25, 1.5, 0.125, 0.25, 1e-5])
    assert [bc.delta for bc in counts] == [0.0625, 0.25, 0.125, 0.25] and dropped == [1.5, 1e-5]
    assert _outcome(dimension_fit, g.matrix, [0.5, 0.25, 0.125]) == _outcome(_reference_fit, g.matrix, [0.5, 0.25, 0.125])
    assert _outcome(dimension_fit, g.matrix, []) == _outcome(_reference_fit, g.matrix, [])


def test_ladder_reads_the_matrix_where_finer_windows_do_not_tile(matrix_reads):
    # node 48 of 81 on [0, 1] (x = 0.6) sits 1.5e-9 fine deltas above the
    # edge the two levels share: outside the fine slack (1e-9 fine
    # deltas) and inside the coarse one (1e-9 coarse deltas), so it belongs
    # to the coarse cells on both sides of the edge but to one fine cell
    spec = GridSpec(UNIT, 81, 65)
    x_node = spec.xs()[48]
    fine = x_node / (4.0 + 1.5e-9)
    coarse = 2.0 * fine
    edge = 0.0 + coarse * 2
    assert 1e-9 * fine < x_node - edge <= 1e-9 * coarse
    flat = GridSamples(spec, np.zeros((81, 65)))
    fine_win, coarse_win = boxdim._level(flat, fine).xwin, boxdim._level(flat, coarse).xwin
    assert coarse_win[1][1] == 49 and fine_win[1][3] == 48  # the coarse cell left of the edge holds the node
    assert boxdim._runs(fine_win, coarse_win) is None

    rng = np.random.default_rng(11)
    mat = 0.01 * rng.standard_normal((81, 65))
    mat[48] += 50.0  # the node's row sets the oscillation of the cells around it
    g = GridSamples(spec, mat)
    deltas = [coarse, fine, fine / 2]
    _assert_ladder_matches(g, deltas)
    del matrix_reads[:]
    counts, _ = boxdim._ladder(g, deltas)
    assert counts[0] == _reference_counts(g, coarse)
    # the edges drift apart along the axis, so every level reads the matrix
    assert matrix_reads == [14, 7, 4]


def test_runs_need_each_run_without_gaps():
    coarse = (np.array([0]), np.array([6]))
    assert np.array_equal(boxdim._runs((np.array([0, 3]), np.array([3, 6])), coarse), [0])
    assert boxdim._runs((np.array([0, 4]), np.array([3, 6])), coarse) is None  # node 3 lies in no fine window


def test_dyadic_4097_ladder_reads_the_matrix_once(matrix_reads):
    spec = GridSpec(UNIT, 4097, 4097)
    xs = spec.xs()
    g = GridSamples(spec, np.sin(37.0 * xs)[:, None] * np.cos(23.0 * xs)[None, :])
    deltas = default_deltas(spec)
    assert len(deltas) == 8
    fit = dimension_fit(g, deltas)
    assert len(fit.points) == 8 and matrix_reads == [512]  # the finest level, 1/512, alone
    assert fit.points[-1][1] == _reference_counts(g, deltas[-1]).n_lower


def test_window_extrema_holds_cells_not_column_tables(monkeypatch):
    # each row window's column max and min are reduced along y at once, and a matrix's bands are slices
    # of it: the traced peak is O(cells + n) floats, where x windows x n column extrema (2.1 MB here)
    # would not fit
    import tracemalloc

    g = sample(make_source("weierstrass"), GridSpec(UNIT, 1025, 1025))
    level = boxdim._level(g, min(default_deltas(g.spec)))
    cells = level.m * level.n
    assert cells == 128 * 128
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACDIM2D_THREADS", threads)
        tracemalloc.start()
        try:
            rows = boxdim._Rows(g.spec, boxdim._rows(g).read, 1)  # weighed as evaluated rows, so two workers take bands
            cmax, cmin = boxdim._window_extrema(rows, level.xwin, level.ywin)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cmax.shape == cmin.shape == (level.m, level.n)
        assert peak < 3 * 8 * (cells + g.spec.n)
        assert peak < 8 * level.m * g.spec.n


# ---------------------------------------------------------------------------
# counts from rows evaluated on demand


@pytest.mark.parametrize("block", [core._APPLY_BLOCK, 1000])
def test_streamed_ladder_equals_the_sampled_one(monkeypatch, block):
    # at 1000 entries a band holds a few rows, so every finest window is a band read a block at a time,
    # and a worker takes every 64 entries of work, so both threads reduce bands
    monkeypatch.setattr(boxdim, "_APPLY_BLOCK", block)
    if block < core._APPLY_BLOCK:
        monkeypatch.setattr(core, "_GRAIN", 64)
    rng = np.random.default_rng(23)
    field = SampledSource(GridSamples(GridSpec(UNIT, 97, 129), rng.standard_normal((97, 129))))
    cases = [
        (make_source("weierstrass"), GridSpec(UNIT, 257, 257)),
        (make_source("t-parabola-sine"), GridSpec(UNIT, 257, 193)),
        (ShiftedSource(make_source("sinxy"), 1.0, 1.0), GridSpec(Box(1.1, 1.9, 1.2, 1.8), 257, 193)),
        (field, GridSpec(UNIT, 97, 129)),  # the field at its own nodes
        (field, GridSpec(Box(0.1, 0.9, 0.05, 0.95), 161, 113)),  # and resampled
    ]
    for src, spec in cases:
        g = sample(src, spec)
        side = min(spec.rect.width, spec.rect.height)
        for deltas in (default_deltas(spec), [side * f for f in (0.3, 0.1, 0.07, 0.05)]):
            want = ([], [])
            for d in deltas:
                try:
                    want[0].append(_reference_counts(g, d))
                except ResolutionError:
                    want[1].append(float(d))
            assert len(want[0]) >= 2, (src.name, deltas)
            for threads in ("1", "2"):
                monkeypatch.setenv("FRACDIM2D_THREADS", threads)
                assert boxdim._ladder(core._row_reader(src, spec), deltas) == want, (src.name, deltas, threads)
                # the matrix's slices, weighed as evaluated rows so that they too reach both workers
                assert boxdim._ladder(boxdim._Rows(spec, boxdim._rows(g).read, 1), deltas) == want


def test_streamed_rows_refuse_what_sample_refuses(monkeypatch):
    inside = make_source("t-parabola-sine")
    for spec, error in ((GridSpec(Box(-0.5, 1.0, 0.0, 1.0), 9, 9), core.DomainError),
                        (GridSpec(UNIT, 1 << 14, 1 << 14), SizeError)):
        with pytest.raises(error) as direct:
            sample(inside, spec)
        with pytest.raises(error) as streamed:
            core._row_reader(inside, spec)
        assert str(streamed.value) == str(direct.value)
    hole = CallableSource(lambda x, y: np.where((x > 0.7) & (y < 0.2), np.nan, x * y), name="hole")
    spec = GridSpec(UNIT, 129, 129)
    with pytest.raises(NumericError, match="^grid samples must be finite$"):
        sample(hole, spec)
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACDIM2D_THREADS", threads)
        with pytest.raises(NumericError, match="^grid samples must be finite$"):
            boxdim._ladder(core._row_reader(hole, spec), default_deltas(spec))
