"""Box-counting bounds for the graph of a sampled bivariate function.

The graph of f over a rectangle is covered by delta-cubes.  Splitting
the rectangle into a delta-grid of closed cells, the number of cubes
needed over one cell is controlled by the oscillation R of f there:
between max(R/delta, 1) and R/delta + 2.  Summing over cells brackets
the full count:

    sum max(R/delta, 1)  <=  N(delta)  <=  2 m n + sum R/delta

with m, n the cell counts per side.  On a grid of samples the
oscillation is taken over the sample values falling in each closed cell
(cells share their edges, so boundary nodes count for both neighbours),
which is exact for the piecewise-bilinear interpolant whenever the cell
edges align with sample lines.

The dimension estimate fits these counts over a ladder of deltas
(Falconer, *Fractal Geometry*, ch. 11), usually halving ones.  The
ladder is counted in one pass over the samples: the finest delta reads
row bands, taking each cell's max and min, and a coarser delta takes its
cells' max and min from a finer delta's cell arrays when, on both axes,
each of its [start, stop) node windows is exactly the union of a
contiguous run of the finer windows (checked on the index ranges, since
the edge slack scales with delta).  A delta that fails the check reads
row bands itself.  A band is a slice of a ``GridSamples`` matrix or rows
of a source evaluated on demand, so no m x n grid need be held.  max and
min are exact, so every count is the one a direct read gives.

``boxcount_bruteforce_3d`` recounts small cases directly from the
bilinear interpolant: over each cell it stacks the minimal run of
z-cubes covering the interpolant's range there.  Cut cells are handled
by evaluating the interpolant on the cell boundary as well, which can
only widen the range; with aligned cell edges the ranges coincide with
the sampled oscillations and the count sits inside the bracket above.
It is the oracle for the bracket, so it shares no reduction with
``oscillation_counts``: each axis's per-cell candidate coordinates are
laid end to end, one contiguous run per cell, and the interpolant is
evaluated once per cell column on that column's x-run times the y
candidates, then reduced over x and over each cell's y-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _APPLY_BLOCK,
    GridSamples,
    ParameterError,
    ResolutionError,
    SampledSource,
    _Rows,
    _spread,
    _within,
    stable_sum,
)

__all__ = [
    "BoxCount",
    "DimensionFit",
    "oscillation_counts",
    "boxcount_bruteforce_3d",
    "dimension_fit",
    "fit_loglog",
    "default_deltas",
]

# interpolant values per evaluation of the brute-force count (2 MB of
# float64), unless a single cell holds more
_BRUTE_BLOCK = 1 << 18
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class BoxCount:
    """Lower and upper bounds on the delta-cube count of a graph.

    m and n are the number of delta-cells per side; each satisfies
    side/delta <= count <= 1 + side/delta (the last cell may be short).
    """

    delta: float
    n_lower: int
    n_upper: int
    m: int
    n: int

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ParameterError("delta must be positive and finite", parameter="delta")
        if self.m < 1 or self.n < 1:
            raise ParameterError("cell counts must be positive")
        if self.n_lower > self.n_upper:
            raise ParameterError("count bounds out of order")


@dataclass(frozen=True)
class DimensionFit:
    """Least-squares slope of log(count) against log(1/delta).

    ``points`` holds (delta, count) pairs sorted by descending delta;
    ``dropped`` lists deltas rejected as unusable for the source grid.
    """

    points: tuple[tuple[float, int], ...]
    slope: float
    intercept: float
    r_squared: float
    which: str
    dropped: tuple[float, ...] = ()

    def __post_init__(self):
        if self.which not in ("lower", "upper"):
            raise ParameterError("which must be lower or upper", parameter="which")
        if len(self.points) < 3:
            raise ResolutionError("a dimension fit needs at least 3 points")
        ds = [p[0] for p in self.points]
        if any(b >= a for a, b in zip(ds, ds[1:])):
            raise ParameterError("points must be sorted by strictly descending delta")


def _cells_1d(lo: float, hi: float, delta: float) -> int:
    # ceil with dust guard so an exact divisor yields exactly side/delta cells; capped where a subnormal delta gives inf
    return int(math.ceil(min((hi - lo) / delta - _EDGE_TOL, 2.0**63)))


def _window_bounds(coords: np.ndarray, lo: float, count: int, delta: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-open index ranges [start, stop) of samples in each closed cell."""
    edges_lo = lo + delta * np.arange(count)
    edges_hi = np.minimum(edges_lo + delta, hi)
    slack = _EDGE_TOL * delta
    starts = np.searchsorted(coords, edges_lo - slack, side="left")
    stops = np.searchsorted(coords, edges_hi + slack, side="right")
    return starts.astype(np.int64), stops.astype(np.int64)


def _rows(g: GridSamples | _Rows) -> _Rows:
    """A reader's rows, or a matrix's as slices of no cost, reduced on the caller: a second worker only slowed them."""
    if isinstance(g, _Rows):
        return g
    if not isinstance(g, GridSamples):
        raise ParameterError("expected GridSamples")
    return _Rows(g.spec, lambda r0, r1, mat=g.matrix: mat[r0:r1], 0)


class _Level(NamedTuple):
    """The delta-cells of a grid: their counts per side and node windows per axis, each (starts, stops)."""

    delta: float
    m: int
    n: int
    xwin: tuple[np.ndarray, np.ndarray]
    ywin: tuple[np.ndarray, np.ndarray]


def _level(g: GridSamples | _Rows, delta: float, brute: bool = False) -> _Level:
    """The delta-cells of ``g``'s grid.

    Raises ParameterError for a bad grid or delta, and ResolutionError for
    a delta that does not split the rectangle or leaves a cell with fewer
    than 2 x 2 sample nodes.  With ``brute``, more cells than the
    ``cells`` budget is a SizeError, checked before the windows.
    """
    if not isinstance(g, (GridSamples, _Rows)):
        raise ParameterError("expected GridSamples")
    delta = float(delta)
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError("delta must be positive and finite", parameter="delta")
    box = g.spec.rect
    if delta >= min(box.width, box.height):
        raise ResolutionError(f"delta={delta:g} does not split the rectangle")
    mc = _cells_1d(box.a, box.b, delta)
    nc = _cells_1d(box.c, box.d, delta)
    if brute:
        _within("cells", mc * nc, f"brute-force count at delta={delta:g}")
    # more cells than grid intervals leave a cell one node: refused before the counts size the windows
    if mc < g.spec.m and nc < g.spec.n:
        xwin = _window_bounds(g.spec.xs(), box.a, mc, delta, box.b)
        ywin = _window_bounds(g.spec.ys(), box.c, nc, delta, box.d)
        if np.all(xwin[1] - xwin[0] >= 2) and np.all(ywin[1] - ywin[0] >= 2):
            return _Level(delta, mc, nc, xwin, ywin)
    raise ResolutionError(
        f"delta={delta:g} leaves a cell with fewer than 2x2 sample nodes on a {g.spec.m}x{g.spec.n} grid"
    )


def _window_extrema(rows: _Rows, xwin, ywin) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of the samples over every cell, reading each row band of ``rows`` once.

    A band is a run of x windows whose rows fit one ``_APPLY_BLOCK`` (a
    taller window is read a block at a time); ``_spread`` hands bands to
    its workers.  A window's column max and min are at once reduced along
    y into its row of cells, so a worker holds O(cells + n) floats besides
    its band.  Neighbouring y windows share their edge nodes, so a row's
    reduction is one ``reduceat`` over the interleaved bounds (start_0,
    stop_0, start_1, ...), keeping every other result; a last stop at the
    end of the row is left out, as ``reduceat`` runs the last window to the
    end anyway.  max and min are exact, so no thread count moves a bit.
    """
    (xst, xsp), (yst, ysp) = xwin, ywin
    n = rows.spec.n
    bounds = np.stack((yst, ysp), axis=1).reshape(-1)
    if bounds[-1] == n:
        bounds = bounds[:-1]
    step = max(1, _APPLY_BLOCK // n)
    per = max(1, step // int(np.max(xsp - xst)))  # windows per band
    cell_max = np.empty((xst.size, yst.size))
    cell_min = np.empty_like(cell_max)

    def run(bands: range) -> None:
        col_max, col_min = np.empty((2, n))
        for k0 in bands:
            k1 = min(k0 + per, xst.size)
            top = int(xst[k0])
            band = rows.read(top, min(int(xsp[k1 - 1]), top + step))
            for k in range(k0, k1):
                part = band[xst[k] - top : xsp[k] - top]
                np.max(part, axis=0, out=col_max)
                np.min(part, axis=0, out=col_min)
                for r0 in range(top + step, int(xsp[k]), step):  # the rest of a window taller than a block
                    part = rows.read(r0, min(r0 + step, int(xsp[k])))
                    np.maximum(col_max, np.max(part, axis=0), out=col_max)
                    np.minimum(col_min, np.min(part, axis=0), out=col_min)
                cell_max[k] = np.maximum.reduceat(col_max, bounds)[::2]
                cell_min[k] = np.minimum.reduceat(col_min, bounds)[::2]

    _spread(run, range(0, xst.size, per), rows.cost * min(step, rows.spec.m) * n)
    return cell_max, cell_min


def _runs(fine, coarse) -> np.ndarray | None:
    """Where each coarse window's run of fine windows starts, or None unless the fine windows tile the coarse ones.

    ``fine`` and ``coarse`` are (starts, stops) along one axis.  The fine
    windows tile the coarse ones when they split into contiguous runs,
    one per coarse window, each without gaps and covering exactly the
    coarse window's [start, stop).  Starts and stops never decrease
    along an axis, so a run covers [its first start, its last stop).
    The edge slack scales with delta, so a node between the fine and the
    coarse slack of a shared edge breaks the tiling.
    """
    (fs, fe), (cs, ce) = fine, coarse
    first = np.searchsorted(fs, cs, side="left")
    if first[0] != 0 or np.any(np.diff(first) <= 0) or first[-1] >= fs.size:
        return None
    last = np.append(first[1:], fs.size) - 1
    if not (np.array_equal(fs[first], cs) and np.array_equal(fe[last], ce)):
        return None
    inside = np.ones(fs.size - 1, dtype=bool)
    inside[first[1:] - 1] = False  # neighbours in two different runs need not touch
    if np.any(fs[1:][inside] > fe[:-1][inside]):
        return None
    return first


def _box_count(level: _Level, cell_max: np.ndarray, cell_min: np.ndarray) -> BoxCount:
    delta, mc, nc = level.delta, level.m, level.n
    # the oscillations are summed in column-major order, whatever the
    # layout of the cell arrays, so the sums keep their bits
    osc = np.empty((mc, nc), dtype=np.float64, order="F")
    np.subtract(cell_max, cell_min, out=osc)
    osc /= delta
    s_low = float(np.sum(np.maximum(osc, 1.0)))
    s_high = 2.0 * mc * nc + float(np.sum(osc))
    guard_lo = _EDGE_TOL * (1.0 + abs(s_low))
    guard_hi = _EDGE_TOL * (1.0 + abs(s_high))
    return BoxCount(
        delta=delta,
        n_lower=int(math.ceil(s_low - guard_lo)),
        n_upper=int(math.floor(s_high + guard_hi)),
        m=mc,
        n=nc,
    )


def _count_levels(rows: _Rows, levels: list[_Level]) -> list[BoxCount]:
    """The BoxCount of each level from ``_level``, in the order given.

    Distinct deltas are counted from finest to coarsest.  A level whose
    windows are tiled on both axes by those of a finer level already
    counted (``_runs``; the nearest such level serves) takes its cell max
    and min by ``reduceat`` over that level's cell arrays.  Any other
    level, the finest among them, reads row bands of ``rows``
    (``_window_extrema``).  max and min are exact, so each count is the
    one a direct read of the whole matrix gives.
    """
    done: list[tuple] = []  # (level, cell max, cell min), finest first
    counts: dict[float, BoxCount] = {}
    for level in sorted({lv.delta: lv for lv in levels}.values(), key=lambda lv: lv.delta):
        for finer, fmax, fmin in reversed(done):
            rx, ry = _runs(finer.xwin, level.xwin), _runs(finer.ywin, level.ywin)
            if rx is not None and ry is not None:
                cmax = np.maximum.reduceat(np.maximum.reduceat(fmax, rx, axis=0), ry, axis=1)
                cmin = np.minimum.reduceat(np.minimum.reduceat(fmin, rx, axis=0), ry, axis=1)
                break
        else:
            cmax, cmin = _window_extrema(rows, level.xwin, level.ywin)
        done.append((level, cmax, cmin))
        counts[level.delta] = _box_count(level, cmax, cmin)
    return [counts[lv.delta] for lv in levels]


def _ladder(g: GridSamples | _Rows, deltas) -> tuple[list[BoxCount], list[float]]:
    """BoxCounts of the usable deltas in the caller's order, and the deltas dropped as unresolved."""
    levels: list[_Level] = []
    dropped: list[float] = []
    for d in deltas:
        try:
            levels.append(_level(g, float(d)))
        except ResolutionError:
            dropped.append(float(d))
    return (_count_levels(_rows(g), levels) if levels else []), dropped


def oscillation_counts(g: GridSamples, delta: float) -> BoxCount:
    """Oscillation-based cube-count bracket at mesh size ``delta``.

    Every closed cell must contain at least a 2 x 2 block of sample
    nodes, otherwise the grid cannot resolve the cell oscillation and a
    ResolutionError is raised.  ``delta`` at or above the short side of
    the rectangle is likewise rejected.  This is the one-delta case of
    the ladder that ``dimension_fit`` counts: a delta gives the same
    count alone as among others.
    """
    return _count_levels(_rows(g), [_level(g, delta)])[0]


def _candidate_runs(coords: np.ndarray, lo: float, hi: float, delta: float, starts: np.ndarray, stops: np.ndarray):
    """Every cell's candidate coordinates laid end to end, and where each cell's run starts.

    A cell's candidates are the sample coordinates in its window plus its
    two edges, clipped to [lo, hi] and made unique.  Each cell keeps its
    own copy of a node it shares with a neighbour, so cell k is exactly
    the run [offs[k], offs[k+1]) even where two edges that should meet
    differ in the last bit.
    """
    runs = []
    for k in range(starts.size):
        e0 = lo + k * delta
        e1 = min(e0 + delta, hi)
        runs.append(np.unique(np.concatenate((coords[starts[k] : stops[k]], [e0, e1])).clip(lo, hi)))
    return np.concatenate(runs), np.cumsum([0] + [r.size for r in runs])


def boxcount_bruteforce_3d(g: GridSamples, delta: float) -> int:
    """Delta-cube count of the bilinear graph, cell column by cell column.

    For each closed delta-cell the bilinear interpolant's range is taken
    over every candidate extremum: sample nodes inside the cell and the
    interpolant restricted to the cell edges.  The count for the cell is
    the minimal number of stacked delta-cubes covering that range (at
    least one).  Limited to small cell grids.

    The candidates of every cell along an axis form one contiguous run
    of a per-axis array (``_candidate_runs``).  Each cell column
    evaluates the interpolant on its x-run times the y candidates, in
    strips of whole cells of at most ``_BRUTE_BLOCK`` values, takes the
    max and min over x, then over each cell's y-run.  Every value is the
    one a per-cell evaluation gives, so the count is too.  The cells and
    their node windows, and the argument checks, are ``_level``'s.
    """
    level = _level(g, delta, brute=True)
    delta, mc, nc, box = level.delta, level.m, level.n, g.spec.rect
    cand_x, xoff = _candidate_runs(g.spec.xs(), box.a, box.b, delta, *level.xwin)
    cand_y, yoff = _candidate_runs(g.spec.ys(), box.c, box.d, delta, *level.ywin)
    # strips of whole y-cells, cut so a column's widest x-run times a strip fits the block
    per_strip = max(1, _BRUTE_BLOCK // int(np.max(np.diff(xoff))))
    cuts = [0]
    while cuts[-1] < nc:
        j = cuts[-1]
        cuts.append(max(j + 1, int(np.searchsorted(yoff, yoff[j] + per_strip, side="right")) - 1))
    interp = SampledSource(g, name="boxcount-interpolant")
    total = 0
    for i in range(mc):
        cx = cand_x[xoff[i] : xoff[i + 1], None]
        for j0, j1 in zip(cuts[:-1], cuts[1:]):
            strip = interp.eval(cx, cand_y[None, yoff[j0] : yoff[j1]])
            at = yoff[j0:j1] - yoff[j0]
            top = np.maximum.reduceat(np.max(strip, axis=0), at)
            bottom = np.minimum.reduceat(np.min(strip, axis=0), at)
            for rng in ((top - bottom) / delta).tolist():
                total += max(int(math.ceil(rng - _EDGE_TOL * (1.0 + rng))), 1)
    return total


def fit_loglog(points, which: str = "lower", dropped=()) -> DimensionFit:
    """Fit log(count) = slope * log(1/delta) + intercept by least squares; counts must be integers, 4.0 but not 4.9."""
    pts = sorted(((float(d), float(c)) for d, c in points), key=lambda p: -p[0])
    if not all(0.0 < d < math.inf for d, _ in pts):
        raise ParameterError("deltas must be positive and finite", parameter="deltas")
    if not all(c >= 1.0 and c.is_integer() for _, c in pts):
        raise ParameterError("counts must be positive integers", parameter="counts")
    pts = [(d, int(c)) for d, c in pts]
    if len(pts) < 3:
        raise ResolutionError(f"need at least 3 usable deltas, got {len(pts)}")
    seen = [p[0] for p in pts]
    if any(a == b for a, b in zip(seen, seen[1:])):
        raise ParameterError("deltas must be distinct", parameter="deltas")
    xv = [-math.log(d) for d, _ in pts]
    yv = [math.log(c) for _, c in pts]
    k = float(len(pts))
    sx = stable_sum(xv)
    sy = stable_sum(yv)
    sxx = stable_sum(x * x for x in xv)
    sxy = stable_sum(x * y for x, y in zip(xv, yv))
    den = k * sxx - sx * sx
    if den <= 0:
        raise ParameterError("degenerate delta spread", parameter="deltas")
    slope = (k * sxy - sx * sy) / den
    intercept = (sy - slope * sx) / k
    ss_res = stable_sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xv, yv))
    ss_tot = stable_sum((y - sy / k) ** 2 for y in yv)
    r2 = 1.0 if ss_tot <= 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DimensionFit(
        points=tuple(pts),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
        which=which,
        dropped=tuple(float(d) for d in dropped),
    )


def dimension_fit(g: GridSamples, deltas, which: str = "lower") -> DimensionFit:
    """Box-dimension estimate from oscillation counts across ``deltas``.

    Deltas the grid cannot support (too coarse for the rectangle or too
    fine for the sample spacing) are dropped and reported; fewer than 3
    usable deltas is a ResolutionError.  The usable deltas are counted as
    one ladder (``_count_levels``): the sample matrix is read once, in
    row bands, for the finest delta, and each coarser delta whose cell
    windows are unions of a finer delta's windows, checked on the index
    ranges of both axes, is reduced from that delta's cell max and min.
    Deltas that do not nest, as 0.3 and 0.1, read the matrix themselves.
    Either way each count equals ``oscillation_counts`` at that delta.
    """
    if which not in ("lower", "upper"):
        raise ParameterError("which must be lower or upper", parameter="which")
    return _fit_counts(*_ladder(g, deltas), which)


def _fit_counts(counts: list[BoxCount], dropped: list[float], which: str) -> DimensionFit:
    """``dimension_fit`` of counts from ``_ladder``, on the ``which`` bound."""
    usable = [(bc.delta, bc.n_lower if which == "lower" else bc.n_upper) for bc in counts]
    if len(usable) < 3:
        raise ResolutionError(f"need at least 3 usable deltas, got {len(usable)} (dropped {len(dropped)})")
    return fit_loglog(usable, which=which, dropped=dropped)


def default_deltas(spec) -> list[float]:
    """Halving ladder from a quarter of the short side down to 8 grid steps."""
    box = spec.rect
    start = min(box.width, box.height) / 4.0
    floor = 8.0 * max(spec.hx, spec.hy)
    out = []
    d = start
    while d >= floor * (1.0 - 1e-12):
        out.append(d)
        d *= 0.5
    return out
