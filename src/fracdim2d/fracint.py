"""Mixed fractional integration of bivariate functions on rectangles.

The central operator is Katugampola's generalized integral in two
variables, with per-axis power weights.  For orders alpha, beta > 0 and
weights p, q > -1 it maps f to

    (x, y) |-> C * int_a^x int_c^y (x^(p+1) - s^(p+1))^(alpha-1)
                                   (y^(q+1) - t^(q+1))^(beta-1)
                                   s^p t^q f(s, t) dt ds,

    C = (p+1)^(1-alpha) (q+1)^(1-beta) / (Gamma(alpha) Gamma(beta)).

p = 0 gives an axis the Riemann-Liouville kernel, and p = -1, the limit
rho = p + 1 -> 0, the Hadamard kernel (log(x/s))^(alpha-1) ds/s.

Every axis of every operator runs in one coordinate family anchored at
its lower limit a, u = (s^rho - a^rho)/rho (log(s/a) at rho = 0;
``_power_map``), where the kernel is the pure power singularity
(U - u)^(alpha-1) du with constant 1/Gamma(alpha) for every weight.
One rule builder gives each axis a product-midpoint rule: panels graded
toward the singular endpoint, kernel moments integrated exactly per
panel, the smooth factor sampled at panel midpoints.  The rule is exact
for constant integrands and second-order accurate for smooth ones.

Point values are 1x1 grids of the one tensor contraction, so a grid
value and the matching single-point call agree bit for bit.  The one-axis
operator is one row of the same per-output rule.

Under ``method="auto"`` (and ``"separable"``, which only insists on the
split) a split source g(x) + h(y) takes a shared-mesh route instead of the
tensor one: one mesh per axis in u, containing every output coordinate,
with g and h evaluated once per mesh node.  Its weights integrate the
kernel exactly against the hat functions of the mesh (product-trapezoid
integration, the weights of the fractional Adams scheme of Diethelm,
Ford and Freed), so the rule is exact for functions linear in u and
second-order accurate for smooth ones.  A source without a split that
declares its knots (``FunctionSource.knots``: per-axis breakpoints
between which f is C^2, none for a smooth source) takes the same rule on
both axes: each mesh also holds the knots, every piece between them
takes as many parts as the widest (``_mesh_knots``), f is evaluated once
on the product of the two meshes, F, and I f = C W_x F W_y^T, contracted
one axis at a time.  Staircase constructions over smooth seeds declare
their piece edges, and grids of samples their nodes.  When a source also
declares algebraic edges (``FunctionSource.edges``), each mesh opens
with a lead-in graded toward the lower limit.  Other sources take the
tensor route, whose graded midpoint rule does not need f to be smooth.

A mesh of equal steps whose nodes all lie on one exact binary lattice
(integer multiples of one power of two, below 2^52 of them: a p = 0 axis
on a box with dyadic ends, m - 1 and the parts per output interval powers
of two) has the same weights
in every row, shifted: each U_i - u_k is then the exact float
(top_i - k) h, so the weight formula sees the very inputs of the last
node's row.  That row is built once; when the outputs sit equally many
intervals apart, every block of weights is a read-only strided view of it
(``_hat_blocks``), so no m x N weight matrix exists, and the bits are the
same.  Any other mesh builds its weights block by block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (
    Box,
    CallableSource,
    DomainError,
    FracOrder,
    FunctionSource,
    GridSamples,
    GridSpec,
    NumericError,
    ParameterError,
    Rectangle,
    SampledSource,
    VerificationError,
    _APPLY_BLOCK,
    _BUDGET,
    _spread,
    _within,
    sample,
)
from .special import log_normaliser

__all__ = [
    "QuadratureSpec",
    "katugampola_1d",
    "katugampola_2d",
    "katugampola_2d_grid",
    "riemann_liouville_2d",
    "hadamard_2d",
    "compose_semigroup",
    "sup_gap",
    "axis_unit_factor",
    "integral_of_one",
    "BoundCertificate",
    "boundedness_certificate",
    "quad_error_probe",
]

# one hat weight, a power and six more passes over its entries (``_hat_weights``), costs
# about as much as 40 multiply-adds of the contraction: 21-25 ns against 0.6 ns on a 2-vCPU Xeon VM
_HAT_COST = 40


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel count for the per-axis product rule.

    ``panels`` is the number of panels per axis.  The tensor rule's panel
    widths shrink toward the singular endpoint with grading exponent 2.0
    when an order is below 1 (integrable singularity), and are uniform
    (1.0) otherwise.
    """

    panels: int = 64

    def __post_init__(self):
        if not isinstance(self.panels, (int, np.integer)) or isinstance(self.panels, bool):
            raise ParameterError("panels must be an integer", parameter="panels")
        object.__setattr__(self, "panels", int(self.panels))
        if self.panels < 4:
            raise ParameterError(f"need at least 4 panels, got {self.panels}", parameter="panels")

    def graded(self, *orders: float) -> float:
        # one grading serves both axes: graded panels whenever any kernel
        # is singular, uniform otherwise
        return 2.0 if min(orders) < 1.0 else 1.0


# ---------------------------------------------------------------------------
# the axis-rule engine: coordinate maps, rule builder, 2-D contraction


def _power_map(weight: float, lo: float) -> tuple[Callable, Callable]:
    """The coordinate u of an axis with lower limit lo, rho = weight + 1, and its inverse.

    u = (s^rho - lo^rho)/rho = s^rho (1 - exp(-rho l))/rho with l = log(s/lo),
    and u = l at rho = 0 (Hadamard, the limit of the same formula); u = s at
    rho = 1, a shift no rule sees.  Elsewhere u(lo) is exactly 0, so a width
    next to lo keeps its digits and no difference of mapped values cancels.

    The inverse takes t = rho u/lo^rho = (s/lo)^rho - 1.  Up to t = 1 it is
    s = lo + lo expm1(log1p(t)/rho), which keeps the digits next to lo;
    beyond, s = (rho u (1 + 1/t))^(1/rho), as l would carry its rounding
    into s.  l = log1p((s - lo)/lo), lo expm1(l) and t come from logs only
    where they, or lo^rho, leave the normal floats: on boxes wider than
    float64's range of ratios, and at large rho near 0.
    """
    rho, log_lo = weight + 1.0, math.log(lo)
    if rho == 1.0:
        return (lambda s: s), (lambda u: u)
    with np.errstate(all="ignore"):
        lo_rho = np.power(lo, rho)
    normal = lo_rho >= np.finfo(np.float64).tiny

    def ell(s):
        with np.errstate(over="ignore"):
            r = (s - lo) / lo
        return np.where(np.isfinite(r), np.log1p(r), np.log(s) - log_lo)

    def near(el):  # lo e^l
        d = lo * np.expm1(el)
        return np.where(np.isfinite(d), lo + d, np.exp(log_lo + el))

    def back(u):
        with np.errstate(all="ignore"):  # log 0 = -inf at u = 0 gives t = 0; t is inf only where 1/t vanishes
            if rho == 0.0:
                return near(u)
            t = rho * u / lo_rho if normal else np.exp(np.log(rho * u) - rho * log_lo)
            return np.where(t <= 1.0, near(np.log1p(t) / rho), np.power(rho * u * (1.0 + 1.0 / t), 1.0 / rho))

    return (ell if rho == 0.0 else lambda s: s**rho * -np.expm1(-rho * ell(s)) / rho), back


@lru_cache(maxsize=64)
def _unit_rule(panels: int, grading: float, order: float) -> tuple[np.ndarray, np.ndarray]:
    # panel midpoints and tau_k^order - tau_(k+1)^order on [0, 1], shared read-only
    tau = (np.arange(panels, -1, -1, dtype=np.float64) / panels) ** grading
    tp = tau**order
    mids = 0.5 * (tau[:-1] + tau[1:])
    diffs = tp[:-1] - tp[1:]
    mids.flags.writeable = False
    diffs.flags.writeable = False
    return mids, diffs


@contextmanager
def _no_overflow(message: str = "quadrature rule overflows float64: order or power weight too large for this box"):
    # a large power weight, order or source value overflows: a numeric failure, not a crash
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        if "overflow" not in str(exc):
            raise  # invalid or divide, raised only under the caller's own errstate: not an overflow
        raise NumericError(message) from None


_SUM_OVERFLOW = "fractional integral overflows float64: the source's values are too large"
_ONE_OVERFLOW = "integral of 1 overflows float64: order or power weight too large for this box"


def _mapped_widths(ds, du):
    """``du``, the mapped lengths of intervals of length ``ds``, refusing any that collapsed.

    u keeps a width next to lo, so a collapse is left only where u = s rounds (p = 0 on the mesh:
    ``Box(1e6, 1e6 + 3e-10, 1, 2)``'s nodes fall below the float spacing at 1e6) and where s^rho
    underflows; a rule on zero-length intervals would print a confident 0.
    """
    if np.any((np.asarray(ds) > 0.0) & ~(np.asarray(du) > 0.0)):
        raise NumericError("coordinate map rounds an interval to zero length in float64; the box is too narrow for its coordinates")
    return du


def _axis_rules(lo: float, his, order: float, panels: int, grading: float, coord: tuple[Callable, Callable]):
    """Nodes and exact kernel moments for int_lo^hi (U(hi)-U(s))^(order-1) g(s) dU(s).

    One row per upper limit in ``his``; ``coord`` is ``_power_map`` of the
    axis.  In u = U(s), panel k spans [U(hi) - L tau_k, U(hi) - L tau_(k+1)]
    with L = U(hi) - U(lo) (U(lo) is 0, lo at p = 0) and tau_k =
    ((panels-k)/panels)^grading; its moment L^order (tau_k^order -
    tau_(k+1)^order) / order is exact for the kernel, and its node is the
    panel midpoint mapped back to s.  Returns (S, M), both (len(his), panels).
    """
    fwd, back = coord
    mids, diffs = _unit_rule(panels, grading, order)
    his = np.asarray(his, dtype=np.float64).reshape(-1, 1)
    with _no_overflow():
        hi_u = fwd(his)
        scale = _mapped_widths(his - lo, hi_u - fwd(np.float64(lo)))
        return back(hi_u - scale * mids), (scale**order) * diffs / order


def _tensor(src: FunctionSource, rect: Box, xs, ys, order: FracOrder, quad) -> np.ndarray:
    """The operator at every (x_i, y_j), contracting both axis rules against f.

    For row i, f is evaluated at (Sx[i, k], Sy[j, l]) in (j, k, l) order,
    a block of outputs j at a time, at most ``_APPLY_BLOCK >> 2`` entries,
    so each output's P x P values are contiguous.  einsum keeps each
    contraction on numpy's single-threaded core loops and reduces every
    output over l, then over k, as a contraction of that output alone
    would: a value depends only on its operands, so a point call (a 1x1
    grid) and the matching node of a larger grid agree bit for bit.
    Rows go to workers in contiguous blocks with disjoint output slots.
    """
    gr = quad.graded(order.alpha, order.beta)
    Sx, Mx = _axis_rules(rect.a, xs, order.alpha, quad.panels, gr, _power_map(order.p, rect.a))
    Sy, My = _axis_rules(rect.c, ys, order.beta, quad.panels, gr, _power_map(order.q, rect.c))
    pref = _prefactor(order)
    (m, P), n = Sx.shape, Sy.shape[0]
    chunk = max(1, (_APPLY_BLOCK >> 2) // (P * P))
    out = np.empty((m, n), dtype=np.float64)

    def run(rows: range) -> None:
        for i in rows:
            s = Sx[i][None, :, None]
            for j0 in range(0, n, chunk):
                j1 = min(j0 + chunk, n)
                F = np.broadcast_to(np.asarray(src.eval(s, Sy[j0:j1, None, :]), dtype=np.float64), (j1 - j0, P, P))
                inner = np.einsum("jkl,jl->jk", np.ascontiguousarray(F), My[j0:j1], optimize=False)
                out[i, j0:j1] = pref * np.einsum("k,jk->j", Mx[i], inner, optimize=False)

    _spread(run, range(m), n * P * P)
    return _clean(out)


def _hat_weights(U, u, h, order: float):
    """Weights of the left and right node of each mesh interval, one row per upper limit U_i.

    On [u_k, u_(k+1)] of length h_k, with D = U_i - u clipped at 0 (an
    interval above U_i weighs nothing), the moments
    A = int (U_i - u)^(order-1) du and B = int (U_i - u)^(order-1) (u - u_k) du
    are exact; the linear interpolant of g puts A - B/h_k on g(u_k) and
    B/h_k on g(u_(k+1)).
    """
    D = np.maximum(U[:, None] - u[None, :], 0.0)
    Da = D**order
    A = (Da[:, :-1] - Da[:, 1:]) / order
    Da *= D
    B = D[:, :-1] * A - (Da[:, :-1] - Da[:, 1:]) / (order + 1.0)
    B /= h
    return A - B, B


@dataclass(frozen=True)
class _Mesh:
    """One axis of the shared mesh: nodes ``s`` (in s) and ``u`` (in u), the
    interval lengths ``h`` in u, and each output's ``U`` and mesh index ``top``."""

    s: np.ndarray
    u: np.ndarray
    h: np.ndarray
    U: np.ndarray
    top: np.ndarray


def _lead_in(edge: float | None) -> tuple[float, float]:
    """Grading exponent r and lead-in share of the axis for an edge factor (u - A)^edge.

    A factor (u - A)^sigma with 0 < sigma < 1 has a non-integrable second
    derivative at the lower limit A.  On a uniform mesh of width h its
    first interval alone costs h^(1+sigma) (h^1.5 at sigma = 1/2), so the
    product-trapezoid rule drops below second order.  On a lead-in [A, A+L]
    of n intervals graded as u_j - A = L (j/n)^r the first interval costs
    (L n^-r)^(1+sigma), and interval j about h_j^3 (u_j - A)^(sigma-2),
    proportional to j^(r(1+sigma)-3): the lead-in sums to O(n^-2), with
    constant r / (r(1+sigma) - 2), once r(1+sigma) > 2 (Diethelm, Ford and
    Freed, Numer. Algorithms 36, 2004; Stynes, O'Riordan and Gracia, SIAM
    J. Numer. Anal. 55, 2017).  r = 3 / (1+sigma) puts the first interval
    one order beyond h^2 and holds that constant at r: 2 at sigma = 1/2.

    The edge term's error on and beyond the lead-in scales like
    L^(sigma-1) h^2 (axis length 1), and the lead-in costs (r - 1) L / h
    more intervals, so at equal cost the error goes like
    L^(sigma-1) (1 + (r-1) L)^2, least at L = (1-sigma) / ((r-1)(1+sigma))
    = (1-sigma) / (2-sigma): 1/3 at sigma = 1/2.  From sigma = 1 on the
    second derivative is integrable (or the factor is a polynomial) and
    the uniform mesh is already second order: r = 1, no lead-in.
    """
    if edge is None or not 0.0 < edge < 1.0:
        return 1.0, 0.0
    return 3.0 / (1.0 + edge), (1.0 - edge) / (2.0 - edge)


def _mesh_knots(lo: float, his, weight: float, panels: int, knots=()):
    """The knots of ``_mesh`` in s and in u, and the equal parts (in u) of each knot interval.

    The knots are lo, every upper limit, and the source's ``knots`` strictly
    between lo and the last upper limit.  A source knot is dropped within
    tol of the knot below it or of the next upper limit, tol being 1e-9 of
    the axis length in u plus 64 (panels + 1) float spacings of u, so no
    part of an interval it would cut off is rounding noise wide.

    Without source knots every knot interval takes r0 = ceil(panels /
    intervals) parts, so the mesh has at least ``panels`` intervals.  With
    them f is smooth on each source piece, between consecutive source
    knots, but the pieces may differ widely in width and in how fast f
    turns on them.  The staircase's pieces are affine copies of one seed:
    piece n has width w 2^-n and second derivative ~ 4^n / n in x, so with
    r parts its trapezoid error near the far corner, where the kernel
    (U - u)^(order-1) is ~ (w 2^-n)^(order-1), scales like
    (w 2^-n / r)^2 (4^n / n) (w 2^-n)^order ~ 2^(-n order) / (n r^2):
    2^(-n/2) / (n r^2) at order 1/2.  Equal parts per piece keep every
    piece's error below the first's, and the total O(r^-2); parts in
    proportion to width would give piece n r 2^-n of them and an error
    growing like 2^((2 - order) n).  So every piece takes at least
    r = ceil(panels * (widest piece) / (axis length)) parts, which gives
    the widest piece the plain mesh's spacing and scales with ``panels``,
    so that a panel halving halves every part count.  Inside a piece of
    length L they are split over its knot intervals in proportion to
    length, ceil(r h / L) each, and every knot interval keeps at least r0.
    A grid of samples has equal pieces and gets r = ceil(panels / cells)
    parts per cell.
    """
    fwd, _ = _power_map(weight, lo)
    outs = np.unique(np.append(np.float64(lo), np.asarray(his, dtype=np.float64).reshape(-1)))
    extra = np.asarray(knots, dtype=np.float64).reshape(-1)
    extra = extra[(extra > outs[0]) & (extra < outs[-1])]
    with _no_overflow():
        if not extra.size:
            return outs, fwd(outs), np.full(outs.size - 1, max(1, -(-panels // max(1, outs.size - 1))))
        ks = np.concatenate([outs, extra])
        perm = np.argsort(ks, kind="stable")
        ks, src = ks[perm], perm >= outs.size
        uk = fwd(ks)
    span = _mapped_widths(ks[-1] - ks[0], uk[-1] - uk[0])
    tol = 1e-9 * span + 64 * (panels + 1) * np.spacing(max(abs(uk[0]), abs(uk[-1])))
    below = np.diff(uk, prepend=-np.inf)
    above = np.minimum.accumulate(np.where(src, np.inf, uk)[::-1])[::-1] - uk  # to the next upper limit
    keep = ~src | ((below > tol) & (above > tol))
    us = uk[src]
    ks, uk = ks[keep], uk[keep]
    # every source knot, kept or not, ends a piece at the knot nearest to it
    at = np.clip(np.searchsorted(uk, us), 1, uk.size - 1)
    at -= us - uk[at - 1] < uk[at] - us
    ends = np.zeros(uk.size, dtype=bool)
    ends[[0, -1]] = True
    ends[at] = True
    pieces = np.diff(uk[ends])
    r = math.ceil(panels * pieces.max() / span)
    share = np.ceil(r * (np.diff(uk) / pieces[np.cumsum(ends)[:-1] - 1]) - 1e-9)
    return ks, uk, np.maximum(-(-panels // (uk.size - 1)), share).astype(np.int64)


def _mesh(lo: float, his, weight: float, panels: int, edge: float | None = None, knots=()) -> _Mesh:
    """The shared mesh in ``_power_map``'s u for upper limits ``his`` >= lo.

    It holds lo, every upper limit and the source's ``knots`` between
    them, and splits each interval between consecutive knots into equal
    parts in u (``_mesh_knots``), at least ``panels`` intervals in all.
    The output coordinates and the knots are mesh nodes exactly.

    ``edge`` declares a factor (u - A)^edge of the integrand at A = u(lo).
    Its lead-in (``_lead_in``: grading exponent g, share of the axis) then
    runs from lo to the first knot at or past that share, and holds
    n = ceil(g * n0) intervals, n0 the equal parts it would have had, so
    its last widths meet the equal parts beyond it.  Its nodes are
    A + L t^g: the knots inside it sit at t_k = ((U_k - A)/L)^(1/g), and
    [t_k, t_(k+1)] takes round(n t_(k+1)) - round(n t_k) equal parts (at
    least one).  ``top`` is then each output's node index.  Without an
    edge or knots the mesh is the ungraded one bit for bit.
    """
    _, back = _power_map(weight, lo)
    his = np.asarray(his, dtype=np.float64).reshape(-1)
    knots, uk, counts = _mesh_knots(lo, his, weight, panels, knots)
    grade, share = _lead_in(edge)
    with _no_overflow():
        # knot intervals [0, lead) form the graded lead-in; the rest take their equal parts in u
        lead = 0
        if grade > 1.0 and knots.size > 1:
            lead = max(1, int(np.searchsorted(uk - uk[0], share * (uk[-1] - uk[0]))))
        c = counts[lead:]
        frac = (np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)) / np.repeat(c, c)
        parts = [np.repeat(uk[lead:-1], c) + np.repeat(np.diff(uk[lead:]), c) * frac, uk[-1:]]
        if lead:
            span = _mapped_widths(knots[lead] - knots[0], uk[lead] - uk[0])
            t = ((uk[: lead + 1] - uk[0]) / span) ** (1.0 / grade)
            # n0 = lead times its mean share, multiplied in this order so an equal share r rounds as g * lead * r
            n = math.ceil(grade * lead * (int(counts[:lead].sum()) / lead))
            counts[:lead] = np.maximum(1, np.diff(np.round(n * t)))
            tt = np.concatenate([np.linspace(t0, t1, c, endpoint=False) for t0, t1, c in zip(t[:-1], t[1:], counts[:lead])])
            parts.insert(0, uk[0] + span * tt**grade)
        u = np.concatenate(parts)
        idx = np.concatenate([[0], np.cumsum(counts)])
        u[idx] = uk
        s = np.clip(back(u), knots[0], knots[-1])
    h = _mapped_widths(np.repeat(np.diff(knots), counts), np.diff(u))
    s[idx] = knots
    at = np.searchsorted(knots, his)
    return _Mesh(s, u, h, uk[at], idx[at])


def _mesh_nodes(m: int, panels: int, edge: float | None) -> int:
    """An upper bound on the node count of ``_mesh`` for m upper limits, without building it.

    Without source knots, at most m + 1 knots with r = ceil(panels /
    intervals) parts each give fewer than panels + m intervals; a lead-in
    of grading g multiplies its share by at most g and adds at most one
    interval per knot.
    """
    grade = _lead_in(edge)[0]
    return math.ceil(grade * (panels + m)) + m + 2


def _f_blocks(nx: int, ny: int) -> int:
    """How many blocks of x-node rows ``_mesh_2d`` evaluates f in, at most ``_APPLY_BLOCK`` entries each."""
    return -(-nx // max(1, _APPLY_BLOCK // ny))


def _grid_budget(route: str, m: int, n: int, panels: int, edges=None, nodes=(None, None)) -> None:
    """Refuse a grid call whose predicted size exceeds the budget (``core._within``), before it allocates.

    Predicted per route, for m x n outputs: the largest array's entries
    (the output, a mesh, or ``_mesh_2d``'s G buffer of N_x x n), then
    m n P^2 source evaluations for the tensor route and the RL oracle, or
    the operations of the two mesh routes: ``_HAT_COST`` for each hat
    weight a per-block build makes (even where a lattice mesh builds them
    from one row), plus the products of ``_mesh_2d``'s two passes: m N_x +
    n N_y weights for the split mesh, and for ``_mesh_2d`` N_x n (N_y + m)
    products, n N_y weights per block of F and m N_x.  N_x and N_y are
    the mesh sizes of ``_mesh_nodes``, or ``nodes`` where one is given (a
    knot mesh's fewest nodes before it is built, its real size after).
    """
    entries, limit = m * n, "operations"
    if route in ("tensor", "oracle"):
        limit, work = "evaluations", m * n * panels * panels
    else:
        ex, ey = edges or (None, None)
        nx = nodes[0] or _mesh_nodes(m, panels, ex)
        ny = nodes[1] or _mesh_nodes(n, panels, ey)
        if route == "mesh-split":
            entries, work = max(entries, nx, ny), _HAT_COST * (m * nx + n * ny)
        else:
            weights = _f_blocks(nx, ny) * n * ny + m * nx
            entries, work = max(entries, nx * n, ny), nx * n * (ny + m) + _HAT_COST * weights
    what = f"a {m}x{n} grid at {panels} panels ({route} route)"
    _within("entries", entries, what)
    _within(limit, work, what)


def _lattice(u: np.ndarray) -> bool:
    """Whether the nodes ``u`` step by one constant on one exact binary lattice.

    That is, u_k = (q_0 + k d) 2^t for integers q_0 and d > 0, with every
    |u_k| / 2^t below 2^52.  Then a difference u_j - u_k of two nodes is an
    integer multiple of 2^t below 2^53 of them, so float64 holds it exactly:
    it is the float (j - k) d 2^t, whatever j and k are.  O(size).
    """
    if u.size < 2 or not (np.isfinite(u).all() and u[-1] > u[0]):
        return False
    mant, exp = np.frexp(u[u != 0.0])  # |u| = |mant| 2^exp with 1/2 <= |mant| < 1
    ints = np.ldexp(mant, 53).astype(np.int64)
    t = int((exp - 54 + np.frexp((ints & -ints).astype(np.float64))[1]).min())  # 2^t divides every node
    if exp.max() - t > 52:  # some |u_k| / 2^t reaches 2^52
        return False
    q = np.ldexp(u, -t)
    return bool(np.all(np.diff(q) == q[1] - q[0]))


def _hat_blocks(mesh: _Mesh, order: float) -> Callable:
    """``weights(i0, i1, c0, c1)``: ``_hat_weights`` of outputs [i0, i1) on mesh intervals [c0, c1).

    On a mesh that ``_lattice`` accepts, with K intervals, every U_i - u_k is
    the exact float (top_i - k) h, so output i's weight on interval k takes
    the very inputs, and so the very bits, of the last node's weight on
    interval K - top_i + k, and is 0 from k = top_i on, where D is 0 at both
    ends.  That row is built once, ``_APPLY_BLOCK`` entries at a time, and
    followed by zeros.  When ``top`` also steps by one constant tau, row i of
    a block starts tau entries before row i - 1 in that padded row, so every
    block is a read-only strided view of it: no weight block is written, and
    no m x N weight matrix exists.  Any other mesh builds its weights block
    by block.
    """
    top, K = mesh.top, mesh.h.size
    tau = int(top[1] - top[0]) if top.size > 1 else 0
    if not (_lattice(mesh.u) and np.all(np.diff(top) == tau)):

        def weights(i0: int, i1: int, c0: int, c1: int):
            with _no_overflow():
                return _hat_weights(mesh.U[i0:i1], mesh.u[c0 : c1 + 1], mesh.h[c0:c1], order)

        return weights
    # the last node's left and right weights, then zeros: a block of several rows has K < _APPLY_BLOCK,
    # and a block of one row ends at its own top, so no view reads past them
    padded = np.zeros((2, K + min(K, _APPLY_BLOCK)))
    chunk = max(1, _APPLY_BLOCK - 1)  # intervals, so at most _APPLY_BLOCK nodes
    for c0 in range(0, K, chunk):
        c1 = min(c0 + chunk, K)
        with _no_overflow():
            padded[0, c0:c1], padded[1, c0:c1] = _hat_weights(mesh.u[-1:], mesh.u[c0 : c1 + 1], mesh.h[c0:c1], order)
    padded.flags.writeable = False  # and so is every view of it
    strides = (padded.strides[0], -tau * padded.itemsize, padded.itemsize)

    def weights(i0: int, i1: int, c0: int, c1: int):
        at = (K - int(top[i0]) + c0) * padded.itemsize  # numpy refuses a view that would leave ``padded``
        return np.ndarray((2, i1 - i0, c1 - c0), buffer=padded, offset=at, strides=strides)

    return weights


def _hat_apply(mesh: _Mesh, weights: Callable, vals) -> list[np.ndarray]:
    """[sum_k W[i,k] v[k, ...] for v in vals], one row i per output: the product-trapezoid rule.

    ``weights`` is ``_hat_blocks`` of the mesh.  Each ``v`` holds values at
    the mesh nodes along its first axis; any trailing axes are columns
    carried through.  Weights come a block of at most ``_APPLY_BLOCK``
    entries at a time (cut by columns too when one mesh row is longer) and
    are applied to every ``v`` in the same pass, on the calling thread: on
    a 2-vCPU Xeon VM a second worker took the 1025 x 1025 split mesh at
    16384 panels only from 0.064-0.088 s to 0.062-0.071 s, and held a
    second set of blocks (6 MB) in memory.

    On a mesh of equal steps on one exact binary lattice (``_lattice``: a
    p = 0 axis on a box with dyadic ends, m - 1 and the parts per output
    interval powers of two), each block is a read-only strided view of
    one row built once (``_hat_blocks``).  It holds the very weights of a
    per-block build, and the partition of the sums is the same, so are
    the bits.
    """
    n_out, size = mesh.U.size, mesh.u.size
    rows = max(1, _APPLY_BLOCK // size)
    width = max(1, _APPLY_BLOCK // rows - 1)  # intervals per block
    outs = [np.zeros((n_out,) + v.shape[1:]) for v in vals]
    for i0 in range(0, n_out, rows):
        i1 = min(i0 + rows, n_out)
        end = int(mesh.top[i0:i1].max())
        for c0 in range(0, end, width):
            c1 = min(c0 + width, end)
            left, right = weights(i0, i1, c0, c1)
            with _no_overflow(_SUM_OVERFLOW):
                for v, acc in zip(vals, outs):
                    acc[i0:i1] += np.einsum("ik,k...->i...", left, v[c0:c1], optimize=False) + np.einsum(
                        "ik,k...->i...", right, v[c0 + 1 : c1 + 1], optimize=False
                    )
    return outs


def _mesh_apply(fns, lo: float, his, order: float, weight: float, panels: int):
    """Shared-mesh rule on one axis, for upper limits ``his`` >= lo.

    Each function in ``fns`` is evaluated once per node of ``_mesh``.
    Returns ([sum_k W[i,k] f(s_k) for f in fns], int_lo^hi_i of the
    kernel), the second in closed form.
    """
    mesh = _mesh(lo, his, weight, panels)
    vals = [np.broadcast_to(np.asarray(f(mesh.s), dtype=np.float64), mesh.s.shape) for f in fns]
    outs = _hat_apply(mesh, _hat_blocks(mesh, order), vals)
    with _no_overflow():
        return outs, (mesh.U - mesh.u[0]) ** order / order


def _mesh_2d(src: FunctionSource, mx: _Mesh, my: _Mesh, order: FracOrder) -> np.ndarray:
    """C W_x F W_y^T: the shared-mesh rule on both axes, F = f on the product of the meshes.

    F is evaluated a block of x-node rows at a time, at most
    ``_APPLY_BLOCK`` entries, and each block is reduced at once to its rows
    of G = F W_y^T; then out = W_x G.  Both passes are ``_hat_apply``.
    Block boundaries depend only on the mesh sizes, and workers take whole
    blocks of F, so the bits do not depend on the thread count; the x pass
    runs on the caller.
    """
    nx, ny = mx.s.size, my.s.size
    rows = -(-nx // _f_blocks(nx, ny))  # equal blocks, as many as the entry budget needs
    G = np.empty((nx, my.U.size))
    wy = _hat_blocks(my, order.beta)  # once for every block of F

    def run(starts: range) -> None:
        for a0 in starts:
            a1 = min(a0 + rows, nx)
            F = np.broadcast_to(np.asarray(src.eval(mx.s[None, a0:a1], my.s[:, None]), dtype=np.float64), (ny, a1 - a0))
            (Gt,) = _hat_apply(my, wy, [F])
            G[a0:a1] = Gt.T

    _spread(run, range(0, nx, rows), rows * ny)
    (out,) = _hat_apply(mx, _hat_blocks(mx, order.alpha), [G])
    with _no_overflow(_SUM_OVERFLOW):
        return _clean(_prefactor(order) * out)


def _unlog(*logs: float) -> float:
    # the operator constants are built in log space; one beyond float64
    # range is a numeric failure, not a crash
    try:
        return math.exp(sum(logs))
    except OverflowError:
        raise NumericError("operator constant overflows float64") from None


def _prefactor(order: FracOrder) -> float:
    return _unlog(log_normaliser(order.alpha), log_normaliser(order.beta))


# ---------------------------------------------------------------------------
# shared argument checks


def _as_source(f) -> FunctionSource:
    if isinstance(f, FunctionSource):
        return f
    if callable(f):
        return CallableSource(f, name=getattr(f, "__name__", "callable"))
    raise ParameterError("f must be a FunctionSource or a callable")


def _clip_to(lo: float, hi: float, tol: float, v: float, what: str) -> float:
    v = float(v)
    if not math.isfinite(v) or v < lo - tol or v > hi + tol:
        raise DomainError(f"{what}={v} outside [{lo}, {hi}]")
    return min(max(v, lo), hi)


def _clip_axes(rect: Box, xs, ys) -> tuple[list[float], list[float]]:
    # coordinates beyond the rectangle's slack are refused, the rest clipped into it
    tx, ty = rect.slack()
    xs = [_clip_to(rect.a, rect.b, tx, x, "x") for x in np.ravel(xs)]
    return xs, [_clip_to(rect.c, rect.d, ty, y, "y") for y in np.ravel(ys)]


def _clean(v):
    if not np.isfinite(v).all():
        raise NumericError("fractional integral evaluated to a non-finite value")
    v += 0.0  # normalize -0.0, in place in an array
    return v


def _checked(f, rect: Box, quad: QuadratureSpec | None, tensor: bool = True):
    """The preconditions every operator route shares.

    Returns the source and the quadrature spec.  ``tensor`` applies the ``panels``
    budget of the tensor rule, which the RL oracle and the knot mesh share.
    """
    src = _as_source(f)
    quad = quad or QuadratureSpec()
    # the operators uniformly require a strictly positive rectangle, even
    # for weights where a = 0 would be integrable; shift the domain to use
    # functions defined near the axes
    if not isinstance(rect, Box):
        raise ParameterError("rect must be a Box", parameter="rect")
    if rect.a <= 0.0 or rect.c <= 0.0:
        raise DomainError(f"operators need a > 0 and c > 0, got a={rect.a}, c={rect.c}")
    if not src.covers(rect):
        raise DomainError(f"rectangle {rect} is not inside the domain of source {src.name!r}")
    if tensor:
        _within("panels", quad.panels, "a tensor rule")
    return src, quad


# ---------------------------------------------------------------------------
# point evaluation


def katugampola_1d(g: Callable, a: float, x: float, alpha: float, p: float = 0.0, quad: QuadratureSpec | None = None) -> float:
    """One-axis operator: C int_a^x (x^(p+1)-s^(p+1))^(alpha-1) s^p g(s) ds.

    p = -1 is the Hadamard kernel.  ``g`` must accept a numpy array.
    Requires 0 < a <= x; x == a gives 0.
    """
    FracOrder(alpha, 1.0, p, 0.0)  # validate alpha > 0, p >= -1
    quad = quad or QuadratureSpec()
    a = float(a)
    if a <= 0.0:
        raise DomainError(f"lower limit must satisfy a > 0, got a={a}")
    x = float(x)
    if not math.isfinite(x) or x < a:
        raise DomainError(f"upper limit x={x} must lie in [a, inf)")
    _within("entries", quad.panels, "a one-axis rule")
    S, M = _axis_rules(a, x, alpha, quad.panels, quad.graded(alpha), _power_map(p, a))
    G = np.broadcast_to(np.asarray(g(S), dtype=np.float64), S.shape)
    return _clean(_unlog(log_normaliser(alpha)) * float(np.einsum("ik,ik->i", M, G, optimize=False)[0]))


def katugampola_2d(f, rect: Box, x: float, y: float, order: FracOrder, quad: QuadratureSpec | None = None) -> float:
    """Mixed operator applied to f, evaluated at a single point of ``rect``.

    The lower limits are the rectangle's lower-left corner; (x, y) must lie
    inside the rectangle.  Values on the edges x == a or y == c are 0.
    """
    src, quad = _checked(f, rect, quad)
    xs, ys = _clip_axes(rect, x, y)
    return float(_tensor(src, rect, xs, ys, order, quad)[0, 0])


def hadamard_2d(f, rect: Rectangle, x: float, y: float, alpha: float, beta: float, quad: QuadratureSpec | None = None) -> float:
    """Mixed Hadamard integral: logarithmic kernel, measure ds/s dt/t.

    C int_a^x int_c^y (log(x/s))^(alpha-1) (log(y/t))^(beta-1) f(s,t) dt/t ds/s
    with C = 1/(Gamma(alpha) Gamma(beta)): ``katugampola_2d`` at the p = q = -1
    member of the family.  Requires a strictly positive rectangle.
    """
    return katugampola_2d(f, rect, x, y, FracOrder(alpha, beta, -1.0, -1.0), quad)


# ---------------------------------------------------------------------------
# grid evaluation


def katugampola_2d_grid(
    f,
    spec: GridSpec,
    order: FracOrder,
    quad: QuadratureSpec | None = None,
    method: str = "tensor",
) -> GridSamples:
    """Apply the mixed operator to f on every node of a uniform grid.

    The grid's box doubles as the operator rectangle: lower integration
    limits sit at its lower-left corner, and node (i, j) receives the
    integral up to (x_i, y_j).  The first row and column are exactly 0.

    ``method``:
      * ``"tensor"``   - generic route; the same contraction as
        ``katugampola_2d``, so shared nodes match bit for bit.
      * ``"separable"``- requires ``f.xy_split()`` (else ParameterError)
        and takes ``"auto"``'s split mesh, bit for bit.
      * ``"auto"``     - for a source with a split g(x) + h(y), the shared
        mesh: one mesh per axis holding every grid coordinate, at least
        ``quad.panels`` intervals long, with g and h evaluated once per
        mesh node and the kernel integrated exactly against hat
        functions.  A source without a split whose ``knots()`` is not
        None (every smooth source, a staircase over a smooth seed, a
        grid of samples) takes the same meshes on both axes, each also
        holding the source's knots with as many parts per piece between
        them as the widest piece gets (``_mesh_knots``), and f is
        evaluated once per node of their product (the tensor panel cap
        still applies); if it declares ``edges``, each mesh opens with a
        lead-in graded toward the lower limit (``_lead_in``), which keeps
        the rule second order on f = g (x - a)^sigma_x (y - c)^sigma_y.
        Other sources take the tensor route.

    On the split mesh, axes that share lower limit, nodes, order and
    weight share one mesh, and a function that is both g and h is applied once.

    Worker count never changes the bits: rows go to workers in contiguous
    blocks with disjoint output slots.  A call whose predicted size exceeds
    the budget (``_grid_budget``) raises ``SizeError`` before it allocates.
    """
    if method not in ("tensor", "separable", "auto"):
        raise ParameterError(f"unknown method {method!r}", parameter="method")
    src = _as_source(f)
    split = src.xy_split()
    if method == "separable" and split is None:
        raise ParameterError(f"source {src.name!r} has no additive split; use method='auto' or 'tensor'", parameter="method")
    use_split = split is not None and method != "tensor"
    src, quad = _checked(src, spec.rect, quad, tensor=not use_split)
    knots = src.knots() if method == "auto" and not use_split else None
    if use_split:
        route = "mesh-split"
    else:
        route = "tensor" if knots is None else "mesh-2d"
    rect = spec.rect
    # a knot mesh holds every output and at least panels intervals: that floor is
    # refused before any axis is built, the real size once the meshes are
    floor = [max(size, quad.panels + 1) if len(k) else None for k, size in zip(knots or ((), ()), (spec.m, spec.n))]
    _grid_budget(route, spec.m, spec.n, quad.panels, src.edges, floor)
    xs, ys = spec.xs(), spec.ys()
    same_axes = (rect.a, order.alpha, order.p) == (rect.c, order.beta, order.q) and np.array_equal(xs, ys)
    if route == "mesh-2d":
        ex, ey = src.edges or (None, None)
        mx = _mesh(rect.a, xs, order.p, quad.panels, ex, knots[0])
        my = _mesh(rect.c, ys, order.q, quad.panels, ey, knots[1])
        _grid_budget(route, spec.m, spec.n, quad.panels, nodes=(mx.s.size, my.s.size))
        out = _mesh_2d(src, mx, my, order)
    elif route == "tensor":
        out = _tensor(src, rect, xs, ys, order, quad)
    else:
        if same_axes:  # one mesh serves g and h, and a function that is both is applied once
            sums, su = _mesh_apply(split[:1] if split[0] is split[1] else split, rect.a, xs, order.alpha, order.p, quad.panels)
            gu, hv, sv = sums[0], sums[-1], su
        else:
            (gu,), su = _mesh_apply(split[:1], rect.a, xs, order.alpha, order.p, quad.panels)
            (hv,), sv = _mesh_apply(split[1:], rect.c, ys, order.beta, order.q, quad.panels)
        out = _split_grid(_prefactor(order), gu, su, hv, sv)
    return GridSamples._adopt(spec, out)


def _split_grid(pref: float, gu, su, hv, sv) -> np.ndarray:
    """pref (g (x) S_y + S_x (x) h), built a block of at most ``_APPLY_BLOCK`` entries at a time in one array.

    Each block takes the operations of pref * (gu sv^T + su hv^T) in their
    order, and ``_clean`` then checks it finite and turns -0 into 0, so the
    bits are those of the whole-array expression.
    """
    out = np.empty((gu.size, sv.size))
    rows = max(1, _APPLY_BLOCK // sv.size)
    with _no_overflow(_SUM_OVERFLOW):
        for r0 in range(0, gu.size, rows):
            block = out[r0 : r0 + rows]
            np.multiply(gu[r0 : r0 + rows, None], sv, out=block)
            block += su[r0 : r0 + rows, None] * hv
            block *= pref
            _clean(block)
    return out


# ---------------------------------------------------------------------------
# independent cross-check route (classical kernel, plain-float arithmetic)


def _rl_grid(f, spec: GridSpec, alpha: float, beta: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """``_rl_nodes`` on the axes of ``spec``; its m n P^2 evaluations meet the budget before either axis is built."""
    _grid_budget("oracle", spec.m, spec.n, _checked(f, spec.rect, quad)[1].panels)
    return _rl_nodes(f, spec.rect, spec.xs(), spec.ys(), alpha, beta, quad)


def _rl_nodes(f, rect: Box, xs, ys, alpha: float, beta: float, quad: QuadratureSpec | None = None) -> np.ndarray:
    """``riemann_liouville_2d`` at every (x_i, y_j), an array of shape (len(xs), len(ys)).

    Each node evaluates f on its own P x P midpoints and sums its P^2
    terms in one ``math.fsum``, the same terms as a point call, so the
    values are the point oracle's bit for bit; only the rules, which
    depend on one coordinate each, are shared between nodes.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ParameterError("orders must be positive", parameter="alpha")
    src, quad = _checked(f, rect, quad)
    P = quad.panels
    xs, ys = _clip_axes(rect, xs, ys)
    gr = quad.graded(alpha, beta)

    def rule(lo: float, hi: float, order: float):
        edges = [hi - (hi - lo) * (((P - k) / P) ** gr) for k in range(P + 1)]
        mids = [(edges[k] + edges[k + 1]) / 2.0 for k in range(P)]
        moms = [((hi - edges[k]) ** order - (hi - edges[k + 1]) ** order) / order for k in range(P)]
        return np.asarray(mids), np.asarray(moms)

    out = np.empty((len(xs), len(ys)))
    try:  # plain floats raise on overflow
        xr = {x: rule(rect.a, x, alpha) for x in xs}
        yr = {y: rule(rect.c, y, beta) for y in ys}
        for i, x in enumerate(xs):
            sm, mx = xr[x]
            for j, y in enumerate(ys):
                tm, my = yr[y]
                prod = mx[:, None] * my[None, :]
                prod *= np.asarray(src.eval(sm[:, None], tm[None, :]), dtype=np.float64)
                out[i, j] = math.fsum(memoryview(prod.reshape(-1)))
        if max(alpha, beta) < 171.0:
            return _clean(out / (math.gamma(alpha) * math.gamma(beta)))
        # Gamma overflows float64 past 171: the constant in log space (below, exp of
        # lgamma sums would move values by up to a few ulps), until log Gamma does too
        return _clean(out * math.exp(-math.lgamma(alpha) - math.lgamma(beta)))
    except OverflowError:
        raise NumericError("Riemann-Liouville rule overflows float64: order too large for this box") from None


def riemann_liouville_2d(f, rect: Box, x: float, y: float, alpha: float, beta: float, quad: QuadratureSpec | None = None) -> float:
    """Two-dimensional Riemann-Liouville integral, implemented directly.

    Same panel geometry as the mixed operator at p = q = 0, but the
    kernel, midpoints, and moments are computed from their untransformed
    definitions in plain float arithmetic, and the accumulation runs
    through ``math.fsum``.  Serves as an independent check of the p = q = 0
    reduction; agreement is to rounding, not bit for bit.

    This is the 1x1 case of ``_rl_nodes``: rules are built once per
    distinct coordinate, each node's terms are summed by one ``math.fsum``
    read straight from the product buffer, and the quadrature engine it
    checks is never called.  A grid node and the point call there agree
    bit for bit.
    """
    return float(_rl_nodes(f, rect, x, y, alpha, beta, quad)[0, 0])


# ---------------------------------------------------------------------------
# closed form for constants, semigroup composition, boundedness


def axis_unit_factor(lo: float, x: float, order: float, weight: float = 0.0) -> float:
    """Exact one-axis integral of 1: (u(x) - u(lo))^order / Gamma(order+1), u of ``_power_map``."""
    if order <= 0.0:
        raise ParameterError("order must be positive", parameter="order")
    if weight < -1.0:
        raise ParameterError("weight must be at least -1", parameter="weight")
    if lo <= 0.0 or x < lo:
        raise DomainError(f"need 0 < lo <= x, got lo={lo}, x={x}")
    return float(_unit_profile(lo, x, order, weight))


def _unit_profile(lo: float, x, order: float, weight: float):
    # elementwise in x: (u(x)-u(lo))^order / Gamma(order+1)
    fwd, _ = _power_map(weight, lo)
    scale = _unlog(log_normaliser(order), -math.log(order))
    with _no_overflow(_ONE_OVERFLOW):
        return (fwd(np.asarray(x, dtype=np.float64)) - fwd(lo)) ** order * scale


def integral_of_one(rect: Box, order: FracOrder, x: float, y: float) -> float:
    """Closed form of the mixed operator applied to f == 1, at (x, y)."""
    fx = axis_unit_factor(rect.a, x, order.alpha, order.p)
    with _no_overflow(_ONE_OVERFLOW):  # two finite factors may overflow together
        return float(np.multiply(fx, axis_unit_factor(rect.c, y, order.beta, order.q)))


def compose_semigroup(
    f,
    spec: GridSpec,
    first: FracOrder,
    second: FracOrder,
    quad: QuadratureSpec | None = None,
) -> tuple[GridSamples, GridSamples]:
    """Both sides of the composition law on a grid.

    Returns (lhs, rhs): lhs applies ``second`` to f, materializes the
    result on an inner grid, and applies ``first`` to its interpolant;
    rhs applies the single operator of summed orders (alpha1+alpha2,
    beta1+beta2) directly.  The orders must share their power weights.

    The inner result carries algebraic edges along x = a and y = c (it
    vanishes like the integral of 1), which bilinear interpolation
    resolves poorly.  The interpolation stage therefore stores the inner
    result normalized by the closed-form integral of 1 for ``second`` - a
    field that extends smoothly to the edges - and multiplies the exact
    edge profile (u(x) - u(a))^alpha2 (v(y) - v(c))^beta2 back
    at evaluation time.  Constants round-trip exactly.

    The outer stage takes ``method="auto"``: the interpolant times the
    profile is a smooth source with edges (alpha2, beta2), so it runs on
    the shared mesh of both axes with a lead-in graded toward (a, c)
    (``_lead_in``), evaluating the interpolant once per mesh node.  The
    lhs-rhs gap is dominated by the outer quadrature error and shrinks
    about 4x per panel doubling; an edge exponent outside (0, 1) needs no
    grading and gets the plain mesh.

    The inner grid has 2*panels+1 nodes per side on the same box, and the
    inner integral runs at panels/2 (floor 32); both scale with
    ``quad.panels`` so every error term refines together.
    """
    if first.p != second.p or first.q != second.q:
        raise ParameterError("composed orders must share the power weights p and q", parameter="p")
    quad = quad or QuadratureSpec()
    rect = spec.rect  # the first operator call below checks it
    total = FracOrder(first.alpha + second.alpha, first.beta + second.beta, first.p, first.q)
    rhs = katugampola_2d_grid(f, spec, total, quad, method="auto")
    inner_spec = GridSpec(rect, 2 * quad.panels + 1, 2 * quad.panels + 1)
    inner_quad = QuadratureSpec(panels=max(32, quad.panels // 2))
    inner = katugampola_2d_grid(f, inner_spec, second, inner_quad, method="auto")

    def edge_profile(x, y):
        return _unit_profile(rect.a, x, second.alpha, second.p) * _unit_profile(rect.c, y, second.beta, second.q)

    prof = edge_profile(inner_spec.xs()[:, None], inner_spec.ys()[None, :])
    ratio = np.array(inner.matrix)
    ratio[1:, 1:] = ratio[1:, 1:] / prof[1:, 1:]
    ratio[0, 1:] = ratio[1, 1:]
    ratio[1:, 0] = ratio[1:, 1]
    ratio[0, 0] = ratio[1, 1]
    smooth = SampledSource(GridSamples(inner_spec, ratio), name="inner-ratio")
    restored = CallableSource(
        lambda x, y: smooth.eval(x, y) * edge_profile(x, y),
        name="inner",
        domain=rect,
        smooth=True,
        edges=(second.alpha, second.beta),
    )
    lhs = katugampola_2d_grid(restored, spec, first, quad, method="auto")
    return lhs, rhs


def sup_gap(lhs: GridSamples, rhs: GridSamples) -> float:
    """Relative sup-norm gap between two grids: sup|lhs - rhs| / max(1, sup|lhs|)."""
    if lhs.spec != rhs.spec:
        raise ParameterError("grids must share a spec")
    return float(np.max(np.abs(lhs.values - rhs.values))) / max(1.0, float(np.max(np.abs(lhs.values))))


@dataclass(frozen=True)
class BoundCertificate:
    """Checked instance of the sup-norm bound for the mixed operator.

    ``bound`` is sup|f| times the closed-form integral of 1 at the far
    corner; ``sup_abs_observed`` is the largest |If| seen on the
    verification grid.  Construction fails unless observed <= bound + slack.
    """

    bound: float
    sup_abs_observed: float
    attained_at: tuple[float, float]
    tolerance: float

    def __post_init__(self):
        if not self.sup_abs_observed <= self.bound + self.tolerance:
            raise VerificationError(
                f"boundedness violated: observed {self.sup_abs_observed:.17g} "
                f"exceeds bound {self.bound:.17g} (tolerance {self.tolerance:g})"
            )

    @property
    def margin(self) -> float:
        return self.bound - self.sup_abs_observed


def boundedness_certificate(
    f,
    spec: GridSpec | GridSamples,
    order: FracOrder,
    quad: QuadratureSpec | None = None,
    M: float | None = None,
) -> BoundCertificate:
    """Certify |If| <= M * (integral of 1 at the far corner) on a grid.

    ``M`` must dominate sup|f| on the box; it defaults to the source's own
    declared bound, and either way is sanity-checked against the sampled
    sup of |f|.  The certificate's tolerance is the quadrature error
    budget of ``quad_error_probe``.  The operator is evaluated on the grid and the
    observed sup compared against the closed-form bound.  ``spec`` may
    instead be the ``GridSamples`` of If that the caller already computed
    with the same ``order`` and ``quad``; those values are certified as
    they are, not computed again.
    """
    vals = spec if isinstance(spec, GridSamples) else None
    spec = vals.spec if vals is not None else spec
    src, quad = _checked(f, spec.rect, quad, tensor=False)
    rect = spec.rect
    if M is None and src.sup_bound is None:
        raise ParameterError("source declares no sup bound; pass M", parameter="M")
    M = float(src.sup_bound(rect) if M is None else M)
    observed_f = float(np.max(np.abs(sample(src, spec).values)))
    if M < observed_f * (1.0 - 1e-12):
        raise ParameterError(
            f"claimed sup bound M={M:g} is below a sampled value {observed_f:.17g} of |f|",
            parameter="M",
        )
    tolerance = quad_error_probe(src, rect, order, quad)
    if vals is None:
        vals = katugampola_2d_grid(src, spec, order, quad, method="auto")
    k = int(np.argmax(np.abs(vals.values)))
    bound = M * integral_of_one(rect, order, rect.b, rect.d)
    return BoundCertificate(
        bound=bound,
        sup_abs_observed=float(abs(vals.values[k])),
        attained_at=spec.node(*divmod(k, spec.n)),
        tolerance=tolerance,
    )


_PROBE_PANELS = 8  # the fewest panels the error probe halves


def quad_error_probe(f, rect: Box, order: FracOrder, quad: QuadratureSpec | None = None) -> float:
    """Crude a-posteriori quadrature error bound via panel halving.

    Evaluates the operator on a 9 x 9 probe grid at the requested panel
    count and at half that count; returns twice the largest disagreement
    plus a rounding floor.  Conservative for the second-order rule.  Where
    the halved count gives the same bits (a knot mesh whose knots already
    outnumber the panels), it compares against doubled counts instead,
    the first that changes them: twice that disagreement bounds the
    error wherever the finer mesh at least halves it (a second-order rule
    quarters it when every part is split).
    """
    quad = quad or QuadratureSpec()
    if quad.panels < _PROBE_PANELS:
        raise ParameterError(f"error probe needs at least {_PROBE_PANELS} panels", parameter="panels")
    spec = GridSpec(rect, 9, 9)

    def grid(panels: int) -> np.ndarray:
        return katugampola_2d_grid(f, spec, order, QuadratureSpec(panels=panels), method="auto").values

    fine = grid(quad.panels)
    other, panels = grid(quad.panels // 2), quad.panels
    # a knot mesh with one part per knot interval (a grid of samples finer than
    # the panels) is the same mesh at half the panels, and may be at twice
    # them: double until the mesh, and so the bits, change
    while np.array_equal(other, fine) and np.any(fine) and 2 * panels <= _BUDGET["panels"]:
        panels *= 2
        other = grid(panels)
    scale = max(1.0, float(np.max(np.abs(fine))))
    return 2.0 * float(np.max(np.abs(fine - other))) + 1e-12 * scale
