"""Bivariate variation on grids, in the two-coordinate monotone sense.

The variation of samples on a grid is the largest sum of absolute jumps
along a monotone chain: a sequence of nodes nondecreasing in both
indices.  Refining a chain never lowers its sum (triangle inequality),
so the supremum is attained by a saturated chain stepping to an adjacent
node each time, and dynamic programming over the three predecessors
(left, down, diagonal) computes the exact grid value.

Chains may start and end anywhere; since extending a chain backward to
the lower-left corner or forward to the upper-right corner only adds
nonnegative terms, the unrestricted maximum coincides with the
corner-to-corner value.  The ``pinned`` flag selects the corner-to-corner
reported path for callers that want the fixed-endpoint form.

Two sweeps compute the same table, bit for bit.  The wide sweep runs
over the anti-diagonals i + j = d in order.  A node's three predecessors
lie on the two diagonals before it, so the sweep keeps only those two
diagonals' samples and best sums, in contiguous buffers indexed by place
along the diagonal.  Alone, a diagonal is a slice of step n - 1 of the
row-major samples, one memory page per node on a large grid, so one copy
gathers 64 diagonals at a time, 64 neighbouring samples of each row.  The
narrow sweep walks the long side of the grid a row or a column at a time,
node by node in Python floats, and keeps two lines.  No m x n table of
sums is allocated; each node's traceback code, 0 to 3, takes two bits of
a skewed table whose byte (r, k) holds place k of diagonals 4r to 4r + 3.

The width rule picks the sweep: a grid with at most ``_NARROW`` = 12 nodes
on a diagonal, min(m, n) <= 12, takes the narrow sweep.  The wide sweep
pays 10-20 us of numpy call overhead on every diagonal however short, the
narrow sweep about 0.5 us of interpreted work per node, so the narrow one
wins while diagonals are short.  Milliseconds per sweep, narrow / wide, on
L x w grids, the faster of L x w and w x L (2-vCPU Xeon VM, numpy 2.4,
Python 3.11):

    L         w = 8        w = 12       w = 16       w = 20
    65        0.24 / 0.82  0.36 / 0.85  0.47 / 0.90  0.58 / 0.94
    257       0.98 / 2.92  1.50 / 2.95  1.97 / 3.00  2.33 / 3.08
    1025      4.07 / 11.1  5.77 / 11.3  7.47 / 11.5  10.4 / 12.1
    4097      18.6 / 52.2  26.8 / 50.2  37.5 / 50.5  44.0 / 50.2

The two are even near w = 20; the rule stops at 12, where the narrow
sweep is about twice as fast at every length.

A brute-force enumerator over all monotone chains (saturated or not, any
start and end) serves as the oracle on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Box,
    FunctionSource,
    GridSamples,
    GridSpec,
    NumericError,
    ParameterError,
    _within,
    sample,
)

__all__ = [
    "VariationResult",
    "arzela_variation",
    "arzela_variation_bruteforce",
    "variation_trend",
]

# anti-diagonals ``_wide_tables`` gathers per copy
_SWEEP_BLOCK = 64
# the most nodes on a diagonal, min(m, n), that take ``_narrow_tables``: see the crossover table above
_NARROW = 12


@dataclass(frozen=True)
class VariationResult:
    """Grid variation value plus one monotone chain attaining it.

    ``argpath`` is a saturated chain: consecutive nodes differ by one step
    in i, in j, or in both, never decreasing.  The value is the sum of
    absolute sample differences along it.
    """

    value: float
    argpath: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ParameterError("variation value must be finite and nonnegative", parameter="value")
        path = tuple((int(i), int(j)) for i, j in self.argpath)
        if not path:
            raise ParameterError("argpath must contain at least one node", parameter="argpath")
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
                raise ParameterError("argpath must be a saturated monotone chain", parameter="argpath")
        object.__setattr__(self, "argpath", path)


def _as_matrix(g) -> np.ndarray:
    if isinstance(g, GridSamples):
        return g.matrix
    mat = np.asarray(g, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ParameterError("expected GridSamples or a nonempty 2-D array")
    if not np.all(np.isfinite(mat)):
        raise NumericError("grid values must be finite")
    return mat


def _dp_tables(mat: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """Traceback choices plus the corner's and the largest best chain sum.

    Node (i, j) gets the best sum of a chain ending there, from its three
    predecessors: choice code 1 from (i-1, j), 2 from (i, j-1), 3 from
    (i-1, j-1), 0 where the chain starts (only (0, 0)).  Ties go to the
    lowest code, as ``argmax`` over the three candidates in that order.

    Node (i, j) has place k = min(i, n - 1 - j) along anti-diagonal
    d = i + j, and its code takes bits 2 (d % 4) of byte (d // 4, k) in the
    packed (ceil((m + n - 1) / 4), min(m, n)) uint8 table, code 0 past a
    diagonal's end; ``_code`` reads one back.  A grid with at most
    ``_NARROW`` nodes on a diagonal takes ``_narrow_tables``, any other
    ``_wide_tables``; the two give the same bits.  Python floats overflow
    to inf without a word, so a narrow grid whose sums overflowed is swept
    again by numpy, which warns or raises as ``np.errstate`` asks.

    Returns ``(packed, corner, peak, peak_index)``: the best sum at
    (m-1, n-1), the largest best sum, and the row-major index of the first
    node attaining it.
    """
    if min(mat.shape) <= _NARROW:
        tables = _narrow_tables(mat)
        if math.isfinite(tables[2]):
            return tables
    return _wide_tables(mat)


def _narrow_tables(mat: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """``_dp_tables`` node by node in Python floats, for a grid of few nodes per diagonal.

    The sweep walks the long side one line at a time: the rows when
    n <= m, else the columns, so a line holds w = min(m, n) nodes and the
    sweep keeps the samples and best sums of two lines, beside the packed
    table.  Each node does the wide sweep's operations in its order: a
    candidate is a predecessor's sum plus |sample - that predecessor's
    sample|, up (code 1) is taken unless left (2) is larger, and the
    diagonal (3) only where it is larger still.  The row and column edges
    step along them as the wide sweep's running sums do.  A node ahead of
    the peak in row-major order replaces it on a tie, so the column walk
    finds the same first node.  So every sum, code and peak keeps its bits.
    """
    m, n = mat.shape
    w = min(m, n)
    packed = bytearray(-(-(m + n - 1) // 4) * w)
    by_rows = n == w
    along, across = (2, 1) if by_rows else (1, 2)  # codes of a step along the line and from the line before
    peak, peak_index = 0.0, 0
    pv = ps = None
    for t, line in enumerate(mat if by_rows else mat.T):
        cv, cs = line.tolist(), [0.0] * w
        for u, x in enumerate(cv):
            if t and u:
                a = cs[u - 1] + abs(x - cv[u - 1])
                b = ps[u] + abs(x - pv[u])
                up, left = (b, a) if by_rows else (a, b)
                s, code = (left, 2) if left > up else (up, 1)
                c = ps[u - 1] + abs(x - pv[u - 1])
                if c > s:
                    s, code = c, 3
            elif u:
                s, code = cs[u - 1] + abs(x - cv[u - 1]), along
            elif t:
                s, code = ps[0] + abs(x - pv[0]), across
            else:
                s, code = 0.0, 0  # (0, 0) starts every chain
            cs[u] = s
            i, j = (t, u) if by_rows else (u, t)
            d, k = t + u, n - 1 - j
            packed[(d >> 2) * w + (i if i < k else k)] |= code << 2 * (d & 3)  # place min(i, n - 1 - j)
            if s >= peak and (s > peak or i * n + j < peak_index):
                peak, peak_index = s, i * n + j
        pv, ps = cv, cs
    return np.frombuffer(packed, dtype=np.uint8).reshape(-1, w), ps[-1], peak, peak_index


def _wide_tables(mat: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """``_dp_tables`` by numpy over whole anti-diagonals, for a grid of many nodes per diagonal.

    The sweep runs over anti-diagonals d = i + j.  The two previous
    diagonals' samples and best sums are all the recurrence needs, so
    three buffers of each rotate, no m x n table of sums is held, and node
    (i, d - i) sits at place i - lo of the buffers, lo = max(0, d - n + 1)
    being the diagonal's first row, so each holds min(m, n) floats, not m.
    The node sits at d + i (n - 1) in the flat row-major array, and
    ``skew[d, i]`` is a read-only view of it, row stride n - 1 (0 when
    n = 1).  Its every address lies in the array, off the grid too: the
    largest is (m + n - 2) + (m - 1)(n - 1) = mn - 1.
    A diagonal read on its own takes one page per node, but along d the
    view is contiguous, so one ``copyto`` gathers ``_SWEEP_BLOCK``
    diagonals into a column-major block, from which each diagonal's buffer
    is filled.  Their rows span at most min(m, n + 63), and the block is
    sized by that span, never by m.  Only where samples are read changes,
    so every sum, comparison and choice keeps its bits.  Node (i, j)'s code
    goes to row d % 64, place k, of a reused uint8 staging block, 64 rows
    of min(m, n) places padded to whole uint64 words.  Every 64 diagonals,
    and at the end, the block folds, a word at a time, into 16 rows of the
    packed table: byte (r, k) is c0 | c1 << 2 | c2 << 4 | c3 << 6 for
    diagonals 4r to 4r + 3.
    """
    m, n = mat.shape
    flat = np.ascontiguousarray(mat).reshape(-1)
    skew = np.ndarray((m + n - 1, m), buffer=flat, strides=(flat.itemsize, (n - 1) * flat.itemsize))
    skew.flags.writeable = False
    block = np.empty((_SWEEP_BLOCK, min(m, n + _SWEEP_BLOCK - 1)), order="F")
    row_run, col_run = np.zeros(n), np.zeros(m)
    for run, edge in ((row_run, mat[0]), (col_run, mat[:, 0])):
        np.subtract(edge[1:], edge[:-1], out=run[1:])
        np.abs(run[1:], out=run[1:]).cumsum(out=run[1:])
    stage = np.zeros((_SWEEP_BLOCK, -(-min(m, n) // 8) * 8), dtype=np.uint8)
    packed = np.empty((-(-(m + n - 1) // 4), min(m, n)), dtype=np.uint8)
    vals = [np.empty(min(m, n)) for _ in range(3)]
    sums = [np.empty(min(m, n)) for _ in range(3)]
    peak, peak_index = 0.0, 0
    for d in range(m + n - 1):
        lo, hi = max(0, d - n + 1), min(m - 1, d)
        if not d % _SWEEP_BLOCK:
            r0, r1 = lo, min(m, d + _SWEEP_BLOCK)
            diags = skew[d : d + _SWEEP_BLOCK, r0:r1]
            np.copyto(block[: diags.shape[0], : r1 - r0], diags)
        v, s, row = vals[d % 3], sums[d % 3], stage[d % _SWEEP_BLOCK]
        v[: hi - lo + 1] = block[d % _SWEEP_BLOCK, lo - r0 : hi - r0 + 1]
        if lo == 0:
            s[0], row[0] = row_run[d], 2
        if hi == d:
            s[d - lo], row[d - lo] = col_run[d], min(d, 1)  # (0, 0) starts every chain: code 0
        a, b = max(1, lo), min(m - 1, d - 1)
        if a <= b:
            pv, ps = vals[(d - 1) % 3], sums[(d - 1) % 3]
            qv, qs = vals[(d - 2) % 3], sums[(d - 2) % 3]
            plo, qlo = max(0, d - n), max(0, d - n - 1)  # the first rows of those two diagonals
            cur = v[a - lo : b - lo + 1]
            up = ps[a - 1 - plo : b - plo] + np.abs(cur - pv[a - 1 - plo : b - plo])
            left = ps[a - plo : b - plo + 1] + np.abs(cur - pv[a - plo : b - plo + 1])
            diag = qs[a - 1 - qlo : b - qlo] + np.abs(cur - qv[a - 1 - qlo : b - qlo])
            code = row[a - lo : b - lo + 1]
            np.greater(left, up, out=code.view(np.bool_))
            code += 1
            np.maximum(up, left, out=up)
            np.copyto(code, 3, where=diag > up)
            np.maximum(up, diag, out=s[a - lo : b - lo + 1])
        k = int(s[: hi - lo + 1].argmax())
        top, at = float(s[k]), d + (lo + k) * (n - 1)
        if top > peak or (top == peak and at < peak_index):
            peak, peak_index = top, at
        if d % _SWEEP_BLOCK == _SWEEP_BLOCK - 1 or d == m + n - 2:  # fold the block, four codes to a byte
            q = stage.view(np.uint64).reshape(_SWEEP_BLOCK // 4, 4, -1)  # 8 places a word; no code crosses a byte
            fold = np.bitwise_or.reduce(q << np.array([[0], [2], [4], [6]], dtype=np.uint64), axis=1).view(np.uint8)
            r = d // _SWEEP_BLOCK * _SWEEP_BLOCK // 4
            packed[r : r + _SWEEP_BLOCK // 4] = fold[: packed.shape[0] - r, : min(m, n)]
            stage.fill(0)
    return packed, float(sums[(m + n - 2) % 3][0]), peak, peak_index


def _code(packed: np.ndarray, d: int, k: int) -> int:
    """The choice code of place ``k`` on diagonal ``d`` in ``_dp_tables``' packed table."""
    return (packed.item(d >> 2, k) >> 2 * (d & 3)) & 3


def _traceback(packed: np.ndarray, n: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    path = [(i, j)]
    while c := _code(packed, i + j, min(i, n - 1 - j)):
        if c == 1:
            i -= 1
        elif c == 2:
            j -= 1
        else:
            i -= 1
            j -= 1
        path.append((i, j))
    path.reverse()
    return tuple(path)


def arzela_variation(g, pinned: bool = False) -> VariationResult:
    """Exact grid variation over monotone chains, with an attaining path.

    ``g`` is a GridSamples or any 2-D array (degenerate 1 x k and 1 x 1
    shapes reduce to univariate variation and 0).  With ``pinned`` the
    reported path runs corner to corner; the value is the same either way
    because extending a chain to the corners never lowers its sum.  The
    free path ends at the first node, in row-major order, of largest sum.
    """
    mat = _as_matrix(g)
    m, n = mat.shape
    packed, corner, peak, peak_index = _dp_tables(mat)
    if pinned:
        (i, j), value = (m - 1, n - 1), corner
    else:
        (i, j), value = divmod(peak_index, n), peak
    return VariationResult(value=value, argpath=_traceback(packed, n, i, j))


def arzela_variation_bruteforce(g) -> float:
    """Maximum of sum |df| over ALL monotone chains, by plain enumeration.

    Chains may jump several rows or columns per step and start or end
    anywhere; this is the definition-level supremum on the grid, used as
    the oracle for the saturated-chain dynamic program.  Grids over the
    ``nodes`` budget are rejected.
    """
    mat = _as_matrix(g)
    m, n = mat.shape
    _within("nodes", m * n, f"the brute-force variation of a {m}x{n} grid")
    vals = mat.reshape(-1).tolist()
    succs: list[list[int]] = []
    for i in range(m):
        for j in range(n):
            acc = []
            for i2 in range(i, m):
                for j2 in range(j if i2 > i else j + 1, n):
                    acc.append(i2 * n + j2)
            succs.append(acc)
    best = 0.0

    def walk(k: int, run: float) -> None:
        nonlocal best
        if run > best:
            best = run
        vk = vals[k]
        for t in succs[k]:
            walk(t, run + abs(vals[t] - vk))

    for k in range(m * n):
        walk(k, 0.0)
    return best


def variation_trend(src: FunctionSource, rect: Box, levels) -> list[tuple[int, float]]:
    """Grid variation of ``src`` on square grids of increasing size.

    ``levels`` must be strictly increasing integers, each at least 2.  The
    returned (level, value) series diverges for functions of unbounded
    variation and saturates for functions of bounded variation.
    """
    lv = [int(x) for x in levels]
    if not lv or any(x < 2 for x in lv) or any(b <= a for a, b in zip(lv, lv[1:])):
        raise ParameterError("levels must be strictly increasing integers >= 2", parameter="levels")
    out = []
    for level in lv:
        gs = sample(src, GridSpec(rect, level, level))
        out.append((level, arzela_variation(gs).value))
    return out
