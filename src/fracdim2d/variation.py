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

The program sweeps the anti-diagonals i + j = d in order.  A node's three
predecessors lie on the two diagonals before it, so the sweep keeps only
those two diagonals' samples and best sums, in contiguous buffers indexed
by row, and each diagonal of the grid is read once as a strided slice.
Traceback choices are stored as bytes in a skewed table whose row d
holds diagonal d; no m x n table of sums is allocated.

A brute-force enumerator over all monotone chains (saturated or not, any
start and end) serves as the oracle on small grids.
"""

from __future__ import annotations

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

    The sweep runs over anti-diagonals d = i + j.  Each diagonal of ``mat``
    is read once, as a strided slice of the flat array, into a row-indexed
    buffer; the two previous diagonals' samples and best sums are all the
    recurrence needs, so three buffers of length m rotate and no m x n
    table of sums is held.  Choices go to a skewed (m + n - 1) x min(m, n)
    uint8 table: node (i, j) sits at row i + j, column min(i, n - 1 - j),
    its place along the diagonal, so a thin grid keeps a thin table.

    Returns ``(choice, corner, peak, peak_index)``: the best sum at
    (m-1, n-1), the largest best sum, and the row-major index of the first
    node attaining it.
    """
    m, n = mat.shape
    flat = np.ascontiguousarray(mat).reshape(-1)
    step = max(n - 1, 1)  # a 1-wide grid has one node per diagonal
    row_run = np.zeros(n)
    np.cumsum(np.abs(np.diff(mat[0, :])), out=row_run[1:])
    col_run = np.zeros(m)
    np.cumsum(np.abs(np.diff(mat[:, 0])), out=col_run[1:])
    choice = np.zeros((m + n - 1, min(m, n)), dtype=np.uint8)
    choice[1:n, 0] = 2
    edge = np.arange(1, m)
    choice[edge, np.minimum(edge, n - 1)] = 1
    vals = [np.empty(m) for _ in range(3)]
    sums = [np.empty(m) for _ in range(3)]
    peak, peak_index = 0.0, 0
    for d in range(m + n - 1):
        lo, hi = max(0, d - n + 1), min(m - 1, d)
        v, s = vals[d % 3], sums[d % 3]
        v[lo : hi + 1] = flat[d + lo * (n - 1) : d + hi * (n - 1) + 1 : step]
        if lo == 0:
            s[0] = row_run[d]
        if hi == d:
            s[d] = col_run[d]
        a, b = max(1, lo), min(m - 1, d - 1)
        if a <= b:
            pv, ps = vals[(d - 1) % 3], sums[(d - 1) % 3]
            qv, qs = vals[(d - 2) % 3], sums[(d - 2) % 3]
            cur = v[a : b + 1]
            up = ps[a - 1 : b] + np.abs(cur - pv[a - 1 : b])
            left = ps[a : b + 1] + np.abs(cur - pv[a : b + 1])
            diag = qs[a - 1 : b] + np.abs(cur - qv[a - 1 : b])
            code = choice[d, a - lo : b - lo + 1]
            np.greater(left, up, out=code.view(np.bool_))
            code += 1
            np.maximum(up, left, out=up)
            np.copyto(code, 3, where=diag > up)
            np.maximum(up, diag, out=s[a : b + 1])
        k = lo + int(np.argmax(s[lo : hi + 1]))
        top, at = float(s[k]), d + k * (n - 1)
        if top > peak or (top == peak and at < peak_index):
            peak, peak_index = top, at
    return choice, float(sums[(m + n - 2) % 3][m - 1]), peak, peak_index


def _traceback(choice: np.ndarray, n: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    path = [(i, j)]
    while c := int(choice[i + j, min(i, n - 1 - j)]):
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
    choice, corner, peak, peak_index = _dp_tables(mat)
    if pinned:
        (i, j), value = (m - 1, n - 1), corner
    else:
        (i, j), value = divmod(peak_index, n), peak
    return VariationResult(value=value, argpath=_traceback(choice, n, i, j))


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


def variation_trend(src: FunctionSource, rect: Box, levels, threads: int | None = None) -> list[tuple[int, float]]:
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
        gs = sample(src, GridSpec(rect, level, level), threads=threads)
        out.append((level, arzela_variation(gs).value))
    return out
