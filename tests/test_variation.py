import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdim2d import (
    Box,
    CallableSource,
    GridSpec,
    NumericError,
    ParameterError,
    SizeError,
    VariationResult,
    arzela_variation,
    arzela_variation_bruteforce,
    default_box,
    make_source,
    sample,
    variation_trend,
)
from fracdim2d import variation
from fracdim2d.variation import _NARROW

K = _NARROW  # the most nodes per diagonal that take the narrow sweep


def _both_sweeps(monkeypatch):
    """Yield twice: with the width rule's sweep, then with the wide sweep whatever the width."""
    for narrow in (_NARROW, 0):
        monkeypatch.setattr(variation, "_NARROW", narrow)
        yield


# ---------------------------------------------------------------------------
# hand-checked values


def test_constant_grid_has_zero_variation():
    res = arzela_variation(np.full((4, 5), 3.25))
    assert res.value == 0.0
    assert len(res.argpath) == 1


def test_checkerboard_2x2():
    # best chain visits all three jumps of size 1 twice? no: monotone chains
    # can collect at most 2 unit jumps here; brute force confirms
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = arzela_variation(mat)
    assert res.value == 2.0
    assert res.value == arzela_variation_bruteforce(mat)


def test_single_step_matrix():
    mat = np.array([[0.0, 0.0], [0.0, 5.0]])
    assert arzela_variation(mat).value == 5.0


def test_monotone_grid_variation_is_corner_difference():
    # for coordinatewise nondecreasing data every chain telescopes
    spec = GridSpec(Box(0, 1, 0, 1), 6, 6)
    gs = sample(CallableSource(lambda x, y: x + 2 * y, name="mono"), spec)
    res = arzela_variation(gs)
    assert res.value == pytest.approx(3.0, abs=1e-14)


def test_univariate_rows_reduce_to_1d_variation():
    mat = np.array([[0.0, 2.0, -1.0, 3.0]])
    assert arzela_variation(mat).value == pytest.approx(2 + 3 + 4, abs=0)


def test_path_is_reported_and_consistent():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((6, 7))
    res = arzela_variation(mat)
    # re-summing the reported path in order reproduces the value bit for bit
    total = 0.0
    for (i0, j0), (i1, j1) in zip(res.argpath, res.argpath[1:]):
        total += abs(mat[i1, j1] - mat[i0, j0])
    assert total == res.value


def test_pinned_path_hits_both_corners_same_value():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((5, 5))
    free = arzela_variation(mat)
    pinned = arzela_variation(mat, pinned=True)
    assert pinned.value == free.value
    assert pinned.argpath[0] == (0, 0)
    assert pinned.argpath[-1] == (4, 4)


# ---------------------------------------------------------------------------
# oracle equivalence


def _dyadic_matrix(rng, m, n):
    # sixteenths keep every partial sum exact in float64, so the saturated
    # dynamic program and the unrestricted brute force agree to the bit
    return rng.integers(-128, 129, size=(m, n)).astype(np.float64) / 16.0


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (2, 6), (3, 4), (4, 4), (1, K), (1, K + 1), (K + 1, 1)])
def test_dp_equals_bruteforce_on_dyadic_grids(shape, monkeypatch):
    rng = np.random.default_rng(hash(shape) % 2**32)
    for _ in range(60):
        mat = _dyadic_matrix(rng, *shape)
        want = arzela_variation_bruteforce(mat)
        for _ in _both_sweeps(monkeypatch):
            assert arzela_variation(mat).value == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_dp_vs_bruteforce_continuous_values_within_rounding(m, n, seed):
    # with arbitrary float data a non-saturated chain can beat the saturated
    # optimum by a last-ulp rounding flip; the two routes still agree to a
    # few ulp of the value
    mat = np.random.default_rng(seed).standard_normal((m, n))
    dp = arzela_variation(mat).value
    bf = arzela_variation_bruteforce(mat)
    assert abs(dp - bf) <= 8 * np.finfo(np.float64).eps * max(1.0, abs(bf))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_pinned_and_free_agree_everywhere(m, n, seed):
    mat = np.random.default_rng(seed).standard_normal((m, n))
    assert arzela_variation(mat).value == arzela_variation(mat, pinned=True).value


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_variation_is_a_seminorm_under_scaling(m, n, seed):
    mat = np.random.default_rng(seed).standard_normal((m, n)) / 8.0
    v1 = arzela_variation(mat).value
    v2 = arzela_variation(2.0 * mat).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-14)


def test_bruteforce_size_cap():
    with pytest.raises(SizeError):
        arzela_variation_bruteforce(np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# the diagonal sweep against the plain recurrence


_STEPS = ((1, 0), (0, 1), (1, 1))  # choice codes 1, 2 and 3


def _scalar_tables(mat):
    """Best sums and steps, node by node in plain Python, with the documented tie order.

    Candidates come in the order (i-1, j), (i, j-1), (i-1, j-1) and the
    first largest wins; (0, 0) has no step.
    """
    m, n = len(mat), len(mat[0])
    best = [[0.0] * n for _ in range(m)]
    step = [[None] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for di, dj in _STEPS:
                if i >= di and j >= dj:
                    cand = best[i - di][j - dj] + abs(mat[i][j] - mat[i - di][j - dj])
                    if step[i][j] is None or cand > best[i][j]:
                        best[i][j], step[i][j] = cand, (di, dj)
    return best, step


def _scalar_dp(mat, pinned):
    """The recurrence's value and path; the free endpoint is the first node, in row-major order, of largest best sum."""
    m, n = len(mat), len(mat[0])
    best, step = _scalar_tables(mat)
    if pinned:
        i, j = m - 1, n - 1
    else:
        i, j = 0, 0
        for a in range(m):
            for b in range(n):
                if best[a][b] > best[i][j]:
                    i, j = a, b
    value = best[i][j]
    path = [(i, j)]
    while step[i][j] is not None:
        di, dj = step[i][j]
        i, j = i - di, j - dj
        path.append((i, j))
    return value, tuple(reversed(path))


def test_free_path_ends_at_the_first_largest_node_in_row_major_order():
    # the largest best sum, 1, is reached first at (0, 2) in row-major order and at (1, 0) in
    # column-major order, the order in which the narrow sweep walks a grid with fewer rows than columns
    mat = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    res = arzela_variation(mat)
    assert (res.value, res.argpath) == (1.0, ((0, 0), (0, 1), (0, 2))) == _scalar_dp(mat.tolist(), False)


# the next eight cross the 64-diagonal blocks the wide sweep gathers, on thin and square grids; the next
# six end with m + n - 1 diagonals short of a multiple of 4 or of 64, so the last packed byte or block is
# partial; the last four sit on both sides of the width rule, walked by rows and by columns
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 7), (7, 1), (2, 9), (3, 7), (7, 3), (40, 25)]
    + [(64, 1), (65, 1), (1, 65), (32, 33), (33, 33), (40, 90), (300, 2), (2, 300)]
    + [(1, 4), (4, 2), (62, 3), (63, 2), (64, 2), (65, 3)]
    + [(K, 30), (K + 1, 30), (30, K), (30, K + 1)],
)
@pytest.mark.parametrize("pinned", [False, True])
def test_diagonal_sweep_matches_scalar_recurrence(shape, pinned, monkeypatch):
    # small integers make ties between candidates and between endpoints common
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(20):
        mat = rng.integers(-2, 3, size=shape).astype(np.float64)
        want = _scalar_dp(mat.tolist(), pinned)
        for _ in _both_sweeps(monkeypatch):
            res = arzela_variation(mat, pinned=pinned)
            assert (res.value, res.argpath) == want


@pytest.mark.parametrize("shape", [(300, 2), (2, 300), (130, 70), (70, 130)])
def test_every_choice_matches_scalar_recurrence(shape):
    # float samples, so each node's winner depends on every sample it reads: a sample read from the
    # wrong place, in a narrow grid's line or a wide grid's 64-diagonal block, shows in some node's code
    from fracdim2d.variation import _code, _dp_tables

    m, n = shape
    rng = np.random.default_rng(m * 1000 + n)
    for _ in range(5):
        mat = rng.standard_normal(shape)
        packed = _dp_tables(mat)[0]
        _, step = _scalar_tables(mat.tolist())
        for i in range(m):
            for j in range(n):
                want = 0 if step[i][j] is None else 1 + _STEPS.index(step[i][j])
                assert _code(packed, i + j, min(i, n - 1 - j)) == want, (i, j)


@pytest.mark.parametrize("pinned", [False, True])
def test_diagonal_sweep_reads_any_memory_layout(pinned):
    # a Fortran-ordered matrix and a strided view of a larger one give the recurrence's result too
    rng = np.random.default_rng(71)
    for _ in range(5):
        wide = rng.integers(-2, 3, size=(140, 210)).astype(np.float64)
        for mat in (np.asfortranarray(wide[:70, :97]), wide[::2, ::3]):
            assert not mat.flags.c_contiguous
            res = arzela_variation(mat, pinned=pinned)
            assert (res.value, res.argpath) == _scalar_dp(mat.tolist(), pinned)


def test_diagonal_sweep_keeps_its_bits():
    # pinned from a sweep that read each diagonal as its own strided slice and stored a byte per code:
    # gathering diagonals in blocks and packing four codes to a byte change where samples are read and
    # codes kept, never a sum, a comparison or a tie
    import hashlib

    from fracdim2d.variation import _code, _dp_tables

    packed, corner, peak, peak_index = _dp_tables(np.random.default_rng(257).standard_normal((257, 193)))
    choice = np.array([[_code(packed, d, k) for k in range(193)] for d in range(257 + 193 - 1)], dtype=np.uint8)
    assert hashlib.sha256(choice.tobytes()).hexdigest() == (
        "c7aebcaf67ba391fa3a75ce5aaa0c5c0c769f04aaf08731dcd304fbdf882d5bf"
    )
    assert (repr(corner), repr(peak), repr(peak_index)) == ("960.6801071817833", "960.6801071817833", "49600")


_LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "strided": lambda a: np.repeat(np.repeat(a, 2, axis=0), 3, axis=1)[::2, ::3],
}


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (K, 40), (K + 1, 40), (40, K), (40, K + 1), (3000, 2), (2, 3000)]
)
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_narrow_and_wide_sweeps_give_the_same_bits(shape, layout):
    # the two sweeps on each side of the width rule, on integer ties and on floats
    from fracdim2d.variation import _narrow_tables, _wide_tables

    rng = np.random.default_rng(shape[0] * 10000 + shape[1])
    for base in (rng.integers(-2, 3, size=shape).astype(np.float64), rng.standard_normal(shape)):
        mat = _LAYOUTS[layout](base)
        assert mat.shape == shape and np.array_equal(mat, base)
        (p1, *rest1), (p2, *rest2) = _narrow_tables(mat), _wide_tables(mat)
        assert p1.dtype == p2.dtype == np.uint8 and p1.shape == p2.shape
        assert p1.tobytes() == p2.tobytes()
        assert repr(rest1) == repr(rest2)


@pytest.mark.parametrize("shape", [(2, 2), (1, 3), (K, 40), (K + 1, K + 1)])
def test_sums_past_float64_are_reported_as_numpy_reports_them(shape):
    # Python floats overflow to inf without a word, so a narrow grid must still end as the wide sweep's
    # numpy arithmetic does: a FloatingPointError where overflow raises, else a warning and an inf
    # value, which VariationResult refuses
    mat = np.where(np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2 == 0, -1e308, 1e308)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        arzela_variation(mat)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ParameterError):
        arzela_variation(mat)


def test_diagonal_sweep_holds_no_float_table():
    import tracemalloc

    from fracdim2d.variation import _dp_tables

    m, n = 300, 200
    mat = np.random.default_rng(5).integers(-2, 3, size=(m, n)).astype(np.float64)
    for shape in ((m, n), (n, m), (3000, 2), (2, 3000), (4, 2), (1, 1)):
        packed = _dp_tables(np.zeros(shape))[0]
        assert packed.dtype == np.uint8 and packed.shape == (-(-(sum(shape) - 1) // 4), min(shape))
    tracemalloc.start()
    try:
        arzela_variation(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * n  # one m x n float64 table would not fit


def test_choice_codes_take_two_bits_each():
    # a byte per code held (m + n - 1) min(m, n) = 399600 bytes here, and with the gathered block and
    # the rest the sweep traced 0.68 MB; four codes to a byte hold 100000 bytes, beside the 237056-byte
    # block, the 25600-byte staging block, the two edges' sums and at most 32 diagonals' worth of
    # floats: the rotating samples and sums, one diagonal's temporaries and a folded block's words
    import tracemalloc

    from fracdim2d.variation import _dp_tables

    m, n = 600, 400
    mat = np.random.default_rng(8).standard_normal((m, n))
    packed_bytes = -(-(m + n - 1) // 4) * min(m, n)
    small = 64 * min(m, n) + 2 * 8 * (m + n) + 32 * 8 * min(m, n)
    tracemalloc.start()
    try:
        _dp_tables(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packed_bytes < 0.4 * (m + n - 1) * min(m, n)
    assert peak <= packed_bytes + 64 * min(m, n + 63) * 8 + small


def test_diagonal_block_is_sized_by_the_diagonal_span():
    # the gathered block holds 64 diagonals of at most min(m, n + 63) rows, never m: on a 3000 x 2
    # grid the traced peak stays within 64 (n + 64) floats of the per-diagonal sweep's 201689 bytes.
    # The width rule sends this grid to the narrow sweep, so the wide sweep is called by name
    import tracemalloc

    from fracdim2d.variation import _wide_tables

    mat = np.random.default_rng(5).integers(-2, 3, size=(3000, 2)).astype(np.float64)
    tracemalloc.start()
    try:
        _wide_tables(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 201689 + 64 * (2 + 64) * 8


def test_diagonal_buffers_are_sized_by_the_diagonal_length():
    # the rotating sample and sum buffers hold a diagonal's min(m, n) nodes, not m: a 65536 x 2 sweep
    # traced 3.84 MB when they held m floats each, for 1.05 MB of samples, and 0.70 MB since.  Tracing
    # slows the sweep twentyfold, so the bound, 1.5 MB there, is held on an eighth of the grid:
    # 0.51 MB with m floats per buffer, 0.12 MB now.  The width rule sends this grid to the narrow
    # sweep, so the wide sweep is called by name
    import tracemalloc

    from fracdim2d.variation import _wide_tables

    mat = np.random.default_rng(6).standard_normal((8192, 2))
    tracemalloc.start()
    try:
        _wide_tables(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6 / 8


@pytest.mark.parametrize("shape", [(4096, 2), (2, 4096), (1000, K), (K, 1000), (1, 1)])
def test_narrow_lines_are_sized_by_the_diagonal_length(shape):
    # the narrow sweep keeps the packed table and two lines of samples and sums, each line min(m, n)
    # Python floats at 32 bytes (a list slot and the float), whichever axis is long: it traced 2.9 KB
    # on 4096 x 2 and on 2 x 4096, 0.8 KB above the packed bytes.  Rows of n floats on 2 x 4096
    # would take 0.5 MB
    import tracemalloc

    from fracdim2d.variation import _narrow_tables

    m, n = shape
    mat = np.random.default_rng(6).standard_normal(shape)
    tracemalloc.start()
    try:
        _narrow_tables(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= -(-(m + n - 1) // 4) * min(m, n) + 4 * 32 * min(m, n) + 1024


# ---------------------------------------------------------------------------
# result validation and trend


def test_variation_result_validates_path():
    with pytest.raises(ParameterError):
        VariationResult(value=1.0, argpath=((0, 0), (2, 0)))  # jump of 2 is not saturated
    with pytest.raises(ParameterError):
        VariationResult(value=1.0, argpath=((1, 1), (0, 1)))  # decreasing
    with pytest.raises(ParameterError):
        VariationResult(value=-1.0, argpath=((0, 0),))
    with pytest.raises(ParameterError):
        VariationResult(value=math.nan, argpath=((0, 0),))
    with pytest.raises(ParameterError, match="^argpath must contain at least one node$"):
        VariationResult(1.0, ())


def test_variation_rejects_bad_input():
    with pytest.raises(ParameterError):
        arzela_variation(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        arzela_variation(np.zeros(7))
    with pytest.raises(NumericError):
        arzela_variation(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_variation_trend_saturates_for_smooth_function():
    src = make_source("sinxy")
    # nested node sets (steps 1/8, 1/16, 1/32), so refinement cannot lose chains
    series = variation_trend(src, Box(1, 2, 1, 2), (9, 17, 33))
    vals = [v for _, v in series]
    assert vals[1] >= vals[0] - 1e-12 and vals[2] >= vals[1] - 1e-12
    assert vals[2] / vals[1] - 1.0 < 0.05  # refinement barely moves it


def test_variation_trend_diverges_for_staircase_construction():
    src = make_source("t-parabola-sine")
    series = variation_trend(src, src.domain, (16, 32, 64))
    vals = [v for _, v in series]
    assert vals[0] < vals[1] < vals[2]


# V_phi, the seed's variation along x on its half strip, in closed form: sin(x(x - 1/2)) falls from
# 0 to -sin(1/16) and climbs back; x(x - 1/2) sin y does the same at amplitude 1/16 sin y, largest at y = 1
_SEED_VARIATION = {"t-sine-parabola": 2.0 * math.sin(1.0 / 16.0), "t-parabola-sine": math.sin(1.0) / 8.0}


@pytest.mark.parametrize("name", sorted(_SEED_VARIATION))
def test_staircase_variation_grows_as_the_harmonic_numbers(name):
    # on 2^j + 1 nodes a side, pieces 1 ... j-1 each hold the peak of their hump, of amplitude 1/n, as a
    # node and piece j holds none: the grid variation is V_phi H_(j-1), without bound up to the resolved pieces
    box = default_box(name)
    for j in range(3, 11):
        harmonic = math.fsum(1.0 / k for k in range(1, j))
        got = arzela_variation(sample(make_source(name), GridSpec(box, 2**j + 1, 2**j + 1))).value
        assert got == pytest.approx(_SEED_VARIATION[name] * harmonic, rel=1e-12, abs=0.0), j


def test_variation_trend_validates_levels():
    src = make_source("constant:1")
    with pytest.raises(ParameterError):
        variation_trend(src, Box(1, 2, 1, 2), (8, 8))
    with pytest.raises(ParameterError):
        variation_trend(src, Box(1, 2, 1, 2), (1, 4))
    with pytest.raises(ParameterError):
        variation_trend(src, Box(1, 2, 1, 2), ())
