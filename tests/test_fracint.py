import hashlib
import itertools
import math
import os
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdim2d import (
    BoundCertificate,
    Box,
    CallableSource,
    DomainError,
    FracOrder,
    GridSpec,
    NumericError,
    ParameterError,
    QuadratureSpec,
    SampledSource,
    ShiftedSource,
    SizeError,
    TConstruction,
    TSource,
    VerificationError,
    axis_unit_factor,
    boundedness_certificate,
    compose_semigroup,
    default_deltas,
    dimension_fit,
    hadamard_2d,
    integral_of_one,
    katugampola_1d,
    katugampola_2d,
    katugampola_2d_grid,
    make_source,
    quad_error_probe,
    riemann_liouville_2d,
    positive_source,
    sample,
    sup_gap,
)
from fracdim2d import cli, core, fracint, verify

from closed_form import axis_factors, in_float_range, linear_factors

BOX = Box(1.0, 2.0, 1.0, 2.0)
HALF = FracOrder(0.5, 0.5)

# high-precision references (mpmath, 40 digits, quad against the exact kernel)
REF_SINXY_2D = 0.34218882577947983698  # mixed half-order of sin(xy) at (2,2) on [1,2]^2
REF_SIN_1D = 1.0737641871815868674  # half-order of sin at x=2 from a=1
REF_P1_SIN_1D = 1.3152551461016859542  # same with power weight p=1
FOUR_OVER_PI = 1.2732395447351626862
CLOSED_P1 = 1.5593936024673522158  # 4 sqrt(1.5) / pi


# ---------------------------------------------------------------------------
# closed forms and oracle values


def test_unit_function_closed_form():
    v = katugampola_2d(make_source("constant:1"), BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=256))
    assert v == pytest.approx(FOUR_OVER_PI, rel=1e-12)


def test_unit_function_power_weight_closed_form():
    order = FracOrder(0.5, 0.5, p=1.0, q=0.0)
    v = katugampola_2d(make_source("constant:1"), BOX, 2.0, 2.0, order, QuadratureSpec(panels=256))
    assert v == pytest.approx(CLOSED_P1, rel=1e-12)


def test_point_value_against_high_precision_reference():
    # product-midpoint rule is O(panels^-2); measured error 1.14e-5 at 256
    v = katugampola_2d(make_source("sinxy"), BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=256))
    assert v == pytest.approx(REF_SINXY_2D, abs=5e-5)


def test_1d_against_high_precision_reference():
    v = katugampola_1d(np.sin, 1.0, 2.0, 0.5, 0.0, QuadratureSpec(panels=256))
    assert v == pytest.approx(REF_SIN_1D, abs=5e-6)
    vp = katugampola_1d(np.sin, 1.0, 2.0, 0.5, 1.0, QuadratureSpec(panels=256))
    assert vp == pytest.approx(REF_P1_SIN_1D, abs=1e-5)


def test_quadrature_error_shrinks_quadratically():
    errs = [
        abs(katugampola_2d(make_source("sinxy"), BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=P)) - REF_SINXY_2D)
        for P in (64, 128, 256)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 10.0  # ~16x for a second-order rule


def test_constants_are_integrated_exactly():
    # kernel moments are exact, so f == c costs no quadrature error at all
    for panels in (4, 16, 64):
        v = katugampola_2d(make_source("constant:3"), BOX, 1.7, 1.3, HALF, QuadratureSpec(panels=panels))
        assert v == pytest.approx(3.0 * integral_of_one(BOX, HALF, 1.7, 1.3), rel=1e-14)


def test_integral_of_one_and_axis_factor():
    assert integral_of_one(BOX, HALF, 2.0, 2.0) == pytest.approx(FOUR_OVER_PI, rel=1e-13)
    assert axis_unit_factor(1.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-14)  # plain length for order 1
    assert axis_unit_factor(1.0, 1.0, 0.5) == 0.0
    with pytest.raises(ParameterError):
        axis_unit_factor(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        axis_unit_factor(0.0, 1.0, 0.5)
    # weight -1 is the Hadamard member: log(x/lo)^order / Gamma(order+1); below it is refused
    assert axis_unit_factor(1.0, math.e, 0.5, -1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    with pytest.raises(ParameterError, match="at least -1"):
        axis_unit_factor(1.0, 2.0, 0.5, -1.5)


def test_axis_factor_is_zero_at_its_lower_limit_for_every_weight():
    # u(lo) of a float and of an array rounded apart when each end was mapped to s^rho/rho: at
    # alpha = 1/2, p = 2, lo = 0.01 and at p = 11.25, lo = 7.5 the difference was one ulp below 0
    # and the factor NaN.  Anchored at lo, u(lo) is exactly 0 (lo - lo at p = 0)
    for p in np.arange(-1.0, 12.001, 0.25):
        for lo in (0.01, 0.3, 1.0, 2.0, 7.5):
            for order in (0.5, 1.3):
                assert axis_unit_factor(lo, lo, order, float(p)) == 0.0, (p, lo, order)
                # above the limit the factor is the mapped difference, bit for bit
                fwd, x = fracint._power_map(float(p), lo)[0], 1.25 * lo
                scale = math.exp(fracint.log_normaliser(order) - math.log(order))
                assert axis_unit_factor(lo, x, order, float(p)) == (fwd(np.asarray(x)) - fwd(lo)) ** order * scale


def test_closed_form_of_one_past_float64_is_a_numeric_error():
    # (1e100^6 / 6)^(1/2) and two finite factors of 1.7e179 each leave float64: an error, not inf
    with pytest.raises(NumericError, match="^integral of 1 overflows float64"):
        axis_unit_factor(1.0, 1e100, 0.5, 5.0)
    for box, order in ((Box(1.0, 1e100, 1.0, 2.0), FracOrder(0.5, 0.5, 5.0, 0.0)), (Box(1.0, 1e60, 1.0, 1e60), FracOrder(3.0, 3.0))):
        with pytest.raises(NumericError, match="^integral of 1 overflows float64"):
            integral_of_one(box, order, box.b, box.d)
    # ordinary inputs keep their bits
    vals = []
    for lo, order, weight in itertools.product((0.01, 0.5, 1.0, 7.5), (0.3, 0.5, 1.0, 1.7, 2.5), (-1.0, -0.4, 0.0, 0.7, 3.0)):
        vals += [axis_unit_factor(lo, x, order, weight) for x in (lo, lo * (1.0 + 1e-9), 1.3 * lo, lo + 2.0, 40.0 * lo)]
    box = Box(1.0, 2.5, 0.5, 3.0)
    for a, b, p, q in itertools.product((0.5, 1.5), (0.3, 2.0), (-1.0, 0.0, 1.5), (-0.5, 2.0)):
        vals += [integral_of_one(box, FracOrder(a, b, p, q), x, y) for x in (1.0, 1.7, 2.5) for y in (0.5, 2.9)]
    # re-pinned when u was anchored at lo: the factors at lo (1 + 1e-9) moved by up to 6.0e-7, to
    # within 1.6e-15 of the closed form, the others by at most 6.9e-15 and integral_of_one not at all
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == "8ea967d02a1428ca78775bbc8856f4f59e71539285be56c7b57d3ff366eaab6a"


def test_order_one_reduces_to_plain_integration():
    # alpha = beta = 1, p = q = 0 is the ordinary double integral
    src = make_source("plane")
    v = katugampola_2d(src, BOX, 2.0, 2.0, FracOrder(1.0, 1.0), QuadratureSpec(panels=64))
    # int_1^2 int_1^2 (s+t) dt ds = 3
    assert v == pytest.approx(3.0, rel=1e-12)


def test_edges_evaluate_to_zero():
    src = make_source("sinxy")
    assert katugampola_2d(src, BOX, 1.0, 1.7, HALF) == 0.0
    assert katugampola_2d(src, BOX, 1.7, 1.0, HALF) == 0.0
    gs = katugampola_2d_grid(src, GridSpec(BOX, 5, 5), HALF)
    assert np.all(gs.matrix[0, :] == 0.0)
    assert np.all(gs.matrix[:, 0] == 0.0)


# ---------------------------------------------------------------------------
# routes agree


def test_grid_matches_pointwise_bit_for_bit():
    src = make_source("sinxy")
    spec = GridSpec(BOX, 7, 5)
    gs = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=48), method="tensor")
    for i in range(spec.m):
        for j in range(spec.n):
            x, y = spec.node(i, j)
            assert gs.value(i, j) == katugampola_2d(src, BOX, x, y, HALF, QuadratureSpec(panels=48))


def test_auto_prefers_split_and_requires_it_for_separable():
    src = CallableSource(lambda x, y: x * y, name="prod")  # no additive split
    spec = GridSpec(BOX, 5, 5)
    with pytest.raises(ParameterError, match="no additive split") as info:
        katugampola_2d_grid(src, spec, HALF, method="separable")
    assert info.value.parameter == "method"
    gs = katugampola_2d_grid(src, spec, HALF, method="auto")
    assert gs.value(4, 4) != 0.0


@pytest.mark.parametrize("name", ["constant:1", "plane", "weierstrass", "sine-parabola"])
@pytest.mark.parametrize(
    "order",
    [FracOrder(0.5, 0.5, 0.6, 0.6), FracOrder(0.5, 0.3, 0.6, -0.4), FracOrder(0.5, 0.3, -1.0, -1.0)],  # one mesh, two, Hadamard
)
def test_separable_is_the_split_mesh_bit_for_bit(name, order):
    # "separable" only insists on a split: its grid is auto's, byte for byte (weierstrass shifted by 1, 1)
    src, box = positive_source(name)
    spec = GridSpec(box, 17, 17)
    sep, auto = (katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=64), method=m).values for m in ("separable", "auto"))
    assert np.any(sep) and sep.tobytes() == auto.tobytes()


def test_riemann_liouville_agrees_when_weights_vanish():
    quad = QuadratureSpec(panels=96)
    for name in ("constant:1", "plane", "sinxy"):
        src = make_source(name)
        k = katugampola_2d(src, BOX, 1.9, 1.6, HALF, quad)
        r = riemann_liouville_2d(src, BOX, 1.9, 1.6, 0.5, 0.5, quad)
        assert k == pytest.approx(r, abs=1e-12)


def test_hadamard_closed_form_and_limit():
    e = math.e
    box = Box(1.0, e, 1.0, e)
    one = make_source("constant:1")
    quad = QuadratureSpec(panels=128)
    # log-kernel closed form: (2/sqrt(pi))^2 * ln(e) = 4/pi at the far corner
    h = hadamard_2d(one, box, e, e, 0.5, 0.5, quad)
    assert h == pytest.approx(FOUR_OVER_PI, rel=1e-10)
    # p = q -> -1 limit of the power-weight operator approaches hadamard
    eps = 1e-4
    k = katugampola_2d(one, box, e, e, FracOrder(0.5, 0.5, p=-1 + eps, q=-1 + eps), quad)
    assert k == pytest.approx(h, rel=1e-2)


# ---------------------------------------------------------------------------
# the Riemann-Liouville oracle on a grid: riemann_liouville_2d node by node


def _rl_points(src, box, xs, ys, alpha, beta, quad):
    return np.array([[riemann_liouville_2d(src, box, x, y, alpha, beta, quad) for y in ys] for x in xs])


@pytest.mark.parametrize("name", verify._smooth_names())
def test_rl_grid_is_the_point_oracle_at_every_node(name):
    src, box = positive_source(name)
    spec = GridSpec(box, 5, 5)
    quad = QuadratureSpec(panels=24)
    grid = fracint._rl_grid(src, spec, 0.5, 0.5, quad)
    assert grid.shape == (5, 5)
    assert grid.tobytes() == _rl_points(src, box, spec.xs(), spec.ys(), 0.5, 0.5, quad).tobytes()


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.3, 0.7), (1.5, 0.5), (1.5, 2.5)],  # graded (orders below 1), graded (one order below 1), uniform
)
def test_rl_grid_keeps_bits_on_a_non_square_grid(alpha, beta):
    src = make_source("sinxy")
    spec = GridSpec(BOX, 5, 7)
    quad = QuadratureSpec(panels=16)
    grid = fracint._rl_grid(src, spec, alpha, beta, quad)
    assert grid.shape == (5, 7)
    assert grid.tobytes() == _rl_points(src, BOX, spec.xs(), spec.ys(), alpha, beta, quad).tobytes()
    # nodes on the lower edges integrate over nothing: +0.0
    assert grid[0].tobytes() == np.zeros(7).tobytes() and grid[:, 0].tobytes() == np.zeros(5).tobytes()
    assert np.all(grid[1:, 1:] != 0.0)


def test_rl_grid_keeps_the_log_space_constant_from_order_171():
    src, box = make_source("plane"), Box(1.0, 31.0, 1.0, 2.0)
    xs, ys = [1.0, 16.0, 31.0], [1.5, 2.0]
    quad = QuadratureSpec(panels=8)
    grid = fracint._rl_nodes(src, box, xs, ys, 171.0, 0.5, quad)
    assert grid.tobytes() == _rl_points(src, box, xs, ys, 171.0, 0.5, quad).tobytes()
    assert np.all(np.isfinite(grid)) and np.all(grid[1:] > 0.0)


def test_rl_grid_overflow_is_a_numeric_error():
    src, box = make_source("plane"), Box(1.0, 1000.0, 1.0, 2.0)  # 999^200 is past float64
    quad = QuadratureSpec(panels=8)
    with pytest.raises(NumericError, match="overflows"):
        fracint._rl_nodes(src, box, [1.0, 1000.0], [2.0], 200.0, 0.5, quad)
    with pytest.raises(NumericError, match="overflows"):
        riemann_liouville_2d(src, box, 1000.0, 2.0, 200.0, 0.5, quad)


def test_an_order_past_log_gamma_is_a_numeric_error():
    # log Gamma(1e308) is past float64: every operator constant ends as a NumericError, not a bare OverflowError
    huge = FracOrder(1e308, 0.5)
    calls = [
        lambda: katugampola_2d_grid(make_source("sinxy"), GridSpec(BOX, 3, 3), huge),
        lambda: katugampola_2d_grid(make_source("plane"), GridSpec(BOX, 3, 3), huge, method="auto"),
        lambda: katugampola_1d(np.sin, 1.0, 2.0, 1e308),
        lambda: axis_unit_factor(1.0, 2.0, 1e308),
        lambda: compose_semigroup(make_source("sinxy"), GridSpec(BOX, 3, 3), huge, HALF, QuadratureSpec(panels=8)),
        lambda: riemann_liouville_2d(make_source("sinxy"), BOX, 1.5, 1.5, 1e308, 0.5),
    ]
    for call in calls:
        with pytest.raises(NumericError, match="overflows float64"):
            call()


def test_only_an_overflow_reads_as_one():
    big = np.array([1e308])
    with pytest.raises(NumericError, match="overflows"):
        with fracint._no_overflow():
            big * 10.0
    # under a caller's errstate an invalid step keeps numpy's own message
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid"):
        with fracint._no_overflow():
            np.array([np.inf]) - np.inf


def test_rl_grid_never_enters_the_quadrature_engine(monkeypatch):
    src, box = positive_source("sinxy")
    spec = GridSpec(box, 4, 4)
    quad = QuadratureSpec(panels=16)
    before = fracint._rl_grid(src, spec, 0.5, 0.5, quad)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the engine it checks")

    for name in ("_tensor", "_axis_rules", "_unit_rule"):
        monkeypatch.setattr(fracint, name, refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    after = fracint._rl_grid(src, spec, 0.5, 0.5, quad)
    assert after.tobytes() == before.tobytes()
    assert riemann_liouville_2d(src, box, *spec.node(3, 2), 0.5, 0.5, quad) == after[3, 2]
    # positive control: the patches are live for the route the oracle checks
    with pytest.raises(AssertionError, match="engine"):
        katugampola_2d(src, box, *spec.node(3, 2), HALF, quad)


def _grid_at(monkeypatch, threads, *args, **kwargs):
    """``katugampola_2d_grid`` with FRACDIM2D_THREADS, the library's one worker-count setting, at ``threads``."""
    monkeypatch.setenv("FRACDIM2D_THREADS", str(threads))
    return katugampola_2d_grid(*args, **kwargs)


def test_thread_count_never_changes_grid_bits(monkeypatch):
    src = make_source("sinxy")
    spec = GridSpec(BOX, 9, 9)
    base = _grid_at(monkeypatch, 1, src, spec, HALF, QuadratureSpec(panels=32))
    for k in (2, 4, 8):
        again = _grid_at(monkeypatch, k, src, spec, HALF, QuadratureSpec(panels=32))
        assert np.array_equal(base.values, again.values)


def _tensor_per_output(src, rect, xs, ys, order, quad):
    # the tensor route as one contraction per output, f evaluated in (k, j, l) order for each row
    gr = quad.graded(order.alpha, order.beta)
    Sx, Mx = fracint._axis_rules(rect.a, xs, order.alpha, quad.panels, gr, fracint._power_map(order.p, rect.a))
    Sy, My = fracint._axis_rules(rect.c, ys, order.beta, quad.panels, gr, fracint._power_map(order.q, rect.c))
    pref = fracint._prefactor(order)
    (m, P), n = Sx.shape, Sy.shape[0]
    out = np.empty((m, n))
    for i in range(m):
        F = np.broadcast_to(np.asarray(src.eval(Sx[i][:, None, None], Sy[None, :, :]), dtype=np.float64), (P, n, P))
        for j in range(n):
            inner = np.einsum("kl,l->k", np.ascontiguousarray(F[:, j, :]), My[j], optimize=False)
            out[i, j] = pref * float(np.einsum("k,k->", Mx[i], inner, optimize=False))
    return out + 0.0


@pytest.mark.parametrize("name", ["sinxy", "constant:3", "t-parabola-sine"])
def test_tensor_blocks_are_the_per_output_contraction_bit_for_bit(monkeypatch, name):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    src, box = positive_source(name)
    spec = GridSpec(box, 8, 7)
    quad = QuadratureSpec(panels=64)  # 8 * 7 * 64^2 evaluations: two workers
    for order in (HALF, FracOrder(0.3, 1.7, 0.6, -0.4), FracOrder(0.7, 0.4, -1.0, -1.0)):
        ref = _tensor_per_output(src, box, spec.xs(), spec.ys(), order, quad)
        # the second block size holds three outputs: blocks split every row
        for block in (fracint._APPLY_BLOCK, 4 * 3 * 64 * 64):
            monkeypatch.setattr(fracint, "_APPLY_BLOCK", block)
            for threads in (1, 2):
                got = _grid_at(monkeypatch, threads, src, spec, order, quad)
                assert got.matrix.tobytes() == ref.tobytes(), (order, block, threads)


def test_small_grids_stay_on_the_calling_thread(monkeypatch):
    # a worker is added only for a block of 2^16 evaluations: a 9 x 9 grid at 16 panels
    # (20,736 of them) never reaches the pool; the weighted 33 x 33 grid at 128 panels does
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pool = core._workers()
    submitted = []
    real = pool.submit

    def spy(fn, *args, **kwargs):
        submitted.append(fn)
        return real(fn, *args, **kwargs)

    monkeypatch.setattr(pool, "submit", spy)
    src = make_source("sinxy")
    katugampola_2d_grid(src, GridSpec(BOX, 9, 9), HALF, QuadratureSpec(panels=16))
    assert submitted == []
    katugampola_2d_grid(src, GridSpec(BOX, 33, 33), FracOrder(0.5, 0.5, 0.6, -0.4), QuadratureSpec(panels=128))
    assert len(submitted) == 1


def test_point_calls_and_sampled_box_counts_stay_on_the_calling_thread(monkeypatch):
    # at two workers: a point call is a 1 x 1 grid, one item, however many evaluations it takes,
    # and the slices of a held matrix cost no work, so neither builds or reaches the pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("FRACDIM2D_THREADS", "2")

    def refuse():
        raise AssertionError("reached the pool")

    g = sample(make_source("weierstrass"), GridSpec(Box(0, 1, 0, 1), 1025, 1025))  # sampled before the spy
    monkeypatch.setattr(core, "_workers", refuse)
    katugampola_2d(make_source("sinxy"), BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=512))  # 512^2 evaluations
    assert dimension_fit(g, default_deltas(g.spec)).slope > 2.0
    with pytest.raises(AssertionError, match="reached the pool"):  # positive control: an evaluated grid does
        sample(make_source("weierstrass"), g.spec)


# ---------------------------------------------------------------------------
# shared-mesh route: method="auto" on sources with an additive split

SIN_COS = CallableSource(name="sin+cos", split=(np.sin, np.cos))


def _axis_identity(lo, x, order):
    # exact p = 0 one-axis integral of s: (x L^order / order - L^(order+1) / (order+1)) / Gamma(order)
    L = x - lo
    return (x * L**order / order - L ** (order + 1.0) / (order + 1.0)) / math.gamma(order)


@pytest.mark.parametrize("order", [HALF, FracOrder(0.3, 1.7, 0.6, -0.4), FracOrder(2.5, 0.1, 1.0, 0.0)])
def test_auto_mesh_integrates_constants_exactly(order):
    src = make_source("constant:2.5")
    for spec in (GridSpec(BOX, 9, 9), GridSpec(BOX, 17, 5)):
        for panels in (16, 256):
            gs = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=panels), method="auto")
            for i, x in enumerate(spec.xs()):
                for j, y in enumerate(spec.ys()):
                    ref = 2.5 * integral_of_one(BOX, order, x, y)
                    assert abs(gs.value(i, j) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("order", [HALF, FracOrder(0.3, 1.7)])
def test_auto_mesh_is_exact_for_plane_at_p0(order):
    # hat functions in u = s reproduce a linear integrand exactly
    spec = GridSpec(BOX, 9, 9)
    gs = katugampola_2d_grid(make_source("plane"), spec, order, QuadratureSpec(panels=16), method="auto")
    a, b = order.alpha, order.beta
    for i, x in enumerate(spec.xs()):
        for j, y in enumerate(spec.ys()):
            ref = _axis_identity(1.0, x, a) * axis_unit_factor(1.0, y, b) + axis_unit_factor(1.0, x, a) * _axis_identity(1.0, y, b)
            assert gs.value(i, j) == pytest.approx(ref, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("order", [HALF, FracOrder(0.5, 0.3, 0.6, 0.6), FracOrder(0.3, 0.7, 0.6, -0.4)])
def test_auto_mesh_is_second_order(order):
    spec = GridSpec(BOX, 5, 5)
    vals = [katugampola_2d_grid(SIN_COS, spec, order, QuadratureSpec(panels=P), method="auto").values for P in (64, 128, 256, 512)]
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(vals, vals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert min(orders) >= 1.9, orders


def test_auto_mesh_thread_count_never_changes_bits(monkeypatch):
    src, box = positive_source("weierstrass")
    spec = GridSpec(box, 65, 65)
    for order in (FracOrder(0.2, 0.2), FracOrder(0.2, 0.3, 0.5, 0.0)):
        one = _grid_at(monkeypatch, 1, src, spec, order, QuadratureSpec(panels=16384), method="auto")
        two = _grid_at(monkeypatch, 2, src, spec, order, QuadratureSpec(panels=16384), method="auto")
        assert one.values.tobytes() == two.values.tobytes()


def test_auto_mesh_weight_blocks_stay_under_apply_block(monkeypatch):
    seen = []
    real = fracint._hat_weights

    def spy(U, u, h, order):
        seen.append(U.size * u.size)  # the largest array a block builds
        return real(U, u, h, order)

    monkeypatch.setattr(fracint, "_hat_weights", spy)
    spec = GridSpec(BOX, 65, 65)
    quad = QuadratureSpec(panels=16384)
    ref = katugampola_2d_grid(SIN_COS, spec, HALF, quad, method="auto")
    assert seen and max(seen) <= fracint._APPLY_BLOCK
    # a block smaller than one mesh row splits the rows into column chunks
    monkeypatch.setattr(fracint, "_APPLY_BLOCK", 1000)
    seen.clear()
    small = katugampola_2d_grid(SIN_COS, spec, HALF, quad, method="auto")
    assert max(seen) <= 1000
    assert sup_gap(small, ref) < 1e-13


@pytest.mark.parametrize("m", [9, 65, 1025])
@pytest.mark.parametrize("panels", [64, 16384])
def test_lattice_weights_are_the_per_block_weights_bit_for_bit(monkeypatch, m, panels):
    # on [1, 2] with m - 1 a power of two the p = 0 mesh is a lattice: each output's weights are
    # a slice of the last node's row; the per-block build, reached by refusing the lattice, is the reference
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, m), 0.0, panels)
    assert fracint._lattice(mesh.u)
    # equally spaced outputs take the strided views: one interval apart at 64 panels for m = 65 and 1025
    assert np.all(np.diff(mesh.top) == max(1, panels // (m - 1)))
    vals = [np.sin(3.0 * mesh.s), np.cos(mesh.s)[:, None]]  # a column, as the two-axis mesh passes them
    if panels == 64:  # and a block of F, 129 columns
        vals.append(np.sin(np.outer(mesh.s, np.linspace(1.0, 2.0, 129))))
    real = fracint._lattice

    def same(order):
        monkeypatch.setattr(fracint, "_lattice", real)
        fast = fracint._hat_apply(mesh, fracint._hat_blocks(mesh, order), vals)
        monkeypatch.setattr(fracint, "_lattice", lambda u: False)
        slow = fracint._hat_apply(mesh, fracint._hat_blocks(mesh, order), vals)
        return all(a.tobytes() == b.tobytes() for a, b in zip(fast, slow))

    for order in (0.2, 0.5, 1.0, 1.7):
        assert same(order), order
    # a block of 1000 entries cuts every row of the larger meshes into column chunks
    monkeypatch.setattr(fracint, "_APPLY_BLOCK", 1000)
    assert same(0.2)


def _blocks(mesh, weights):
    # every weight block that ``_hat_apply`` asks for, in its order
    seen = []
    fracint._hat_apply(mesh, lambda *block: seen.append(weights(*block)) or seen[-1], [np.ones(mesh.u.size)])
    return seen


def test_a_lattice_with_unequally_spaced_outputs_takes_the_per_block_build(monkeypatch):
    u = 1.0 + np.arange(65) / 64.0  # lattice nodes; the outputs end 16, 32 and 64 of 64 intervals up
    top = np.array([16, 32, 64])
    mesh = fracint._Mesh(u, u, np.diff(u), u[top], top)
    assert fracint._lattice(mesh.u)
    vals = [np.sin(3.0 * mesh.s), np.cos(np.outer(mesh.s, np.linspace(1.0, 2.0, 101)))]
    built, real = [], fracint._hat_weights

    def spy(U, u, h, order):
        built.append(U.size)
        return real(U, u, h, order)

    monkeypatch.setattr(fracint, "_hat_weights", spy)
    orders = (0.2, 0.5, 1.7)
    fast = [fracint._hat_apply(mesh, fracint._hat_blocks(mesh, order), vals) for order in orders]
    assert built == [3] * len(orders)  # every output's weights, not the last node's row
    monkeypatch.setattr(fracint, "_lattice", lambda u: False)
    slow = [fracint._hat_apply(mesh, fracint._hat_blocks(mesh, order), vals) for order in orders]
    assert all(a.tobytes() == b.tobytes() for f, g in zip(fast, slow) for a, b in zip(f, g))


@pytest.mark.parametrize("block", [fracint._APPLY_BLOCK, 1000])
def test_lattice_weight_blocks_are_read_only_views_of_one_row(monkeypatch, block):
    # no weight block is written: on equally spaced outputs every block is a view of one array, the
    # last node's left and right rows and their zeros, far smaller than the blocks, and no caller can
    # write to it
    monkeypatch.setattr(fracint, "_APPLY_BLOCK", block)
    for m, panels in ((9, 64), (65, 64), (1025, 16384)):
        mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, m), 0.0, panels)
        blocks = [w for pair in _blocks(mesh, fracint._hat_blocks(mesh, 0.5)) for w in pair]
        row = blocks[0].base
        assert row.shape == (2, mesh.h.size + min(mesh.h.size, block)) and row.nbytes < sum(w.nbytes for w in blocks)
        assert all(w.base is row and np.shares_memory(w, row) and not w.flags.writeable for w in blocks)


def test_the_y_axis_weights_are_built_once_per_call(monkeypatch):
    # p = q = 0 on a 17 x 17 grid at 1024 panels: two lattice axes, F in several blocks; each axis
    # builds its one row once, however many blocks of F read it
    spec = GridSpec(BOX, 17, 17)
    mesh = fracint._mesh(1.0, spec.ys(), 0.0, 1024)
    assert fracint._lattice(mesh.u) and fracint._f_blocks(mesh.u.size, mesh.u.size) > 2
    built, real = [], fracint._hat_weights

    def spy(U, u, h, order):
        built.append(U.size * h.size)
        return real(U, u, h, order)

    monkeypatch.setattr(fracint, "_hat_weights", spy)
    order, quad = FracOrder(0.5, 0.5), QuadratureSpec(panels=1024)
    grid = _grid_at(monkeypatch, 2, make_source("sinxy"), spec, order, quad, method="auto")
    assert built == [mesh.h.size] * 2  # y pass, x pass
    again = _grid_at(monkeypatch, 1, make_source("sinxy"), spec, order, quad, method="auto")
    assert again.values.tobytes() == grid.values.tobytes()


def test_only_a_lattice_mesh_takes_one_row_weights(monkeypatch):
    his = np.linspace(1.0, 2.0, 65)
    moved = fracint._mesh(1.0, his, 0.0, 64).u.copy()
    moved[7] = np.nextafter(moved[7], np.inf)  # one node one ulp off the lattice
    tparab, box = positive_source("t-parabola-sine")
    spec = GridSpec(box, 33, 33)
    for u in (
        moved,
        fracint._mesh(1.0, np.linspace(1.0, 2.0, 100), 0.0, 64).u,  # steps of 1/99 in u = s
        fracint._mesh(1.0, his, 0.6, 64).u,  # p = 0.6: u = s^1.6/1.6, unequal steps
        fracint._mesh(1.0, his, -1.0, 64).u,  # Hadamard: u = log s
        fracint._mesh(1.0, his, 0.0, 64, 0.5).u,  # the lead-in graded toward the lower limit
        fracint._mesh(box.a, spec.xs(), 0.0, 64, None, tparab.knots()[0]).u,  # the staircase's knot mesh
        np.array([2.0**-60, 1.0]),  # one step of 2^60 - 1 lattice units of 2^-60, past 2^52
    ):
        assert not fracint._lattice(u)
    # the README's dimension of the integral of the Weierstrass surface: one mesh of N nodes for both
    # axes, whose weights take one row of N - 1 entries, not about m N / 2 of them
    built, meshes = [], []
    real_weights, real_lattice = fracint._hat_weights, fracint._lattice

    def weights(U, u, h, order):
        built.append(U.size * h.size)
        return real_weights(U, u, h, order)

    def lattice(u):
        meshes.append((u.size, real_lattice(u)))
        return meshes[-1][1]

    monkeypatch.setattr(fracint, "_hat_weights", weights)
    monkeypatch.setattr(fracint, "_lattice", lattice)
    argv = "dimension --fn weierstrass --shift 1,1 --integral --alpha .5 --beta .5 --panels 16384 --grid 1025,1025"
    assert cli.main(argv.split()) == 0
    (size, on_lattice), = meshes
    assert on_lattice and size > 16384 and 0 < sum(built) <= 2 * size


def test_power_weight_near_minus_one_meets_the_hadamard_member():
    # s^(p+1) rounds the whole box to 1 here; in u = expm1(rho log s)/rho every route stays
    # within O(rho) = 1.1e-16 of its p = -1 grid, which is not 0
    near, had = FracOrder(0.5, 0.5, -0.9999999999999999, 0.0), FracOrder(0.5, 0.5, -1.0, 0.0)
    for src, method in ((make_source("sinxy"), "tensor"), (make_source("plane"), "auto"), (make_source("plane"), "separable")):
        grid = [katugampola_2d_grid(src, GridSpec(BOX, 3, 3), o, QuadratureSpec(panels=8), method=method).values for o in (near, had)]
        assert np.max(np.abs(grid[1])) > 0.0
        assert np.max(np.abs(grid[0] - grid[1])) <= 1e-14 * np.max(np.abs(grid[1])), method


def test_hadamard_is_the_minus_one_member_bit_for_bit():
    src, quad = make_source("sinxy"), QuadratureSpec(panels=32)
    gs = katugampola_2d_grid(src, GridSpec(BOX, 5, 4), FracOrder(0.5, 0.3, -1.0, -1.0), quad, method="tensor")
    for i, x in enumerate(gs.spec.xs()):
        for j, y in enumerate(gs.spec.ys()):
            assert hadamard_2d(src, BOX, x, y, 0.5, 0.3, quad) == gs.value(i, j)


# 1 = g(x) + h(y) on any box: the split routes take it, and the tensor route when asked
ONE = CallableSource(name="one", split=(lambda t: np.ones(np.shape(t)), lambda t: np.zeros(np.shape(t))))


def _constant_routes(k: float) -> dict:
    """f = k on each route: tensor, the split mesh (g = k, h = 0) and the two-axis mesh (smooth, no split)."""

    def f(x, y):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), k)

    split = (lambda t: np.full(np.shape(t), k), lambda t: np.zeros(np.shape(t)))
    return {
        "tensor": (CallableSource(f, name="k"), "tensor"),
        "mesh-split": (CallableSource(name="k", split=split), "auto"),
        "mesh-2d": (CallableSource(f, name="k", smooth=True), "auto"),
    }


def _closed_form(spec: GridSpec, k: float, order: FracOrder) -> np.ndarray:
    fx = axis_factors(spec.rect.a, spec.xs(), order.alpha, order.p)
    fy = axis_factors(spec.rect.c, spec.ys(), order.beta, order.q)
    return np.array([[float(Decimal(k) * a * b) for b in fy] for a in fx])


def _assert_closed_form(gs, ref: np.ndarray, what) -> None:
    # every node within 1e-13 relative of the closed form; the lower edges are exactly 0
    assert np.all(np.abs(gs.matrix - ref) <= 1e-13 * np.abs(ref)), (what, np.max(np.abs(gs.matrix - ref) / np.abs(ref + (ref == 0))))


def test_a_box_within_one_spacing_of_log_s_meets_the_closed_form():
    # log s rounds Box(1e6, 1e6 + 3e-10) to one float, and s^rho/rho kept only a few digits of it;
    # u anchored at the lower limit keeps its width at every weight, so each route meets the closed form
    spec = GridSpec(Box(1e6, 1e6 + 3e-10, 1.0, 2.0), 3, 3)
    for p in (-1.0, -0.99, -0.5, 0.0, 2.0):
        order = FracOrder(0.5, 0.5, p, 0.0)
        ref = _closed_form(spec, 1.0, order)
        for route, (src, method) in _constant_routes(1.0).items():
            if p != 0.0 or route == "tensor":  # the mesh at p = 0: see the test below
                _assert_closed_form(katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=8), method=method), ref, (p, route))


def test_box_narrower_than_its_coordinates_is_refused():
    # at p = 0 u is s itself: the mesh nodes of Box(1e6, 1e6 + 3e-10), 3.75e-11 apart, round
    # together below the float spacing at 1e6, and a rule on them would print a confident 0
    spec = GridSpec(Box(1e6, 1e6 + 3e-10, 1.0, 2.0), 3, 3)
    for method in ("auto", "separable"):
        with pytest.raises(NumericError, match="too narrow"):
            katugampola_2d_grid(ONE, spec, HALF, QuadratureSpec(panels=8), method=method)


def _seeded_boxes():
    # 400 boxes with lower limits 1e-3..1e3 and relative widths 1e-9..10, weights at, near and away
    # from -1 and 0, and a constant k: 1 in half the cases, anything in 1e-3..1e3 of either sign else
    rng = np.random.default_rng(26)
    for case in range(400):
        a, c = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        b, d = a * (1.0 + 10.0 ** rng.uniform(-9.0, 1.0)), c * (1.0 + 10.0 ** rng.uniform(-9.0, 1.0))
        p, q = (float(rng.choice([-1.0, 0.0, rng.uniform(-1.0, 4.0), rng.uniform(-1.0, -0.9)])) for _ in range(2))
        order = FracOrder(rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5), p, q)
        k = 1.0 if case % 2 else float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        yield case, GridSpec(Box(a, b, c, d), 5, 5), order, k


def test_constants_meet_the_closed_form_on_every_route():
    # mapping each end to s^rho/rho and subtracting refused some of these boxes and missed others by up to 1e-5
    for case, spec, order, k in _seeded_boxes():
        ref = _closed_form(spec, k, order)
        for route, (src, method) in _constant_routes(k).items():
            _assert_closed_form(katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=32), method=method), ref, (case, route))


def _linear_in_u(a: float, p: float) -> CallableSource:
    # s^rho on x (1 + log(s/a) at rho = 0, as logs: s/a leaves float64 on the widest box), which is
    # linear in u, split from h = 0 on y
    rho = p + 1.0
    g = (lambda s: np.asarray(s, dtype=np.float64) ** rho) if rho else (lambda s: 1.0 + (np.log(np.asarray(s, dtype=np.float64)) - math.log(a)))
    return CallableSource(name="linear-in-u", split=(g, lambda t: np.zeros(np.shape(t))))


# small lower limits at large weights, where lo^rho is subnormal or 0, and boxes wider than float64's
# range of ratios: the inverse map once formed lo^rho and (s - lo)/lo and put nodes off or at inf
_WIDE = [(Box(lo, 1.0, 1.0, 2.0), p) for lo in (1e-25, 2e-25, 1e-20, 1e-16) for p in (12.0, 20.0, 30.0)]
_WIDE += [(Box(1e-10, 1.0, 1.0, 2.0), 30.0), (Box(1e-300, 1e9, 1.0, 2.0), 1.0), (Box(1e-300, 1e9, 1.0, 2.0), -1.0)]


def test_a_source_linear_in_u_meets_its_closed_form_on_the_split_mesh():
    # the split mesh integrates a function linear in u exactly, so its value moves with every node the
    # inverse map places: the seeded boxes, then the wide ones, under the CLI's errstate
    cases = [(case, spec, order) for case, spec, order, _ in _seeded_boxes()]
    cases += [(box, GridSpec(box, 3, 3), FracOrder(0.5, 0.5, p, 0.0)) for box, p in _WIDE]
    for case, spec, order in cases:
        fx = linear_factors(spec.rect.a, spec.xs(), order.alpha, order.p)
        fy = axis_factors(spec.rect.c, spec.ys(), order.beta, order.q)
        ref = np.array([[float(a * b) for b in fy] for a in fx])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            gs = katugampola_2d_grid(_linear_in_u(spec.rect.a, order.p), spec, order, QuadratureSpec(panels=32), method="auto")
        _assert_closed_form(gs, ref, case)


def test_every_route_integrates_a_constant_on_wide_boxes():
    for box, p in _WIDE:
        spec, order = GridSpec(box, 3, 3), FracOrder(0.5, 0.5, p, 0.0)
        for route, (src, method) in _constant_routes(3.0).items():
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                gs = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=32), method=method)
            _assert_closed_form(gs, _closed_form(spec, 3.0, order), (box, p, route))


def _exact_map(lo: float, rho: float, s: float) -> Decimal:
    # u = (s^rho - lo^rho)/rho, log(s/lo) at rho = 0, to 50 digits
    ratio = (Decimal(s) / Decimal(lo)).ln()
    return ratio if rho == 0.0 else ((Decimal(rho) * ratio).exp() - 1) * (Decimal(rho) * Decimal(lo).ln()).exp() / Decimal(rho)


def _exact_inverse(lo: float, rho: float, u: float) -> Decimal:
    # s = lo (1 + rho u/lo^rho)^(1/rho), lo e^u at rho = 0, to 50 digits
    if rho == 0.0:
        return Decimal(lo) * Decimal(u).exp()
    r = Decimal(rho)
    return Decimal(lo) * ((1 + r * Decimal(u) / (r * Decimal(lo).ln()).exp()).ln() / r).exp()


def test_coordinate_map_and_its_inverse_meet_decimal_from_1e_300_to_1e300():
    # lower limits 1e-300..1e300 and rho up to 31, relative widths 1e-12..1e16 in half the cases and
    # up to 1e600 in the other, while s^rho stays a float: u within 1e-13 of the exact map, and each
    # node back within 8 eps (1 + kappa + |log s|) of the exact inverse of its u.  kappa = u/s^rho
    # (u at rho = 0) is the inverse's condition number, and |log s| what the rounding of 1/rho costs
    rng = np.random.default_rng(27)
    for case in range(300):
        rho = float(rng.choice([0.0, 10.0 ** rng.uniform(-12.0, 0.0), rng.uniform(0.0, 31.0)]))
        top = 300.0 / max(rho, 1.0)
        lo = 10.0 ** rng.uniform(-300.0, top - 1.0)
        hi = lo * (1.0 + 10.0 ** rng.uniform(-12.0, 16.0)) if case % 2 else 10.0 ** rng.uniform(math.log10(lo), top)
        hi = min(hi, 10.0**top)
        s = np.linspace(lo, hi, 9)
        fwd, back = fracint._power_map(rho - 1.0, lo)
        rho = (rho - 1.0) + 1.0  # the rho the map sees
        with localcontext() as ctx, np.errstate(over="raise", invalid="raise", divide="raise"):
            ctx.prec = 50
            u = fwd(s)
            again = back(u)
            assert u[0] == 0.0 and again[0] == lo, case
            for k in range(1, 9):
                exact = _exact_map(lo, rho, s[k])
                if in_float_range(exact):
                    assert abs(Decimal(u[k]) - exact) <= Decimal(1e-13) * exact, (case, k)
                exact = _exact_inverse(lo, rho, u[k])
                kappa = Decimal(u[k]) / exact ** Decimal(rho) if rho else Decimal(u[k])
                bound = 8 * Decimal(np.finfo(np.float64).eps) * (1 + kappa + abs(exact.ln()))
                assert abs(Decimal(again[k]) - exact) <= bound * exact, (case, k)


def test_every_weight_integrates_one_on_ordinary_boxes():
    # U(a) of a scalar and of an array rounded apart, so the first output's width came out
    # one ulp below 0 and its scale^order NaN: the tensor route refused 6 of these 265 pairs
    src, method = _constant_routes(1.0)["tensor"]
    for p in np.arange(-1.0, 12.001, 0.25):
        order = FracOrder(0.5, 0.5, float(p), 0.0)
        for a, b in ((0.01, 0.02), (0.3, 0.9), (1.0, 2.0), (2.0, 7.0), (7.5, 9.0)):
            spec = GridSpec(Box(a, b, 1.0, 2.0), 5, 5)
            gs = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=64), method=method)
            _assert_closed_form(gs, _closed_form(spec, 1.0, order), (float(p), a, b))


def test_large_weight_on_a_box_near_zero_keeps_its_digits():
    # s^11 is about 1e-22 here: shifted by 1, u would round to -1/11 on the whole box
    order = FracOrder(0.5, 0.5, 10.0, 0.0)
    for x in (0.0125, 0.02):
        exact = math.sqrt((x**11 - 0.01**11) / 11.0) / math.gamma(1.5) * 2.0 / math.sqrt(math.pi)
        for method in ("tensor", "auto"):
            gs = katugampola_2d_grid(ONE, GridSpec(Box(0.01, x, 1.0, 2.0), 3, 3), order, QuadratureSpec(panels=16), method=method)
            assert gs.value(2, 2) == pytest.approx(exact, rel=1e-13), (x, method)


# ---------------------------------------------------------------------------
# two-axis shared mesh: method="auto" on smooth sources without a split

SINXY = make_source("sinxy")


def _smooth(fn, name):
    return CallableSource(fn, name=name, smooth=True)


@pytest.mark.parametrize("order", [HALF, FracOrder(0.3, 1.7, 0.6, -0.4), FracOrder(2.5, 0.1, 1.0, 0.0)])
def test_auto_2d_mesh_integrates_constants_exactly(order):
    src = _smooth(lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), 2.5), "const-no-split")
    for spec in (GridSpec(BOX, 9, 9), GridSpec(BOX, 17, 5)):
        for panels in (16, 256):
            gs = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=panels), method="auto")
            for i, x in enumerate(spec.xs()):
                for j, y in enumerate(spec.ys()):
                    ref = 2.5 * integral_of_one(BOX, order, x, y)
                    assert abs(gs.value(i, j) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("order", [HALF, FracOrder(0.3, 1.7)])
def test_auto_2d_mesh_is_exact_for_xy_at_p0(order):
    # hat functions in (u, v) = (s, t) reproduce a bilinear integrand exactly;
    # the tensor route's midpoint rule does not
    spec = GridSpec(BOX, 9, 7)
    gs = katugampola_2d_grid(_smooth(lambda x, y: x * y, "xy"), spec, order, QuadratureSpec(panels=16), method="auto")
    for i, x in enumerate(spec.xs()):
        for j, y in enumerate(spec.ys()):
            ref = _axis_identity(1.0, x, order.alpha) * _axis_identity(1.0, y, order.beta)
            assert abs(gs.value(i, j) - ref) <= 1e-12 * max(abs(ref), 1e-300)


@pytest.mark.parametrize("order", [HALF, FracOrder(0.5, 0.3, 0.6, -0.4), FracOrder(0.3, 0.7, 0.6, -0.4)])
def test_auto_2d_mesh_is_second_order_on_sinxy(order):
    spec = GridSpec(BOX, 5, 5)
    vals = [katugampola_2d_grid(SINXY, spec, order, QuadratureSpec(panels=P), method="auto").values for P in (64, 128, 256, 512)]
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(vals, vals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert min(orders) >= 1.9, orders


def test_auto_2d_mesh_agrees_with_tensor_at_1024_panels():
    spec = GridSpec(BOX, 3, 3)
    order = FracOrder(0.5, 0.3, 0.6, -0.4)
    grids = {
        (method, panels): katugampola_2d_grid(SINXY, spec, order, QuadratureSpec(panels=panels), method=method).values
        for method in ("auto", "tensor")
        for panels in (512, 1024)
    }
    budget = sum(float(np.max(np.abs(grids[m, 512] - grids[m, 1024]))) for m in ("auto", "tensor"))
    gap = float(np.max(np.abs(grids["auto", 1024] - grids["tensor", 1024])))
    assert 0.0 < gap <= budget


def test_auto_2d_mesh_thread_count_never_changes_bits(monkeypatch):
    # 65^2 at 2048 panels: 17 blocks of f values; then a small block size so
    # the outputs of both passes are split as well
    spec = GridSpec(BOX, 65, 65)
    for order in (HALF, FracOrder(0.5, 0.3, 0.6, -0.4)):
        quad = QuadratureSpec(panels=2048)
        one = _grid_at(monkeypatch, 1, SINXY, spec, order, quad, method="auto")
        two = _grid_at(monkeypatch, 2, SINXY, spec, order, quad, method="auto")
        assert one.values.tobytes() == two.values.tobytes()
    monkeypatch.setattr(fracint, "_APPLY_BLOCK", 2000)
    quad = QuadratureSpec(panels=256)
    one = _grid_at(monkeypatch, 1, SINXY, GridSpec(BOX, 33, 17), HALF, quad, method="auto")
    two = _grid_at(monkeypatch, 2, SINXY, GridSpec(BOX, 33, 17), HALF, quad, method="auto")
    assert one.values.tobytes() == two.values.tobytes()


def test_auto_2d_mesh_blocks_stay_under_apply_block(monkeypatch):
    evaluated = []

    def sinxy(x, y):
        evaluated.append(np.broadcast(x, y).size)
        return np.sin(x * y)

    src = _smooth(sinxy, "sinxy-spy")
    spec = GridSpec(BOX, 33, 17)  # 16 y intervals, 16 parts each: 257 y-mesh nodes
    quad = QuadratureSpec(panels=256)
    ref = katugampola_2d_grid(src, spec, HALF, quad, method="auto")
    assert max(evaluated) <= fracint._APPLY_BLOCK
    # a block shorter than one y-mesh row: f one x node at a time, and the
    # weights cut into column chunks
    monkeypatch.setattr(fracint, "_APPLY_BLOCK", 200)
    evaluated.clear()
    small = katugampola_2d_grid(src, spec, HALF, quad, method="auto")
    assert max(evaluated) == 257
    assert sup_gap(small, ref) < 1e-13


def _weierstrass_staircase():
    # a staircase over x(x - 1/2) + W(y), W the catalog's Weierstrass sum: the seed joins
    # across the seam but is nowhere smooth in y (the catalog Weierstrass itself cannot join)
    _, w = make_source("weierstrass").xy_split()
    seed = CallableSource(lambda x, y: x * (x - 0.5) + w(y), name="weierstrass-seed", domain=Box(0.0, 0.5, 0.0, 1.0))
    return ShiftedSource(TSource(TConstruction(rect=Box(0.0, 1.0, 0.0, 1.0), phi=seed)), 1.0, 1.0)


def test_non_smooth_sources_keep_the_tensor_route_under_auto():
    quad = QuadratureSpec(panels=16)
    plain = CallableSource(lambda x, y: np.sin(x * y), name="undeclared")
    stairs = (_weierstrass_staircase(), positive_source("t:rational-indicator")[0])
    for src in (plain, *stairs):  # the staircases sit on [1, 2]^2 = BOX
        assert src.knots() is None, src.name
        auto = katugampola_2d_grid(src, GridSpec(BOX, 5, 5), HALF, quad, method="auto")
        tensor = katugampola_2d_grid(src, GridSpec(BOX, 5, 5), HALF, quad, method="tensor")
        assert auto.values.tobytes() == tensor.values.tobytes(), src.name


def _sampled_sinxy(m: int) -> SampledSource:
    return SampledSource(sample(SINXY, GridSpec(BOX, m, m)), name=f"sinxy-{m}")


def _recording_meshes(monkeypatch) -> list:
    meshes, real = [], fracint._mesh

    def record(*args, **kwargs):
        meshes.append(real(*args, **kwargs))
        return meshes[-1]

    monkeypatch.setattr(fracint, "_mesh", record)
    return meshes


def test_knotted_sources_take_the_knot_mesh_under_auto_and_keep_their_tensor_bytes(monkeypatch):
    # the tensor route ignores knots: its digests are pinned
    tparab, box = positive_source("t-parabola-sine")
    sampled = _sampled_sinxy(5)
    # at 16 panels the staircase's 25 pieces (24 edges inside the box) take 8 parts each on x, and
    # y is the plain mesh; the 4 sampled cells take 4 parts each on both axes
    cases = [
        (tparab, GridSpec(box, 9, 9), HALF, "52722d66b4415e518ad7f51d", (201, 17)),
        # re-pinned when u was anchored at each lower limit (moved by at most 3.5e-15 relative)
        (tparab, GridSpec(box, 9, 5), FracOrder(0.5, 0.3, 0.6, -0.4), "ff66ab71cd6caedd2eda8640", None),
        (sampled, GridSpec(BOX, 9, 9), HALF, "fe36c805ad614fb6e332bdcc", (17, 17)),
    ]
    quad = QuadratureSpec(panels=16)
    meshes = _recording_meshes(monkeypatch)
    for src, spec, order, digest, sizes in cases:
        tensor = katugampola_2d_grid(src, spec, order, quad, method="tensor")
        assert _digest(tensor.values) == digest
        meshes.clear()
        auto = katugampola_2d_grid(src, spec, order, quad, method="auto")
        (mx, my), (kx, ky) = meshes, src.knots()
        assert np.all(np.isin(kx, mx.s)) and np.all(np.isin(ky, my.s)) and np.array_equal(mx.s[mx.top], spec.xs())
        assert sizes in (None, (mx.s.size, my.s.size))
        # tensor's midpoint rule is first order across a kink, so at 16 panels the two differ visibly
        assert auto.values.tobytes() != tensor.values.tobytes() and sup_gap(auto, tensor) < 1e-2


def test_staircase_knot_mesh_is_second_order():
    # shifted t-parabola-sine at (2, 2): the plain mesh converged like h^0.6 there
    src, box = positive_source("t-parabola-sine")
    spec = GridSpec(box, 9, 9)
    ref = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=1024), method="auto")
    errs = [sup_gap(katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=p), method="auto"), ref) for p in (16, 32, 64, 128)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders
    # at 64 panels it beats the tensor route's graded midpoint rule
    tensor = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=64), method="tensor")
    assert errs[2] < 0.5 * sup_gap(tensor, ref)


def test_sampled_grid_integral_does_not_depend_on_panels_at_p0():
    # the mesh holds every sample node, and the hat rule is exact for the bilinear interpolant
    src = _sampled_sinxy(9)
    for spec in (GridSpec(BOX, 9, 9), GridSpec(BOX, 13, 6)):
        for order in (HALF, FracOrder(0.7, 0.3)):
            coarse = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=16), method="auto")
            fine = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=256), method="auto")
            assert sup_gap(coarse, fine) < 1e-13


def test_knot_mesh_thread_count_never_changes_bits(monkeypatch):
    tparab, box = positive_source("t-parabola-sine")
    cases = [(tparab, GridSpec(box, 33, 17)), (_sampled_sinxy(17), GridSpec(BOX, 33, 33))]
    for block in (fracint._APPLY_BLOCK, 2000):
        monkeypatch.setattr(fracint, "_APPLY_BLOCK", block)
        for src, spec in cases:
            for order in (HALF, FracOrder(0.5, 0.3, 0.6, -0.4)):
                quad = QuadratureSpec(panels=64)
                one = _grid_at(monkeypatch, 1, src, spec, order, quad, method="auto")
                two = _grid_at(monkeypatch, 2, src, spec, order, quad, method="auto")
                assert one.values.tobytes() == two.values.tobytes()


def test_quad_error_probe_on_a_knotted_source_exceeds_its_rounding_floor():
    # the knot mesh's part counts scale with panels, so the halving sees a coarser mesh
    src, box = positive_source("t-parabola-sine")
    err = quad_error_probe(src, box, HALF, QuadratureSpec(panels=64))
    fine = katugampola_2d_grid(src, GridSpec(box, 9, 9), HALF, QuadratureSpec(panels=64), method="auto")
    floor = 1e-12 * max(1.0, float(np.max(np.abs(fine.values))))
    assert 100.0 * floor < err < 1e-3


def test_quad_error_probe_on_a_fine_sampled_grid_bounds_its_error():
    # 128 cells outnumber 64 panels: the knot mesh is the grid's own nodes at 64 and at 32
    # panels, so the probe must look at a finer mesh; at p, q != 0 the rule is not exact
    src, order = _sampled_sinxy(129), FracOrder(0.5, 0.5, 0.6, -0.4)
    spec = GridSpec(BOX, 9, 9)
    grid = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=64), method="auto")
    ref = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=2048), method="auto")
    real = sup_gap(grid, ref)
    err = quad_error_probe(src, BOX, order, QuadratureSpec(panels=64))
    assert real > 1e-8 and real < err < 100.0 * real


def test_knots_near_an_output_or_each_other_are_dropped():
    his = np.linspace(1.0, 2.0, 5)
    # one knot a rounding error off an output, two a rounding error apart, one well inside a cell
    knots = [1.25 + 1e-15, 1.6, 1.6 + 1e-14, 1.9]
    s, u, counts = fracint._mesh_knots(1.0, his, 0.3, 64, knots)
    assert s.tolist() == [1.0, 1.25, 1.5, 1.6, 1.75, 1.9, 2.0]
    assert np.all(counts >= 1) and counts.size == s.size - 1
    mesh = fracint._mesh(1.0, his, 0.3, 64, knots=knots)
    assert np.all(mesh.h > 0.0) and np.all(np.isin(s, mesh.s)) and np.array_equal(mesh.s[mesh.top], his)
    # knots outside (lo, hi) or none inside leave the plain mesh, bit for bit
    plain = fracint._mesh(1.0, his, 0.3, 64)
    for outside in ((), [0.5, 1.0, 2.0, 3.0], [1.0 + 1e-17]):
        mesh = fracint._mesh(1.0, his, 0.3, 64, knots=outside)
        assert all(getattr(mesh, f).tobytes() == getattr(plain, f).tobytes() for f in ("s", "u", "h", "U", "top"))


def test_smooth_declarations_of_catalog_and_shifted_sources():
    smooth = {"constant", "plane", "sinxy", "parabola-sine", "sine-parabola"}
    for name in ("constant", "plane", "sinxy", "parabola-sine", "sine-parabola", "t-parabola-sine", "t-sine-parabola", "weierstrass", "rational-indicator"):
        src = make_source(name)
        assert src.smooth is (name in smooth), name
        assert ShiftedSource(src, 1.0, 1.0).smooth is src.smooth
    assert CallableSource(lambda x, y: x).smooth is False
    assert SampledSource(katugampola_2d_grid(SINXY, GridSpec(BOX, 3, 3), HALF)).smooth is False


# graded shared mesh: smooth sources that declare algebraic edges


def _edged(sx, sy, p=0.0, q=0.0, declare=True):
    # sin(xy) (u - A)^sx (v - C)^sy on BOX, u = x^(p+1), v = y^(q+1)
    fn = lambda x, y: np.sin(x * y) * (x ** (p + 1.0) - 1.0) ** sx * (y ** (q + 1.0) - 1.0) ** sy
    return CallableSource(fn, name="edged", smooth=True, edges=(sx, sy) if declare else None)


def _axis_u(lo, x, order, weight):
    # exact one-axis integral of u = s^(weight+1): (p+1)^-order / Gamma(order) int_A^U (U-u)^(order-1) u du
    U, A = x ** (weight + 1.0), lo ** (weight + 1.0)
    L = U - A
    return (U * L**order / order - L ** (order + 1.0) / (order + 1.0)) / math.gamma(order) / (weight + 1.0) ** order


def test_graded_mesh_holds_every_output_and_grades_toward_lo():
    his = np.linspace(1.0, 2.0, 33)
    plain = fracint._mesh(1.0, his, 0.0, 64)
    mesh = fracint._mesh(1.0, his, 0.0, 64, edge=0.5)
    grade, share = fracint._lead_in(0.5)
    assert (grade, share) == (2.0, 1.0 / 3.0)
    assert np.all(np.diff(mesh.u) > 0.0) and np.array_equal(mesh.h, np.diff(mesh.u))
    assert np.array_equal(mesh.s[mesh.top], his) and np.array_equal(mesh.u[mesh.top], mesh.U)
    assert np.array_equal(mesh.top, np.searchsorted(mesh.u, mesh.U))
    # the lead-in ends at the first output past a third of the axis (x = 1.34375,
    # 11 knot intervals, 22 equal parts) and holds twice as many intervals
    end = int(mesh.top[11])
    assert mesh.u[end] == plain.u[22] and end == 44
    assert mesh.h[0] == pytest.approx(0.34375 / 44**2, rel=0.05)
    for k in range(11):  # widths grow inside each knot interval, and change under 2x from the second on
        assert np.all(np.diff(mesh.h[mesh.top[k] : mesh.top[k + 1]]) > 0.0)
    ratio = mesh.h[2 : end + 1] / mesh.h[1:end]
    assert np.all((ratio > 0.5) & (ratio < 2.0))
    assert np.array_equal(mesh.u[end:], plain.u[22:]) and mesh.h.size == plain.h.size + 22


@pytest.mark.parametrize("edge", [None, 0.0, 1.0, 1.5, 2.0])
def test_edges_outside_the_unit_interval_keep_the_plain_mesh(edge):
    assert fracint._lead_in(edge) == (1.0, 0.0)
    for his, weight, panels in ((np.linspace(1.0, 2.0, 33), 0.0, 64), (np.linspace(1.0, 2.0, 17), 0.6, 300)):
        plain, mesh = fracint._mesh(1.0, his, weight, panels), fracint._mesh(1.0, his, weight, panels, edge)
        for field in ("s", "u", "h", "U", "top"):
            assert getattr(mesh, field).tobytes() == getattr(plain, field).tobytes()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:24]


def test_ungraded_mesh_routes_keep_their_bits():
    # digests of the meshes and grids before edges could be declared; the two at weights
    # other than 0 re-pinned when the constant moved into u (they moved by rounding, under 2e-15),
    # and again when u was anchored at lo: u and U lost their shift u(1) = 1/1.6 and then moved by
    # at most 1.4e-14, h by 5.4e-14 (rounding of u at its old size), s by 2.2e-16 (nodes past
    # t = 1 map back as (rho u (1 + 1/t))^(1/rho)) and the grid by 2.0e-15
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, 33), 0.0, 64)
    assert _digest(mesh.s, mesh.u, mesh.h, mesh.U, mesh.top) == "47403d4268bb65dee9f7789b"
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, 17), 0.6, 300)
    assert _digest(mesh.s, mesh.u, mesh.h, mesh.U, mesh.top) == "347808394b64b83013dfa77f"
    pinned = {
        ("plane", HALF): "88e50065f92d3e4d99b34244",
        ("sinxy", HALF): "08e00268aafedcb1e8a09a39",
        ("sinxy", FracOrder(0.5, 0.3, 0.6, -0.4)): "430deedeb3d1e402574f9acc",
    }
    quad = QuadratureSpec(panels=64)
    for (name, order), digest in pinned.items():
        gs = katugampola_2d_grid(make_source(name), GridSpec(BOX, 17, 9), order, quad, method="auto")
        assert _digest(gs.values) == digest, name


def test_split_grid_blocks_keep_the_whole_array_bits(monkeypatch):
    rng = np.random.default_rng(7)
    gu, su, hv, sv = rng.standard_normal(37), rng.random(37), rng.standard_normal(23), rng.random(23)
    gu[0], su[0] = -0.0, 0.0  # row 0 is -0 wherever h < 0, until + 0.0
    whole = 0.7 * (gu[:, None] * sv[None, :] + su[:, None] * hv[None, :]) + 0.0
    for block in (fracint._APPLY_BLOCK, 5 * 23, 10):  # one block, five rows a block, one row a block
        monkeypatch.setattr(fracint, "_APPLY_BLOCK", block)
        assert fracint._split_grid(0.7, gu, su, hv, sv).tobytes() == whole.tobytes(), block


def test_split_mesh_evaluates_a_shared_axis_function_once():
    calls = []

    def univ(t):
        calls.append(np.size(t))
        return np.sin(3.0 * t)

    src = ShiftedSource(CallableSource(split=(univ, univ)), 0.5, 0.5)
    spec = GridSpec(Box(1.5, 2.5, 1.5, 2.5), 9, 9)
    quad = QuadratureSpec(panels=32)
    same = katugampola_2d_grid(src, spec, HALF, quad, method="auto")
    assert len(calls) == 1  # one evaluation on the one mesh serves g and h
    calls.clear()
    katugampola_2d_grid(src, spec, FracOrder(0.5, 0.3), quad, method="auto")
    assert len(calls) == 2  # the axes differ in order: a mesh each
    # the one evaluation is the one each axis would have made alone
    twice = CallableSource(split=(univ, lambda t: univ(t)))
    apart = katugampola_2d_grid(ShiftedSource(twice, 0.5, 0.5), spec, HALF, quad, method="auto")
    assert same.values.tobytes() == apart.values.tobytes()


@pytest.mark.parametrize(
    "method, digest",
    [
        ("separable", "418c6a6c94cdeaba03c110748540b5677f2ebb856be55d26764b58f65e672716"),
        ("auto", "418c6a6c94cdeaba03c110748540b5677f2ebb856be55d26764b58f65e672716"),
    ],
)
def test_split_routes_build_one_axis_rule_for_distinct_g_and_h_on_matching_axes(monkeypatch, method, digest):
    # plane's g and h are two functions; on [1,2]^2 at equal orders the axes match
    built = {"_axis_rules": 0, "_mesh": 0}
    for name in built:
        real = getattr(fracint, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(fracint, name, counted)
    gs = katugampola_2d_grid(make_source("plane"), GridSpec(BOX, 17, 17), HALF, QuadratureSpec(panels=64), method=method)
    assert built == {"_axis_rules": 0, "_mesh": 1}
    # sha256 of the grid when each axis built its own rule
    assert hashlib.sha256(gs.values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("order", [HALF, FracOrder(0.3, 1.7, 0.6, -0.4)])
def test_graded_mesh_is_exact_for_constants_and_functions_linear_in_u(order):
    spec = GridSpec(BOX, 9, 7)
    p, q = order.p, order.q
    const = CallableSource(lambda x, y: 2.5 + 0.0 * x * y, smooth=True, edges=(0.5, 0.3))
    linear = CallableSource(lambda x, y: x ** (p + 1.0) * y ** (q + 1.0), smooth=True, edges=(0.5, 0.3))
    for panels in (16, 256):
        quad = QuadratureSpec(panels=panels)
        gc = katugampola_2d_grid(const, spec, order, quad, method="auto")
        gl = katugampola_2d_grid(linear, spec, order, quad, method="auto")
        for i, x in enumerate(spec.xs()):
            for j, y in enumerate(spec.ys()):
                ref = 2.5 * integral_of_one(BOX, order, x, y)
                assert abs(gc.value(i, j) - ref) <= 1e-12 * abs(ref)
                ref = _axis_u(1.0, x, order.alpha, p) * _axis_u(1.0, y, order.beta, q)
                assert abs(gl.value(i, j) - ref) <= 1e-12 * max(abs(ref), 1e-300)


@pytest.mark.parametrize(
    "order, edges",
    [(HALF, (0.5, 0.5)), (FracOrder(0.5, 0.3, 0.6, -0.4), (0.3, 0.7)), (FracOrder(0.3, 0.7, 0.6, -0.4), (0.1, 0.9))],
)
def test_graded_mesh_is_second_order_on_an_edge_profile(order, edges):
    spec = GridSpec(BOX, 5, 5)

    def observed(src):
        quads = [QuadratureSpec(panels=P) for P in (64, 128, 256, 512)]
        vals = [katugampola_2d_grid(src, spec, order, quad, method="auto").values for quad in quads]
        diffs = [float(np.max(np.abs(a - b))) for a, b in zip(vals, vals[1:])]
        return min(math.log2(a / b) for a, b in zip(diffs, diffs[1:]))

    assert observed(_edged(*edges, order.p, order.q)) >= 1.9
    # the same source on the plain mesh converges like h^(1 + min(edges))
    assert observed(_edged(*edges, order.p, order.q, declare=False)) < 1.0 + min(edges) + 0.1


def test_graded_mesh_thread_count_never_changes_bits(monkeypatch):
    src = _edged(0.5, 0.3, 0.6, -0.4)
    order = FracOrder(0.5, 0.3, 0.6, -0.4)
    for block in (fracint._APPLY_BLOCK, 2000):
        monkeypatch.setattr(fracint, "_APPLY_BLOCK", block)
        quad = QuadratureSpec(panels=512)
        one = _grid_at(monkeypatch, 1, src, GridSpec(BOX, 33, 17), order, quad, method="auto")
        two = _grid_at(monkeypatch, 2, src, GridSpec(BOX, 33, 17), order, quad, method="auto")
        assert one.values.tobytes() == two.values.tobytes()


def test_edge_declarations_are_checked_and_forwarded():
    src = CallableSource(lambda x, y: x, smooth=True, edges=(0.5, 1))
    assert src.edges == (0.5, 1.0)
    assert ShiftedSource(src, 1.0, 1.0).edges == (0.5, 1.0)
    assert CallableSource(lambda x, y: x).edges is None and make_source("sinxy").edges is None
    for bad in ((-0.5, 0.5), (0.5, math.nan), (math.inf, 0.5)):
        with pytest.raises(ParameterError):
            CallableSource(lambda x, y: x, edges=bad)


# ---------------------------------------------------------------------------
# algebraic properties (property-based)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_operator_is_linear(c1, c2):
    f1 = make_source("plane")
    f2 = make_source("sinxy")
    combo = CallableSource(lambda x, y: c1 * f1.eval(x, y) + c2 * f2.eval(x, y), name="combo")
    quad = QuadratureSpec(panels=24)
    v = katugampola_2d(combo, BOX, 1.8, 1.4, HALF, quad)
    v1 = katugampola_2d(f1, BOX, 1.8, 1.4, HALF, quad)
    v2 = katugampola_2d(f2, BOX, 1.8, 1.4, HALF, quad)
    assert v == pytest.approx(c1 * v1 + c2 * v2, rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 2.5), st.floats(0.3, 2.5), st.floats(1.05, 1.95), st.floats(1.05, 1.95))
def test_positive_functions_have_positive_integrals(alpha, beta, x, y):
    src = CallableSource(lambda xx, yy: np.exp(-xx * yy) + 0.1, name="pos")
    v = katugampola_2d(src, BOX, x, y, FracOrder(alpha, beta), QuadratureSpec(panels=16))
    assert v > 0.0


@settings(max_examples=15, deadline=None)
@given(st.floats(0.25, 1.75), st.floats(0.25, 1.75))
def test_monotone_in_upper_corner_for_nonnegative_f(a, b):
    # integrating a nonnegative function over a larger region never shrinks
    src = make_source("constant:2")
    quad = QuadratureSpec(panels=16)
    lo = katugampola_2d(src, BOX, 1.5, 1.5, FracOrder(a, b), quad)
    hi = katugampola_2d(src, BOX, 2.0, 2.0, FracOrder(a, b), quad)
    assert hi >= lo


def test_semigroup_composition_small():
    lhs, rhs = compose_semigroup(make_source("plane"), GridSpec(BOX, 9, 9), HALF, HALF, QuadratureSpec(panels=32))
    assert float(np.max(np.abs(lhs.values - rhs.values))) < 5e-3


def test_semigroup_outer_stage_runs_on_the_graded_mesh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("composition took the tensor route")

    monkeypatch.setattr(fracint, "_tensor", refuse)
    gaps = []
    for panels in (32, 64, 128):
        lhs, rhs = compose_semigroup(SINXY, GridSpec(BOX, 9, 9), HALF, HALF, QuadratureSpec(panels=panels))
        gaps.append(float(np.max(np.abs(lhs.values - rhs.values))))
    # second order: the plain mesh shrinks the gap only 2.8x per doubling
    assert gaps[-1] < 1e-4 and min(a / b for a, b in zip(gaps, gaps[1:])) >= 3.4, gaps


def test_semigroup_requires_shared_weights():
    with pytest.raises(ParameterError):
        compose_semigroup(
            make_source("constant:1"),
            GridSpec(BOX, 5, 5),
            FracOrder(0.5, 0.5, p=1.0),
            FracOrder(0.5, 0.5, p=0.0),
        )


# ---------------------------------------------------------------------------
# boundedness certificates


def test_certificate_for_unit_function_is_tight():
    cert = boundedness_certificate(make_source("constant:1"), GridSpec(BOX, 9, 9), HALF, QuadratureSpec(panels=64))
    assert cert.sup_abs_observed == pytest.approx(cert.bound, rel=1e-9)
    assert cert.attained_at == (2.0, 2.0)
    assert cert.margin >= -cert.tolerance


def test_certificate_needs_a_bound():
    anon = CallableSource(lambda x, y: x, name="nobound")
    with pytest.raises(ParameterError):
        boundedness_certificate(anon, GridSpec(BOX, 5, 5), HALF)
    # explicit M fills the gap
    cert = boundedness_certificate(anon, GridSpec(BOX, 5, 5), HALF, M=2.0)
    assert cert.bound == pytest.approx(2.0 * FOUR_OVER_PI, rel=1e-12)


def test_certificate_rejects_understated_bound():
    with pytest.raises(ParameterError):
        boundedness_certificate(make_source("plane"), GridSpec(BOX, 5, 5), HALF, M=1.0)  # sup is 4


def test_forged_certificate_fails_verification():
    with pytest.raises(VerificationError):
        BoundCertificate(bound=1.0, sup_abs_observed=1.5, attained_at=(2.0, 2.0), tolerance=1e-9)


def test_quad_error_probe_is_positive_and_small_for_smooth_f():
    err = quad_error_probe(make_source("sinxy"), BOX, HALF, QuadratureSpec(panels=64))
    assert 0.0 < err < 1e-2


# ---------------------------------------------------------------------------
# preconditions and failure modes


def test_operator_rejects_boxes_touching_the_axes():
    with pytest.raises(DomainError):
        katugampola_2d(make_source("constant:1"), Box(0.0, 1.0, 1.0, 2.0), 0.5, 1.5, HALF)
    with pytest.raises(DomainError):
        katugampola_2d_grid(make_source("constant:1"), GridSpec(Box(1, 2, 0, 1), 5, 5), HALF)
    with pytest.raises(DomainError, match="^lower limit must satisfy a > 0, got a=0.0$"):
        katugampola_1d(np.sin, 0.0, 1.0, 0.5)


def test_operators_refuse_a_zero_order_and_a_non_callable():
    with pytest.raises(ParameterError, match="^orders must be positive$"):
        riemann_liouville_2d(make_source("sinxy"), BOX, 1.5, 1.5, 0.0, 0.5)
    with pytest.raises(ParameterError, match="^f must be a FunctionSource or a callable$"):
        katugampola_2d(3, BOX, 1.5, 1.5, HALF)


def test_operator_rejects_uncovered_source_domain():
    src = CallableSource(lambda x, y: x, name="small", domain=Box(1, 1.5, 1, 1.5))
    with pytest.raises(DomainError):
        katugampola_2d(src, BOX, 2.0, 2.0, HALF)


def test_point_outside_rectangle_rejected():
    with pytest.raises(DomainError):
        katugampola_2d(make_source("constant:1"), BOX, 2.5, 1.5, HALF)
    with pytest.raises(DomainError):
        katugampola_1d(np.sin, 1.0, 0.5, 0.5)


def test_quadrature_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(panels=2)
    with pytest.raises(ParameterError):
        QuadratureSpec(panels=16.0)  # type: ignore[arg-type]
    assert QuadratureSpec(panels=16).graded(0.5, 2.0) == 2.0
    assert QuadratureSpec(panels=16).graded(1.0, 2.0) == 1.0


def test_tensor_panel_cap_raises_size_error():
    with pytest.raises(SizeError):
        katugampola_2d(make_source("constant:1"), BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=16384))
    with pytest.raises(SizeError):
        katugampola_2d_grid(
            make_source("constant:1"), GridSpec(BOX, 3, 3), HALF, QuadratureSpec(panels=16384), method="tensor"
        )
    # the split mesh has no such cap
    gs = katugampola_2d_grid(
        make_source("constant:1"), GridSpec(BOX, 3, 3), HALF, QuadratureSpec(panels=16384), method="separable"
    )
    assert gs.value(2, 2) == pytest.approx(FOUR_OVER_PI, rel=1e-12)


def test_non_finite_values_raise_numeric_error():
    bad = CallableSource(lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.inf), name="inf")
    with pytest.raises(NumericError):
        katugampola_2d(bad, BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=8))


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        katugampola_2d_grid(make_source("constant:1"), GridSpec(BOX, 3, 3), HALF, method="magic")


def test_sup_gap_requires_matching_specs():
    a = katugampola_2d_grid(make_source("constant:1"), GridSpec(BOX, 3, 3), HALF)
    b = katugampola_2d_grid(make_source("constant:1"), GridSpec(BOX, 5, 5), HALF)
    with pytest.raises(ParameterError):
        sup_gap(a, b)


# ---------------------------------------------------------------------------
# the grid work budget


@pytest.mark.parametrize("m", [2, 17, 1025])
@pytest.mark.parametrize("panels", [4, 300, 16384])
@pytest.mark.parametrize("edge", [None, 0.1, 0.5, 2.0])
def test_mesh_node_prediction_bounds_the_mesh(m, panels, edge):
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, m), 0.3, panels, edge)
    assert mesh.s.size <= fracint._mesh_nodes(m, panels, edge)


@pytest.mark.parametrize("m", [9, 1025])
@pytest.mark.parametrize("panels", [16, 64, 1024])
@pytest.mark.parametrize("weight", [0.0, 0.6])
def test_knot_mesh_floor_never_exceeds_the_knot_mesh(m, panels, weight):
    # the staircase's edges and a 129^2 sample grid's nodes (what csv: and json: sources declare):
    # the budget's floor, refused before any axis is built, never refuses a mesh that fits
    his = np.linspace(1.0, 2.0, m)
    for knots in (positive_source("t-parabola-sine")[0].knots()[0], _sampled_sinxy(129).knots()[0]):
        for edge in (None, 0.5):
            mesh = fracint._mesh(1.0, his, weight, panels, edge, knots)
            assert max(m, panels + 1) <= mesh.s.size


def test_knotted_grid_budget_counts_the_built_knot_mesh(monkeypatch):
    # at 64 panels the staircase's x mesh has 801 nodes for 33 outputs, far past the
    # panels + outputs of the plain mesh; the budget counts them before the 2-D pass:
    # the products of both passes, and the hat weights of the y pass (one block of f) and of the x pass
    src, box = positive_source("t-parabola-sine")
    spec = GridSpec(box, 33, 33)
    nx = fracint._mesh(box.a, spec.xs(), 0.0, 64, None, src.knots()[0]).s.size
    ny = fracint._mesh(box.c, spec.ys(), 0.0, 64).s.size
    assert nx == 801 > 4 * fracint._mesh_nodes(33, 64, None) and ny == 65
    assert fracint._f_blocks(nx, ny) == 1
    work = nx * 33 * (ny + 33) + fracint._HAT_COST * (33 * ny + 33 * nx)

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setitem(core._BUDGET, "operations", work - 1)
    monkeypatch.setattr(fracint, "_mesh_2d", refuse)
    with pytest.raises(SizeError, match="budget"):
        katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=64), method="auto")
    monkeypatch.setitem(core._BUDGET, "operations", work)
    with pytest.raises(AssertionError, match="work started"):
        katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=64), method="auto")


def test_oversized_knotted_grid_is_refused_before_any_axis_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("axis built")

    tparab, box = positive_source("t-parabola-sine")
    sources = ((tparab, box), (_sampled_sinxy(9), BOX))
    monkeypatch.setattr(GridSpec, "xs", refuse)
    monkeypatch.setattr(GridSpec, "ys", refuse)
    for src, rect in sources:
        for m, n in ((2_000_000_000, 2), (2, 2_000_000_000), (200_000, 200)):
            with pytest.raises(SizeError, match="mesh-2d route"):
                katugampola_2d_grid(src, GridSpec(rect, m, n), HALF, QuadratureSpec(panels=64), method="auto")


@pytest.mark.parametrize("method", ["separable", "auto"])
def test_split_routes_count_their_rule_and_mesh_arrays(monkeypatch, method):
    # at 10^9 panels the split mesh alone holds 8 GB: refused before it is built
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_mesh", "_axis_rules"):
        monkeypatch.setattr(fracint, name, refuse)
    with pytest.raises(SizeError, match="needs about 1e\\+09 entries"):
        katugampola_2d_grid(make_source("plane"), GridSpec(BOX, 9, 9), HALF, QuadratureSpec(panels=10**9), method=method)
    with pytest.raises(SizeError, match="one-axis rule needs about 1e\\+09 entries"):
        katugampola_1d(np.sin, 1.0, 2.0, 0.5, quad=QuadratureSpec(panels=10**9))


@pytest.mark.parametrize(
    "src, grid, panels, method",
    [
        ("sinxy", (3000, 3000), 128, "tensor"),  # m n P^2 source evaluations
        ("plane", (20000, 20000), 8, "separable"),  # the output alone is 3 GiB
        ("plane", (2, 200000), 8, "auto"),  # split mesh: 200000^2 hat weights
        ("sinxy", (200000, 200000), 8, "auto"),  # two-axis mesh: a 298 GiB G buffer
    ],
)
def test_grid_over_budget_is_refused_before_any_work(monkeypatch, src, grid, panels, method):
    def refuse(*args, **kwargs):
        raise AssertionError("work started on an over-budget grid")

    for name in ("_mesh", "_tensor"):
        monkeypatch.setattr(fracint, name, refuse)
    monkeypatch.setattr(GridSpec, "xs", refuse)
    with pytest.raises(SizeError, match="budget"):
        katugampola_2d_grid(make_source(src), GridSpec(BOX, *grid), HALF, QuadratureSpec(panels=panels), method=method)
