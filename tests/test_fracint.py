import hashlib
import math

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
from fracdim2d import core, fracint, verify

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


def test_separable_route_matches_tensor():
    src = make_source("plane")  # x + y, has an additive split
    spec = GridSpec(BOX, 9, 9)
    t = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=64), method="tensor")
    s = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=64), method="separable")
    assert sup_gap(t, s) < 1e-13


def test_auto_prefers_split_and_requires_it_for_separable():
    src = CallableSource(lambda x, y: x * y, name="prod")  # no additive split
    spec = GridSpec(BOX, 5, 5)
    with pytest.raises(ParameterError):
        katugampola_2d_grid(src, spec, HALF, method="separable")
    gs = katugampola_2d_grid(src, spec, HALF, method="auto")
    assert gs.value(4, 4) != 0.0


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
    "alpha, beta, grading",
    [(0.3, 0.7, None), (0.5, 0.5, 3.0), (1.5, 2.5, None)],  # graded (orders below 1), graded by hand, uniform
)
def test_rl_grid_keeps_bits_on_a_non_square_grid(alpha, beta, grading):
    src = make_source("sinxy")
    spec = GridSpec(BOX, 5, 7)
    quad = QuadratureSpec(panels=16, grading=grading)
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

    for name in ("_tensor", "_axis_rules", "_apply_1d", "_unit_rule"):
        monkeypatch.setattr(fracint, name, refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    after = fracint._rl_grid(src, spec, 0.5, 0.5, quad)
    assert after.tobytes() == before.tobytes()
    assert riemann_liouville_2d(src, box, *spec.node(3, 2), 0.5, 0.5, quad) == after[3, 2]
    # positive control: the patches are live for the route the oracle checks
    with pytest.raises(AssertionError, match="engine"):
        katugampola_2d(src, box, *spec.node(3, 2), HALF, quad)


def test_thread_count_never_changes_grid_bits():
    src = make_source("sinxy")
    spec = GridSpec(BOX, 9, 9)
    base = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=32), threads=1)
    for k in (2, 4, 8):
        again = katugampola_2d_grid(src, spec, HALF, QuadratureSpec(panels=32), threads=k)
        assert np.array_equal(base.values, again.values)


# ---------------------------------------------------------------------------
# shared-mesh route: method="auto" on sources with an additive split

SIN_COS = CallableSource(lambda x, y: np.sin(x) + np.cos(y), name="sin+cos", split=(np.sin, np.cos))


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


def test_auto_mesh_agrees_with_separable_at_8192_panels():
    # each route's error at 8192 panels is about a third of its change from 4096
    spec = GridSpec(BOX, 5, 5)
    order = FracOrder(0.5, 0.3, 0.6, -0.4)
    grids = {
        (method, panels): katugampola_2d_grid(SIN_COS, spec, order, QuadratureSpec(panels=panels), method=method).values
        for method in ("auto", "separable")
        for panels in (4096, 8192)
    }
    budget = sum(float(np.max(np.abs(grids[m, 4096] - grids[m, 8192]))) for m in ("auto", "separable"))
    gap = float(np.max(np.abs(grids["auto", 8192] - grids["separable", 8192])))
    assert 0.0 < gap <= budget


def test_auto_mesh_thread_count_never_changes_bits():
    src, box = positive_source("weierstrass")
    spec = GridSpec(box, 65, 65)
    for order in (FracOrder(0.2, 0.2), FracOrder(0.2, 0.3, 0.5, 0.0)):
        one = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=16384), method="auto", threads=1)
        two = katugampola_2d_grid(src, spec, order, QuadratureSpec(panels=16384), method="auto", threads=2)
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
ONE = CallableSource(
    lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))),
    name="one",
    split=(lambda t: np.ones(np.shape(t)), lambda t: np.zeros(np.shape(t))),
)


def test_box_narrower_than_its_coordinates_is_refused():
    # log s rounds Box(1e6, 1e6 + 3e-10) to one float, so weights near -1 refuse it;
    # u = s^rho/rho keeps its width
    box = Box(1e6, 1e6 + 3e-10, 1.0, 2.0)
    for p, method in ((-1.0, "tensor"), (-1.0, "auto"), (-0.99, "separable")):
        with pytest.raises(NumericError, match="too narrow"):
            katugampola_2d_grid(ONE, GridSpec(box, 3, 3), FracOrder(0.5, 0.5, p, 0.0), QuadratureSpec(panels=8), method=method)
    order = FracOrder(0.5, 0.5, 2.0, 0.0)
    v = katugampola_2d(ONE, box, box.b, box.d, order, QuadratureSpec(panels=8))
    assert v > 0.0 and v == pytest.approx(integral_of_one(box, order, box.b, box.d), rel=1e-12)


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
        one = katugampola_2d_grid(SINXY, spec, order, quad, method="auto", threads=1)
        two = katugampola_2d_grid(SINXY, spec, order, quad, method="auto", threads=2)
        assert one.values.tobytes() == two.values.tobytes()
    monkeypatch.setattr(fracint, "_APPLY_BLOCK", 2000)
    quad = QuadratureSpec(panels=256)
    one = katugampola_2d_grid(SINXY, GridSpec(BOX, 33, 17), HALF, quad, method="auto", threads=1)
    two = katugampola_2d_grid(SINXY, GridSpec(BOX, 33, 17), HALF, quad, method="auto", threads=2)
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
        (tparab, GridSpec(box, 9, 5), FracOrder(0.5, 0.3, 0.6, -0.4), "9e54919f0053524e8133092c", None),
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
                one = katugampola_2d_grid(src, spec, order, quad, method="auto", threads=1)
                two = katugampola_2d_grid(src, spec, order, quad, method="auto", threads=2)
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
    # other than 0 re-pinned when the constant moved into u (they moved by rounding, under 2e-15)
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, 33), 0.0, 64)
    assert _digest(mesh.s, mesh.u, mesh.h, mesh.U, mesh.top) == "47403d4268bb65dee9f7789b"
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, 17), 0.6, 300)
    assert _digest(mesh.s, mesh.u, mesh.h, mesh.U, mesh.top) == "bf01abfc6f7b39fbbb5b6b56"
    pinned = {
        ("plane", HALF): "88e50065f92d3e4d99b34244",
        ("sinxy", HALF): "08e00268aafedcb1e8a09a39",
        ("sinxy", FracOrder(0.5, 0.3, 0.6, -0.4)): "02c8e04f2720c22a1c42f650",
    }
    quad = QuadratureSpec(panels=64)
    for (name, order), digest in pinned.items():
        gs = katugampola_2d_grid(make_source(name), GridSpec(BOX, 17, 9), order, quad, method="auto")
        assert _digest(gs.values) == digest, name


def test_separable_grids_keep_their_bits():
    # Weierstrass's split is one axis function twice: y reuses the x sums
    src, box = positive_source("weierstrass")
    pinned = {HALF: "ce11ca01b01d6fed45d3a71a", FracOrder(0.5, 0.3): "27166d9e7c1ad3fccdec58fd"}
    for order, digest in pinned.items():
        gs = katugampola_2d_grid(src, GridSpec(box, 33, 33), order, QuadratureSpec(panels=256), method="separable")
        assert _digest(gs.values) == digest


def test_separable_evaluates_a_shared_axis_function_once():
    calls = []

    def univ(t):
        calls.append(np.size(t))
        return np.sin(3.0 * t)

    src = ShiftedSource(CallableSource(lambda x, y: univ(x) + univ(y), split=(univ, univ)), 0.5, 0.5)
    spec = GridSpec(Box(1.5, 2.5, 1.5, 2.5), 9, 9)
    quad = QuadratureSpec(panels=32)
    katugampola_2d_grid(src, spec, HALF, quad, method="separable")
    assert sum(calls) == 9 * 32
    calls.clear()
    katugampola_2d_grid(src, spec, FracOrder(0.5, 0.3), quad, method="separable")
    assert sum(calls) == 2 * 9 * 32


def test_split_mesh_evaluates_a_shared_axis_function_once():
    calls = []

    def univ(t):
        calls.append(np.size(t))
        return np.sin(3.0 * t)

    src = ShiftedSource(CallableSource(lambda x, y: univ(x) + univ(y), split=(univ, univ)), 0.5, 0.5)
    spec = GridSpec(Box(1.5, 2.5, 1.5, 2.5), 9, 9)
    quad = QuadratureSpec(panels=32)
    same = katugampola_2d_grid(src, spec, HALF, quad, method="auto")
    assert len(calls) == 1  # one evaluation on the one mesh serves g and h
    calls.clear()
    katugampola_2d_grid(src, spec, FracOrder(0.5, 0.3), quad, method="auto")
    assert len(calls) == 2  # the axes differ in order: a mesh each
    # the one evaluation is the one each axis would have made alone
    twice = CallableSource(lambda x, y: univ(x) + univ(y), split=(univ, lambda t: univ(t)))
    apart = katugampola_2d_grid(ShiftedSource(twice, 0.5, 0.5), spec, HALF, quad, method="auto")
    assert same.values.tobytes() == apart.values.tobytes()


@pytest.mark.parametrize(
    "method, digest",
    [
        ("separable", "10990b6133f304c953b89e0f3c16676392fea5096b1b0ba033dd96ade43a8d64"),
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
    assert built == ({"_axis_rules": 1, "_mesh": 0} if method == "separable" else {"_axis_rules": 0, "_mesh": 1})
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
        one = katugampola_2d_grid(src, GridSpec(BOX, 33, 17), order, quad, method="auto", threads=1)
        two = katugampola_2d_grid(src, GridSpec(BOX, 33, 17), order, quad, method="auto", threads=2)
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
        QuadratureSpec(panels=16, grading=0.5)
    with pytest.raises(ParameterError):
        QuadratureSpec(panels=16.0)  # type: ignore[arg-type]
    assert QuadratureSpec(panels=16).graded(0.5, 2.0) == 2.0
    assert QuadratureSpec(panels=16).graded(1.0, 2.0) == 1.0
    assert QuadratureSpec(panels=16, grading=3.0).graded(0.5) == 3.0


def test_tensor_panel_cap_raises_size_error():
    with pytest.raises(SizeError):
        katugampola_2d(make_source("constant:1"), BOX, 2.0, 2.0, HALF, QuadratureSpec(panels=16384))
    with pytest.raises(SizeError):
        katugampola_2d_grid(
            make_source("constant:1"), GridSpec(BOX, 3, 3), HALF, QuadratureSpec(panels=16384), method="tensor"
        )
    # separable route has no such cap
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
    # panels + outputs of the plain mesh; the budget counts them before the 2-D pass
    src, box = positive_source("t-parabola-sine")
    spec = GridSpec(box, 33, 33)
    nx = fracint._mesh(box.a, spec.xs(), 0.0, 64, None, src.knots()[0]).s.size
    ny = fracint._mesh(box.c, spec.ys(), 0.0, 64).s.size
    assert nx == 801 > 4 * fracint._mesh_nodes(33, 64, None) and ny == 65
    work = nx * 33 * (ny + 33)

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
    # at 10^9 panels a separable rule row, or a split mesh, alone holds 8 GB: refused before it is built
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_mesh", "_apply_1d"):
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

    for name in ("_mesh", "_tensor", "_apply_1d"):
        monkeypatch.setattr(fracint, name, refuse)
    monkeypatch.setattr(GridSpec, "xs", refuse)
    with pytest.raises(SizeError, match="budget"):
        katugampola_2d_grid(make_source(src), GridSpec(BOX, *grid), HALF, QuadratureSpec(panels=panels), method=method)
