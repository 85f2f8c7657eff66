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
    sup_gap,
)
from fracdim2d import fracint

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


def test_power_weight_near_minus_one_is_refused():
    # u = s^(p+1) rounds the whole box to 1: every route must refuse, not return 0
    order = FracOrder(0.5, 0.5, -0.9999999999999999, 0.0)
    for src, method in ((make_source("sinxy"), "tensor"), (make_source("plane"), "auto"), (make_source("plane"), "separable")):
        with pytest.raises(NumericError):
            katugampola_2d_grid(src, GridSpec(BOX, 3, 3), order, QuadratureSpec(panels=8), method=method)


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


def test_non_smooth_sources_keep_the_tensor_route_under_auto():
    src, box = positive_source("t-parabola-sine")
    spec = GridSpec(box, 9, 9)
    quad = QuadratureSpec(panels=16)
    auto = katugampola_2d_grid(src, spec, HALF, quad, method="auto")
    tensor = katugampola_2d_grid(src, spec, HALF, quad, method="tensor")
    assert auto.values.tobytes() == tensor.values.tobytes()
    plain = CallableSource(lambda x, y: np.sin(x * y), name="undeclared")
    auto = katugampola_2d_grid(plain, GridSpec(BOX, 5, 5), HALF, quad, method="auto")
    tensor = katugampola_2d_grid(plain, GridSpec(BOX, 5, 5), HALF, quad, method="tensor")
    assert auto.values.tobytes() == tensor.values.tobytes()


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
    # digests of the meshes and grids before edges could be declared
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, 33), 0.0, 64)
    assert _digest(mesh.s, mesh.u, mesh.h, mesh.U, mesh.top) == "47403d4268bb65dee9f7789b"
    mesh = fracint._mesh(1.0, np.linspace(1.0, 2.0, 17), 0.6, 300)
    assert _digest(mesh.s, mesh.u, mesh.h, mesh.U, mesh.top) == "577229aefab95c4f77465d9b"
    pinned = {
        ("plane", HALF): "88e50065f92d3e4d99b34244",
        ("sinxy", HALF): "08e00268aafedcb1e8a09a39",
        ("sinxy", FracOrder(0.5, 0.3, 0.6, -0.4)): "e4d2eb0ac139506029217004",
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


def test_semigroup_rejects_foreign_inner_grid():
    with pytest.raises(ParameterError):
        compose_semigroup(
            make_source("constant:1"),
            GridSpec(BOX, 5, 5),
            HALF,
            HALF,
            inner_spec=GridSpec(Box(1, 3, 1, 3), 9, 9),
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
