import math

import numpy as np
import pytest

from fracdim2d import (
    Box,
    CallableSource,
    CatalogError,
    DomainError,
    GridSpec,
    ParameterError,
    ShiftedSource,
    SizeError,
    TConstruction,
    TSource,
    catalog_entry,
    catalog_names,
    default_box,
    make_source,
    positive_source,
    sample,
    t_eval,
)


# ---------------------------------------------------------------------------
# the staircase construction


def _seed():
    return make_source("parabola-sine")


def test_construction_validates_the_strip():
    small = CallableSource(lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))), name="z", domain=Box(0, 0.2, 0, 1))
    with pytest.raises(ParameterError):
        TConstruction(rect=Box(0, 1, 0, 1), phi=small)


def test_construction_rejects_seam_mismatch():
    # x + y takes different values on the strip edges x=0 and x=1/2
    with pytest.raises(ParameterError) as exc:
        TConstruction(rect=Box(0, 1, 0, 1), phi=make_source("plane"))
    assert "seam" in str(exc.value)


def test_first_piece_equals_the_seed():
    src = make_source("t-parabola-sine")
    seed = _seed()
    xs = np.linspace(0.0, 0.5, 21)
    ys = np.linspace(0.0, 1.0, 7)
    got = src.eval(xs[:, None], ys[None, :])
    want = seed.eval(xs[:, None], ys[None, :])
    assert np.array_equal(got, want)


def test_known_point_value():
    # x = 0.625 sits in piece 2: psi_2(0.625) = 0.25, so
    # T = phi(0.25, 1)/2 + phi(0, 1)/2 = 0.25 * (-0.25) * sin(1) / 2
    src = make_source("t-parabola-sine")
    want = 0.25 * (0.25 - 0.5) * math.sin(1.0) / 2.0
    assert src(0.625, 1.0) == pytest.approx(want, rel=1e-15)


def test_continuity_across_piece_seams():
    src = make_source("t-parabola-sine")
    y = 0.8
    for n in range(1, 10):
        edge = 1.0 - 2.0 ** -n
        left = src(edge - 1e-12, y)
        right = src(edge + 1e-12, y)
        at = src(edge, y)
        assert abs(left - at) < 1e-9 and abs(right - at) < 1e-9, n


def test_right_edge_takes_the_limit_column():
    src = make_source("t-parabola-sine")
    seed = _seed()
    ys = np.linspace(0.0, 1.0, 11)
    got = src.eval(np.ones(ys.shape), ys)
    want = seed.eval(np.zeros(ys.shape), ys)
    assert np.allclose(got, want, atol=1e-15)


def test_values_shrink_along_later_pieces():
    # the 1/k prefactor pushes piece values toward the limit column
    src = make_source("t-parabola-sine")
    y = 1.0
    # sample the middle of pieces 1, 3, 5; phi(0, y) = 0 here so |T| ~ |phi|/k
    mids = [1.0 - 1.5 * 2.0 ** -n for n in (1, 3, 5)]
    vals = [abs(src(x, y)) for x in mids]
    assert vals[0] > vals[1] > vals[2] > 0


def test_tsource_domain_and_bounds():
    src = make_source("t-parabola-sine")
    assert src.domain == Box(0, 1, 0, 1)
    assert src.sup_bound is not None
    # convex combinations of seed values: sup |T| = sup |phi| = 0.0625 sin(1)
    assert src.sup_bound(src.domain) == pytest.approx(0.0625 * math.sin(1.0), rel=1e-12)
    # a y-range that misses the construction falls back to the whole strip
    seed = make_source("parabola-sine")
    assert src.sup_bound(Box(0, 1, 5, 6)) == seed.sup_bound(Box(0, 0.5, 0, 1)) != seed.sup_bound(Box(0, 0.5, 5, 6))
    with pytest.raises(DomainError):
        src(1.5, 0.5)


def test_t_over_t_composes():
    src = make_source("t:t-parabola-sine")
    assert src.domain == Box(0, 2, 0, 1)
    assert np.isfinite(src(1.25, 0.5))


def test_staircase_knots_are_its_piece_edges_over_a_smooth_seed():
    src = make_source("t-parabola-sine")
    kx, ky = src.knots()
    assert kx.tolist() == [1.0 - 0.5**n for n in range(25)] and len(ky) == 0
    # between consecutive edges the construction is one affine copy of the seed, a quadratic in x
    # (from piece 13 on, psi's slope 2^12 and up magnifies the rounding of x past the tolerance)
    for lo, hi in zip(kx[:12], kx[1:13]):
        t = np.linspace(0.0, 1.0, 7)[1:-1]
        v = src.eval(lo + (hi - lo) * t, 0.6)
        assert np.allclose(np.polyval(np.polyfit(t, v, 2), t), v, rtol=0, atol=1e-12)
    assert make_source("t-sine-parabola").knots()[0].size == 25
    # a seed that promises nothing gives a staircase that promises nothing
    assert make_source("t:rational-indicator").knots() is None
    assert make_source("t:t-parabola-sine").knots() is None


def test_direct_t_eval_matches_source():
    tc = TConstruction(rect=Box(0, 1, 0, 1), phi=_seed())
    src = TSource(tc, name="direct")
    xs = np.linspace(0, 1, 33)
    assert np.array_equal(t_eval(tc, xs[:, None], 0.7), src.eval(xs[:, None], 0.7))


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


@pytest.mark.parametrize(
    "x, y",
    [
        (np.linspace(0, 1, 33)[:, None], np.linspace(0, 1, 17)[None, :]),
        (0.3, np.linspace(0, 1, 17)),
        (np.linspace(0, 1, 33), 0.999),
        (np.random.default_rng(1).uniform(0, 1, (9, 7)), np.random.default_rng(2).uniform(0, 1, (9, 7))),
        (np.linspace(0, 1, 6)[:, None, None], np.random.default_rng(3).uniform(0, 1, (1, 4, 6))),
        (np.linspace(0, 1, 6)[:0, None], np.linspace(0, 1, 5)[None, :]),
    ],
    ids=["column-row", "scalar-array", "array-scalar", "full-full", "tensor-route", "empty"],
)
def test_t_eval_on_input_shapes_equals_broadcast_inputs(x, y):
    tc = make_source("t-parabola-sine").tc
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    assert _bits(t_eval(tc, x, y)) == _bits(t_eval(tc, xb.copy(), yb.copy()))


def test_t_eval_checks_each_coordinate_against_the_box():
    tc = make_source("t-parabola-sine").tc
    ys = np.linspace(0, 1, 5)
    with pytest.raises(DomainError):
        t_eval(tc, np.array([[0.5], [1.5]]), ys[None, :])
    with pytest.raises(DomainError):
        t_eval(tc, 0.5, np.array([0.2, -0.2]))
    # an empty broadcast evaluates nothing, so nothing is out of the box
    assert t_eval(tc, np.array([[2.0]]), np.empty((1, 0))).shape == (1, 0)


def test_t_eval_accepts_queries_up_to_the_box_slack():
    tc = make_source("t-parabola-sine").tc
    r = tc.rect
    sx, sy = r.slack()
    assert (sx, sy) == (1e-9, 1e-9)  # the unit square: 1e-9 relative to a bound of magnitude 1
    for x, y in ((r.b + sx, 0.5), (r.a - sx, 0.5), (0.5, r.d + sy), (0.5, r.c - sy)):
        assert np.isfinite(t_eval(tc, x, y))
    for x, y in ((np.nextafter(r.b + sx, 2.0), 0.5), (np.nextafter(r.a - sx, -1.0), 0.5), (0.5, np.nextafter(r.d + sy, 2.0))):
        with pytest.raises(DomainError, match="^query outside the construction rectangle$"):
            t_eval(tc, x, y)


# ---------------------------------------------------------------------------
# catalog


def test_every_catalog_entry_builds_and_samples():
    for name in catalog_names():
        ent = catalog_entry(name)
        src = make_source(name)
        box = default_box(name)
        assert ent.box.covers(box) or box.covers(ent.box)
        gs = sample(src, GridSpec(box, 5, 5))
        assert np.all(np.isfinite(gs.values))
        if src.sup_bound is not None:
            assert np.max(np.abs(gs.values)) <= src.sup_bound(box) + 1e-12


def test_catalog_metadata_flags():
    assert catalog_entry("t-parabola-sine").bounded_variation is False
    assert catalog_entry("weierstrass").holder == 0.5
    assert catalog_entry("rational-indicator").quadrature_safe is False
    assert catalog_entry("plane").bounded_variation is True


def test_unknown_name_raises_catalog_error():
    with pytest.raises(CatalogError):
        catalog_entry("mystery")
    with pytest.raises(CatalogError):
        make_source("mystery:1,2")


def test_make_source_parameter_errors():
    with pytest.raises(ParameterError):
        make_source("")
    with pytest.raises(ParameterError):
        make_source("constant:1,2")  # too many parameters
    with pytest.raises(ParameterError):
        make_source("constant:zebra")
    with pytest.raises(ParameterError):
        make_source("t:plane")  # seam mismatch propagates


def test_parabola_sine_bound_reaches_one_where_sin_peaks():
    # [1, 2] holds pi/2, so sup |sin y| is 1 there, not max(|sin 1|, |sin 2|)
    assert make_source("parabola-sine").sup_bound(Box(0, 0.5, 1, 2)) == 0.0625


def test_a_split_source_evaluates_as_its_split():
    split = [name for name in catalog_names() if make_source(name).xy_split() is not None]
    assert split == ["constant", "plane", "sine-parabola", "weierstrass"]
    for name in [*split, "constant:-0"]:
        box = default_box(name)
        for src, at in ((make_source(name), box), (ShiftedSource(make_source(name), 1, 1), box.shifted(1, 1))):
            spec = GridSpec(at, 33, 17)
            xs, ys = spec.xs()[:, None], spec.ys()[None, :]
            g, h = src.xy_split()
            want = np.broadcast_to(g(xs) + h(ys), (33, 17))
            assert np.broadcast_to(src.eval(xs, ys), (33, 17)).tobytes() == want.tobytes(), src.name


def test_constant_accepts_level():
    assert make_source("constant:-2.5")(1.3, 1.9) == -2.5
    with pytest.raises(ParameterError):
        make_source("constant:inf")


def test_weierstrass_matches_direct_sum():
    src = make_source("weierstrass")
    lam, s, kmax = 2.0, 2.5, 12

    def direct(t):
        return sum(lam ** ((s - 3.0) * k) * math.sin(lam**k * t) for k in range(kmax + 1))

    for x, y in ((0.1, 0.9), (0.5, 0.5), (0.35, 0.62)):
        assert src(x, y) == pytest.approx(direct(x) + direct(y), rel=1e-14)


def test_weierstrass_parameter_validation():
    with pytest.raises(ParameterError):
        make_source("weierstrass:1,2.5,12")  # lam must exceed 1
    with pytest.raises(ParameterError):
        make_source("weierstrass:2,3.5,12")  # s must stay below 3
    with pytest.raises(ParameterError):
        make_source("weierstrass:2,2.5,2.5")  # kmax must be integral


def test_weierstrass_refuses_a_top_frequency_float64_cannot_phase():
    # lam^kmax up to 2^53 is accepted; one step past it is refused before any work
    assert np.isfinite(make_source("weierstrass:2,2.5,53")(0.3, 0.7))
    assert np.isfinite(make_source("weierstrass:8,2.5,17")(0.3, 0.7))  # 8^17 = 2^51
    for spec in ("weierstrass:2,2.5,54", "weierstrass:8,2.5,18", "weierstrass:1.5,2.5,91", "weierstrass:2,2.5,100000000"):
        with pytest.raises(ParameterError, match="2\\^53") as info:
            make_source(spec)
        assert info.value.parameter == "fn"
    assert np.isfinite(make_source("weierstrass:1.5,2.5,90")(0.3, 0.7))  # 1.5^90 < 2^53 < 1.5^91


def test_weierstrass_term_count_has_a_budget(monkeypatch):
    from fracdim2d import constructions, core

    def refuse(*args):
        raise AssertionError("amplitudes allocated for an over-budget kmax")

    terms = core._BUDGET["terms"]
    monkeypatch.setattr(constructions, "_weier_amps", refuse)
    for kmax in (terms, 2000000):
        with pytest.raises(SizeError, match=f"kmax={kmax} .*terms; the budget"):
            make_source(f"weierstrass:1.00001,2.5,{kmax}")
    monkeypatch.undo()
    assert np.isfinite(make_source(f"weierstrass:1.00001,2.5,{terms - 1}")(0.3, 0.7))


def test_rational_indicator_detection():
    src = make_source("rational-indicator")
    assert src(0.5, 0.25) == 0.0
    assert src(1.0 / 3.0, 0.2) == 0.0  # 1/3 rounds to a small fraction within 1e-12
    assert src(math.sqrt(2.0) - 1.0, 0.5) == 1.0
    assert src(0.5, math.pi - 3.0) == 1.0


def test_rational_indicator_per_axis_equals_the_broadcast_call():
    from fracdim2d.constructions import _is_rational

    broadcast = np.vectorize(lambda x, y: 0.0 if (_is_rational(x) and _is_rational(y)) else 1.0, otypes=[np.float64])
    src = make_source("rational-indicator")
    rng = np.random.default_rng(5)
    xs = np.concatenate([np.arange(1, 17) / 16.0, [1.0 / 3.0, math.sqrt(2.0), math.pi - 3.0], rng.uniform(1.0, 2.0, 13)])
    ys = np.concatenate([np.arange(1, 11) / 7.0, [0.1 + 0.2, 1e-13], rng.uniform(1.0, 2.0, 8)])
    for x, y in ((xs[:, None, None], ys[None, None, :]), (xs[:, None], ys[None, :]), (xs, 0.5), (0.25, ys), (0.25, 0.5)):
        got = src.eval(x, y)
        want = broadcast(x, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # both kinds of value appear, so the comparison can tell them apart
    assert set(np.unique(src.eval(xs[:, None], ys[None, :]))) == {0.0, 1.0}


# (spec, the box and shift positive_source gives it) for every catalog name, two parameterised specs, and
# t: to depth 3, with stray spaces, over each seed that builds
_SPEC_BOXES = [
    ("constant", (1, 2, 1, 2), (0, 0)),
    ("plane", (1, 2, 1, 2), (0, 0)),
    ("sinxy", (1, 2, 1, 2), (0, 0)),
    ("parabola-sine", (1, 1.5, 1, 2), (1, 1)),
    ("sine-parabola", (1, 1.5, 1, 2), (1, 1)),
    ("t-parabola-sine", (1, 2, 1, 2), (1, 1)),
    ("t-sine-parabola", (1, 2, 1, 2), (1, 1)),
    ("weierstrass", (1, 2, 1, 2), (1, 1)),
    ("rational-indicator", (1, 2, 1, 2), (1, 1)),
    ("constant:3", (1, 2, 1, 2), (0, 0)),
    ("weierstrass:2,2.3,12", (1, 2, 1, 2), (1, 1)),
    ("t:constant", (1, 3, 1, 2), (0, 0)),
    (" t: t:constant", (1, 5, 1, 2), (0, 0)),
    ("t:t: t:constant ", (1, 9, 1, 2), (0, 0)),
    ("t:parabola-sine", (1, 2, 1, 2), (1, 1)),
    (" t: t:parabola-sine", (1, 3, 1, 2), (1, 1)),
    ("t:t: t:parabola-sine ", (1, 5, 1, 2), (1, 1)),
    ("t:sine-parabola", (1, 2, 1, 2), (1, 1)),
    (" t: t:sine-parabola", (1, 3, 1, 2), (1, 1)),
    ("t:t: t:sine-parabola ", (1, 5, 1, 2), (1, 1)),
    ("t:t-parabola-sine", (1, 3, 1, 2), (1, 1)),
    (" t: t:t-parabola-sine", (1, 5, 1, 2), (1, 1)),
    ("t:t: t:t-parabola-sine ", (1, 9, 1, 2), (1, 1)),
    ("t:t-sine-parabola", (1, 3, 1, 2), (1, 1)),
    (" t: t:t-sine-parabola", (1, 5, 1, 2), (1, 1)),
    ("t:t: t:t-sine-parabola ", (1, 9, 1, 2), (1, 1)),
    ("t:rational-indicator", (1, 3, 1, 2), (1, 1)),
    (" t: t:rational-indicator", (1, 5, 1, 2), (1, 1)),
    ("t:t: t:rational-indicator ", (1, 9, 1, 2), (1, 1)),
    ("t:constant:3", (1, 3, 1, 2), (0, 0)),
    (" t: t:constant:3", (1, 5, 1, 2), (0, 0)),
    ("t:t: t:constant:3 ", (1, 9, 1, 2), (0, 0)),
]


@pytest.mark.parametrize("spec,box,shift", _SPEC_BOXES)
def test_default_box_is_the_one_box_of_a_spec(spec, box, shift):
    src = make_source(spec)
    assert src.domain in (None, default_box(spec))
    shifted, got = positive_source(spec)
    assert got == Box(*box)
    assert (getattr(shifted, "dx", 0.0), getattr(shifted, "dy", 0.0)) == shift
    assert got == default_box(spec).shifted(*shift)


def test_every_spec_that_builds_declares_a_sup_bound():
    # the boundedness suite certifies every quadrature-safe entry, so none may lack a bound; a t: spec takes its seed's
    assert set(catalog_names()) <= {spec for spec, _, _ in _SPEC_BOXES}
    for spec, _, _ in _SPEC_BOXES:
        src = make_source(spec)
        assert src.sup_bound is not None, spec
        box = default_box(spec)
        assert np.max(np.abs(sample(src, GridSpec(box, 9, 9)).values)) <= src.sup_bound(box) + 1e-12, spec


def test_default_box_shapes():
    assert default_box("plane") == Box(1, 2, 1, 2)
    assert default_box("parabola-sine") == Box(0, 0.5, 0, 1)
    assert default_box("t:parabola-sine") == Box(0, 1, 0, 1)
    assert default_box("t:t:parabola-sine") == Box(0, 2, 0, 1)
    with pytest.raises(CatalogError):
        default_box("nope")
