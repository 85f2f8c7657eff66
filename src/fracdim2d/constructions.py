"""Piecewise rescaled constructions and the built-in function catalog.

The staircase construction T glues shrinking copies of a seed function
phi onto a geometric partition of [a, b].  With a_n = a + (b-a)(1 - 2^-n)
the n-th piece [a_{n-1}, a_n] carries

    T(x, y) = (1/n) phi(psi_n(x), y) + ((n-1)/n) phi(a0, y)

where psi_n maps the piece affinely onto [a0, a1] = [a, (a+b)/2]; ``t_eval``
computes psi_n inside, for every piece at once.  When
phi agrees on the seam lines x = a0 and x = a1, consecutive pieces match
and T is continuous; the 1/n amplitudes decay too slowly for the
variation to converge, so T has bounded range but unbounded variation.

The catalog collects named bivariate sources with honest metadata:
default box, continuity, bounded variation, a Holder exponent where one
is known, a sup bound usable for boundedness certificates, and whether
the function is safe to feed to quadrature and dimension pipelines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    Box,
    CallableSource,
    CatalogError,
    DomainError,
    FunctionSource,
    ParameterError,
    ShiftedSource,
    _within,
)

__all__ = [
    "TConstruction",
    "TSource",
    "t_eval",
    "CatalogEntry",
    "CATALOG",
    "catalog_names",
    "catalog_entry",
    "make_source",
    "default_box",
    "positive_source",
]

_SEAM_TOL = 1e-12
_SEAM_GRID = 257
# pieces the staircase resolves; past a_24 the value is the limit column
_DEPTH = 24


def _piece_edges(tc: "TConstruction") -> np.ndarray:
    # a_0 ... a_24 of the construction's box, a_n = a + width (1 - 2^-n); exact for binary widths
    return np.array([tc.rect.a + tc.rect.width * (1.0 - math.ldexp(1.0, -n)) for n in range(_DEPTH + 1)])


@dataclass(frozen=True)
class TConstruction:
    """Staircase construction of ``phi`` over ``rect``.

    ``phi`` must be defined on the left half-strip [a, (a+b)/2] x [c, d]
    and take the same values on its two vertical edges (checked on a
    257-point seam grid, tolerance 1e-12); otherwise the pieces cannot
    join continuously and construction fails.  The first 24 pieces are
    resolved; beyond them (and at x = b) the value is the limit column
    phi(a, y).
    """

    rect: Box
    phi: FunctionSource

    def __post_init__(self):
        if not isinstance(self.rect, Box):
            raise ParameterError("rect must be a Box", parameter="rect")
        r = self.rect
        strip = Box(r.a, self.a1, r.c, r.d)
        if not self.phi.covers(strip):
            raise ParameterError("phi must cover the left half-strip of rect", parameter="phi")
        yg = np.linspace(r.c, r.d, _SEAM_GRID)
        left = np.asarray(self.phi.eval(np.full(yg.shape, r.a), yg), dtype=np.float64)
        right = np.asarray(self.phi.eval(np.full(yg.shape, self.a1), yg), dtype=np.float64)
        gap = float(np.max(np.abs(left - right))) if yg.size else 0.0
        if not (gap <= _SEAM_TOL):
            raise ParameterError(
                f"phi differs across the seam by {gap:.3e} (tolerance {_SEAM_TOL:g}); pieces cannot join",
                parameter="phi",
            )

    @property
    def a1(self) -> float:
        return self.rect.a + 0.5 * self.rect.width


def t_eval(tc: TConstruction, x, y):
    """Evaluate the staircase construction at broadcastable coordinates.

    The piece index, psi and the 1/k weights depend on x alone and the
    limit column phi(a, y) on y alone, so each is computed on its own
    input's shape; only phi(psi, y) and the blend run at the broadcast
    shape.  Every entry equals the one computed on broadcast inputs.
    """
    r = tc.rect
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if r._outside(xv, yv):
        raise DomainError("query outside the construction rectangle")
    w = r.width
    rem = np.clip((r.b - xv) / w, 0.0, 1.0)
    tail = rem <= math.ldexp(1.0, -_DEPTH)
    with np.errstate(divide="ignore"):
        kk = np.where(tail, 1, np.floor(-np.log2(np.where(tail, 1.0, rem))).astype(np.int64) + 1)
    kk = np.clip(kk, 1, _DEPTH)
    lo = _piece_edges(tc)[kk - 1]
    psi = np.clip(r.a + np.ldexp(1.0, kk - 1) * (xv - lo), r.a, tc.a1)
    psi = np.where(tail, r.a, psi)
    kf = kk.astype(np.float64)
    base = np.asarray(tc.phi.eval(np.full(yv.shape, r.a), yv), dtype=np.float64)
    piece = np.asarray(tc.phi.eval(psi, yv), dtype=np.float64) / kf
    out = piece + ((kf - 1.0) / kf) * base
    out += 0.0  # normalize -0.0
    return float(out) if out.shape == () else out


class TSource(FunctionSource):
    """FunctionSource view of a staircase construction.

    Each piece is an affine copy of the seed in x, so over a smooth seed
    the construction is smooth between its piece edges a_0 ... a_24
    (``knots``) and along y; over any other seed it declares nothing.
    """

    def __init__(self, tc: TConstruction, name: str | None = None):
        self.tc = tc
        self.name = name if name is not None else f"t({tc.phi.name})"
        self.domain = tc.rect
        if tc.phi.sup_bound is not None:
            phi, strip_a, strip_b = tc.phi, tc.rect.a, tc.a1

            def bound(box: Box) -> float:
                yc = max(box.c, tc.rect.c)
                yd = min(box.d, tc.rect.d)
                if not (yc < yd):
                    yc, yd = tc.rect.c, tc.rect.d
                return phi.sup_bound(Box(strip_a, strip_b, yc, yd))

            self.sup_bound = bound

    def knots(self):
        return (_piece_edges(self.tc), ()) if self.tc.phi.smooth else None

    def eval(self, x, y):
        return t_eval(self.tc, x, y)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    """A named source family plus the metadata the pipelines rely on."""

    name: str
    summary: str
    box: Box
    continuous: bool
    bounded_variation: bool
    holder: float | None
    quadrature_safe: bool
    builder: Callable[..., FunctionSource]
    params: str = ""


def _parab_range(lo: float, hi: float) -> tuple[float, float]:
    # extrema of x(x - 1/2) on [lo, hi]: endpoints plus the vertex at 1/4
    vals = [lo * (lo - 0.5), hi * (hi - 0.5)]
    if lo <= 0.25 <= hi:
        vals.append(-0.0625)
    return min(vals), max(vals)


def _sup_abs_sin(lo: float, hi: float) -> float:
    # 1 whenever [lo, hi] contains an odd multiple of pi/2
    k0 = math.ceil((lo - math.pi / 2) / math.pi)
    if lo <= math.pi / 2 + k0 * math.pi <= hi:
        return 1.0
    return max(abs(math.sin(lo)), abs(math.sin(hi)))


def _constant(k: float = 1.0) -> FunctionSource:
    k = float(k)
    if not math.isfinite(k):
        raise ParameterError("constant level must be finite", parameter="k")
    return CallableSource(
        name=f"constant:{k:g}",
        split=(lambda x: np.full(np.shape(x), k), lambda y: np.full(np.shape(y), -0.0)),  # k + -0.0 is k, signed zeros too
        sup_bound=lambda box: abs(k),
        smooth=True,
    )


def _plane() -> FunctionSource:
    coord = lambda t: np.asarray(t, dtype=np.float64)
    return CallableSource(
        name="plane",
        split=(coord, coord),
        sup_bound=lambda box: max(abs(box.a + box.c), abs(box.b + box.d)),
        smooth=True,
    )


def _sinxy() -> FunctionSource:
    return CallableSource(lambda x, y: np.sin(x * y), name="sinxy", sup_bound=lambda box: 1.0, smooth=True)


def _parabola_sine() -> FunctionSource:
    return CallableSource(
        lambda x, y: x * (x - 0.5) * np.sin(y),
        name="parabola-sine",
        sup_bound=lambda box: max(map(abs, _parab_range(box.a, box.b))) * _sup_abs_sin(box.c, box.d),
        smooth=True,
    )


def _sine_parabola() -> FunctionSource:
    def bound(box: Box) -> float:
        mlo, mhi = _parab_range(box.a, box.b)
        return _sup_abs_sin(mlo, mhi)

    g = lambda x: np.sin(np.asarray(x, dtype=np.float64) * (np.asarray(x, dtype=np.float64) - 0.5))
    return CallableSource(
        name="sine-parabola",
        split=(g, lambda y: np.zeros(np.shape(y))),
        sup_bound=bound,
        smooth=True,
    )


_T_SEED_BOX = Box(0.0, 0.5, 0.0, 1.0)
_T_BOX = Box(0.0, 1.0, 0.0, 1.0)


def _weier_amps(lam: float, s: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    ks = np.arange(kmax + 1, dtype=np.float64)
    return lam**ks, lam ** ((s - 3.0) * ks)


def _weierstrass(lam: float = 2.0, s: float = 2.5, kmax: float = 12) -> FunctionSource:
    lam = float(lam)
    s = float(s)
    k = int(kmax)
    if k != kmax or k < 0:
        raise ParameterError("kmax must be a nonnegative integer", parameter="kmax")
    if not (lam > 1.0 and math.isfinite(lam)):
        raise ParameterError("lam must exceed 1", parameter="lam")
    if not (2.0 < s < 3.0):
        raise ParameterError("s must lie in (2, 3)", parameter="s")
    if k * math.log2(lam) > sys.float_info.mant_dig:  # from 2^53 on, one ulp of lam^kmax t is a third of a period
        raise ParameterError(f"kmax={k}: {lam:g}^{k} exceeds 2^53, beyond float64's phase resolution", parameter="fn")
    _within("terms", k + 1, f"weierstrass kmax={k}")
    freqs, amps = _weier_amps(lam, s, k)

    def univ(t):
        tv = np.asarray(t, dtype=np.float64)
        acc = np.zeros(tv.shape)
        for f, a in zip(freqs, amps):
            acc = acc + a * np.sin(f * tv)
        return acc

    total = 2.0 * float(np.sum(amps))
    return CallableSource(
        name=f"weierstrass:{lam:g},{s:g},{k}",
        split=(univ, univ),
        sup_bound=lambda box: total,
    )


def _is_rational(v: float) -> bool:
    fr = Fraction(v).limit_denominator(10000)
    return abs(v - fr.numerator / fr.denominator) <= 1e-12 * max(1.0, abs(v))


_rational_mask = np.vectorize(_is_rational, otypes=[bool])


def _rational_vec(x, y):
    # decided on each axis's own shape, then broadcast: entry for entry the
    # value of the test on the broadcast (x, y) pairs
    return np.where(_rational_mask(x) & _rational_mask(y), 0.0, 1.0)


def _rational_indicator() -> FunctionSource:
    return CallableSource(_rational_vec, name="rational-indicator", sup_bound=lambda box: 1.0)


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        CatalogEntry(
            name="constant",
            summary="constant level k",
            box=Box(1.0, 2.0, 1.0, 2.0),
            continuous=True,
            bounded_variation=True,
            holder=1.0,
            quadrature_safe=True,
            builder=_constant,
            params="k=1",
        ),
        CatalogEntry(
            name="plane",
            summary="x + y",
            box=Box(1.0, 2.0, 1.0, 2.0),
            continuous=True,
            bounded_variation=True,
            holder=1.0,
            quadrature_safe=True,
            builder=_plane,
        ),
        CatalogEntry(
            name="sinxy",
            summary="sin(x y)",
            box=Box(1.0, 2.0, 1.0, 2.0),
            continuous=True,
            bounded_variation=True,
            holder=1.0,
            quadrature_safe=True,
            builder=_sinxy,
        ),
        CatalogEntry(
            name="parabola-sine",
            summary="x(x - 1/2) sin y on the half strip",
            box=_T_SEED_BOX,
            continuous=True,
            bounded_variation=True,
            holder=1.0,
            quadrature_safe=True,
            builder=_parabola_sine,
        ),
        CatalogEntry(
            name="sine-parabola",
            summary="sin(x(x - 1/2)), constant in y",
            box=_T_SEED_BOX,
            continuous=True,
            bounded_variation=True,
            holder=1.0,
            quadrature_safe=True,
            builder=_sine_parabola,
        ),
        CatalogEntry(
            name="t-parabola-sine",
            summary="staircase construction over parabola-sine",
            box=_T_BOX,
            continuous=True,
            bounded_variation=False,
            holder=None,
            quadrature_safe=True,
            builder=lambda: TSource(TConstruction(rect=_T_BOX, phi=_parabola_sine()), name="t-parabola-sine"),
        ),
        CatalogEntry(
            name="t-sine-parabola",
            summary="staircase construction over sine-parabola",
            box=_T_BOX,
            continuous=True,
            bounded_variation=False,
            holder=None,
            quadrature_safe=True,
            builder=lambda: TSource(TConstruction(rect=_T_BOX, phi=_sine_parabola()), name="t-sine-parabola"),
        ),
        CatalogEntry(
            name="weierstrass",
            summary="lacunary sine sum in x plus the same in y",
            box=_T_BOX,
            continuous=True,
            bounded_variation=False,
            holder=0.5,
            quadrature_safe=True,
            builder=_weierstrass,
            params="lam=2,s=2.5,kmax=12",
        ),
        CatalogEntry(
            name="rational-indicator",
            summary="0 where both coordinates are rational, 1 otherwise",
            box=_T_BOX,
            continuous=False,
            bounded_variation=False,
            holder=None,
            quadrature_safe=False,
            builder=_rational_indicator,
        ),
    )
}


def catalog_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown catalog function {name!r}; available: {', '.join(CATALOG)}") from None


def _refuse_quadrature_unsafe(spec: str) -> None:
    """Reject a catalog spec, or the seed of a t: spec, marked quadrature-unsafe.

    The library still integrates such sources; the CLI and ``run_suite``
    refuse to report a number for them.  csv:/json: sample files pass, and
    ``make_source`` refuses an unknown name.
    """
    spec = spec.strip()
    while spec.startswith("t:"):
        spec = spec[2:].strip()
    name = spec.partition(":")[0]
    if name in CATALOG and not CATALOG[name].quadrature_safe:
        raise ParameterError(
            f"{name!r} is marked quadrature-unsafe in the catalog; its integral would not be meaningful",
            parameter="fn",
        )


def make_source(spec: str) -> FunctionSource:
    """Build a FunctionSource from a catalog spec string.

    Forms: ``name``, ``name:p1,p2,...``, and ``t:<spec>`` for a staircase
    construction over any catalog seed (the seed must agree across the
    seam, or construction fails).
    """
    spec = spec.strip()
    if not spec:
        raise ParameterError("empty function spec", parameter="fn")
    if spec.startswith("t:"):
        seed = make_source(spec[2:])  # the seed first, so its errors come before any of the box
        return TSource(TConstruction(rect=default_box(spec), phi=seed), name=spec)
    name, _, argstr = spec.partition(":")
    ent = catalog_entry(name)
    args: list[float] = []
    if argstr:
        for tok in argstr.split(","):
            try:
                args.append(float(tok))
            except ValueError:
                raise ParameterError(f"bad numeric parameter {tok!r} in {spec!r}", parameter="fn") from None
    try:
        return ent.builder(*args)
    except TypeError:
        raise ParameterError(
            f"wrong parameters for {name!r} (expected {ent.params or 'none'})", parameter="fn"
        ) from None


def default_box(spec: str) -> Box:
    """A catalog spec's box, and the domain of a ``t:`` spec's source: for ``t:``, the seed's box twice as wide."""
    spec = spec.strip()
    if spec.startswith("t:"):
        seed = default_box(spec[2:])
        return Box(seed.a, seed.a + 2.0 * seed.width, seed.c, seed.d)
    return catalog_entry(spec.partition(":")[0]).box


def positive_source(spec: str) -> tuple[FunctionSource, Box]:
    """Catalog source and its box, shifted into the operators' domain.

    An axis the box touches or crosses (a <= 0 or c <= 0) is translated so
    the box starts at 1 along it; a box already in x > 0, y > 0 stays put.
    """
    src = make_source(spec)
    box = default_box(spec)
    dx = 1.0 - box.a if box.a <= 0 else 0.0
    dy = 1.0 - box.c if box.c <= 0 else 0.0
    if dx or dy:
        src = ShiftedSource(src, dx, dy)
        box = box.shifted(dx, dy)
    return src, box
