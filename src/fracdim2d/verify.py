"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite runs a fixed list of numeric assertions (a gap measured
against a tolerance) at one of two scales: ``quick`` for a fast
smoke-level pass, ``full`` for the tolerances the library is actually
specified to meet.  Suites report every assertion individually so a
failure names the function and the measured gap rather than just a
boolean.

Catalog functions whose default box touches the coordinate axes are
shifted into the operator's positive quadrant first; entries marked
quadrature-unsafe (the rational indicator) are excluded from integral
and dimension suites because point sampling cannot represent them, and
``run_suite`` refuses them, or a ``t:`` spec over them, as ``fn``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .boxdim import boxcount_bruteforce_3d, default_deltas, dimension_fit, oscillation_counts
from .constructions import _refuse_quadrature_unsafe, catalog_entry, catalog_names, default_box, make_source, positive_source
from .core import (
    Box,
    CallableSource,
    FracOrder,
    GridSpec,
    ParameterError,
    VerificationError,
    _row_reader,
    sample,
)
from .fracint import (
    QuadratureSpec,
    _rl_grid,
    boundedness_certificate,
    compose_semigroup,
    hadamard_2d,
    katugampola_1d,
    katugampola_2d,
    katugampola_2d_grid,
)
from .variation import arzela_variation

__all__ = ["Check", "SuiteReport", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Check:
    """One verified assertion: a measured gap against its tolerance."""

    name: str
    gap: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "gap": self.gap, "tolerance": self.tolerance, "passed": self.passed}
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    scale: str
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "scale": self.scale,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _bound_check(name: str, gap: float, tol: float, note: str = "") -> Check:
    return Check(name=name, gap=float(gap), tolerance=float(tol), passed=bool(gap <= tol), note=note)


def _window_check(name: str, value: float, lo: float, hi: float) -> Check:
    # gap measures the distance outside [lo, hi]; 0 means inside, and a NaN value fails
    return _bound_check(name, max(lo - value, value - hi, 0.0), 0.0, f"value {value:.6g} vs window [{lo:g}, {hi:g}]")


def _safe_names() -> list[str]:
    return [n for n in catalog_names() if catalog_entry(n).quadrature_safe]


def _smooth_names() -> list[str]:
    return [n for n in _safe_names() if catalog_entry(n).bounded_variation]


def suite_semigroup(scale: str = "quick", fn: str | None = None) -> SuiteReport:
    """Composed half-order operators against the direct order-one operator."""
    names = [fn] if fn else ["constant:1", "plane", "sinxy"]
    half = FracOrder(0.5, 0.5)
    checks = []
    if scale == "quick":
        grid, panel_ladder, tol = 9, (32,), 5e-3
    else:
        grid, panel_ladder, tol = 33, (32, 64, 128), 1e-3
    for name in names:
        src, box = positive_source(name)
        spec = GridSpec(box, grid, grid)
        gaps = []
        for panels in panel_ladder:
            lhs, rhs = compose_semigroup(src, spec, half, half, QuadratureSpec(panels=panels))
            gaps.append(float(np.max(np.abs(lhs.values - rhs.values))))
        checks.append(_bound_check(f"semigroup:{name}", gaps[-1], tol, f"panels={panel_ladder[-1]}"))
        if len(gaps) > 1:
            monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
            worst = max(b / a for a, b in zip(gaps, gaps[1:]))
            checks.append(
                Check(
                    name=f"semigroup-refinement:{name}",
                    gap=float(worst),
                    tolerance=1.0,
                    passed=monotone,
                    note=f"gap ratios across panels {panel_ladder}",
                )
            )
    return SuiteReport("semigroup", scale, tuple(checks))


def suite_special_cases(scale: str = "quick", fn: str | None = None) -> SuiteReport:
    """Power-weight zero against Riemann-Liouville; weights near -1 against Hadamard."""
    names = [fn] if fn else _smooth_names()
    grid, panels = (5, 48) if scale == "quick" else (17, 128)
    quad = QuadratureSpec(panels=panels)
    order = FracOrder(0.5, 0.5)
    checks = []
    for name in names:
        src, box = positive_source(name)
        spec = GridSpec(box, grid, grid)
        gk = katugampola_2d_grid(src, spec, order, quad)
        rv = _rl_grid(src, spec, 0.5, 0.5, quad)
        worst = float(np.max(np.abs(gk.matrix - rv)))
        checks.append(_bound_check(f"riemann-liouville:{name}", worst, 1e-6, f"{grid}x{grid} grid"))
    one, box1 = positive_source("constant:1")
    eps = 1e-4
    hv = hadamard_2d(one, box1, box1.b, box1.d, 0.5, 0.5, quad)
    kv = katugampola_2d(one, box1, box1.b, box1.d, FracOrder(0.5, 0.5, p=-1 + eps, q=-1 + eps), quad)
    checks.append(_bound_check("hadamard-limit:constant:1", abs(kv - hv) / abs(hv), 1e-2, f"eps={eps:g}"))
    # p = q = -1 + eps nears Hadamard like eps: the spread of gap / eps (max / min - 1) shows lost digits
    rhos = [(-1.0 + 10.0**-k) + 1.0 for k in range(2, 13)]  # eps = 1e-2 .. 1e-12 as the rules see it
    for name in ("constant:1", "sinxy", "plane"):
        src, box = positive_source(name)
        spec = GridSpec(box, 5, 5)
        had, *near = (
            katugampola_2d_grid(src, spec, FracOrder(0.5, 0.5, e - 1.0, e - 1.0), QuadratureSpec(panels=32)).values
            for e in [0.0] + rhos
        )
        rates = [float(np.max(np.abs(v - had)) / np.max(np.abs(had))) / e for v, e in zip(near, rhos)]
        spread = max(rates) / min(rates) - 1.0 if min(rates) > 0.0 else math.inf
        checks.append(_bound_check(f"hadamard-rate:{name}", spread, 0.1, f"gap/eps {rates[0]:.4g} .. {rates[-1]:.4g}"))
    return SuiteReport("special-cases", scale, tuple(checks))


_UNIVARIATE = {
    "constant:1": lambda t: np.ones(np.shape(t)),
    "identity": lambda t: np.asarray(t, dtype=np.float64) + 0.0,
    "sin": np.sin,
}


def suite_separable(scale: str = "quick", g: str | None = None) -> SuiteReport:
    """f(x,y) = g(x) with beta = 1, q = 0 against the univariate operator."""
    if g is not None and g not in _UNIVARIATE:
        raise ParameterError(f"unknown univariate g {g!r}; choose from {sorted(_UNIVARIATE)}", parameter="g")
    names = [g] if g else list(_UNIVARIATE)
    count = 10 if scale == "quick" else 50
    box = Box(1.0, 2.0, 1.0, 2.0)
    quad = QuadratureSpec(panels=64)
    rng = np.random.default_rng(20240817)
    checks = []
    for name in names:
        gf = _UNIVARIATE[name]
        f2 = CallableSource(lambda x, y, gf=gf: gf(x) + np.zeros(np.shape(y)), name=f"g:{name}")
        worst = 0.0
        for _ in range(count):
            x = box.a + box.width * rng.random()
            y = box.c + box.height * rng.random()
            v2 = katugampola_2d(f2, box, x, y, FracOrder(0.5, 1.0), quad)
            v1 = (y - box.c) * katugampola_1d(gf, box.a, x, 0.5, 0.0, quad)
            worst = max(worst, abs(v2 - v1) / max(1.0, abs(v1)))
        checks.append(_bound_check(f"separable:{name}", worst, 1e-8, f"{count} random points"))
    return SuiteReport("separable", scale, tuple(checks))


def suite_boundedness(scale: str = "quick", fn: str | None = None) -> SuiteReport:
    """Sup-norm certificates for every quadrature-safe catalog entry, each of which declares a sup bound."""
    names = [fn] if fn else _safe_names()
    grid, panels = (9, 32) if scale == "quick" else (17, 64)
    quad = QuadratureSpec(panels=panels)
    order = FracOrder(0.5, 0.5)
    checks = []
    for name in names:
        src, box = positive_source(name)
        spec = GridSpec(box, grid, grid)
        try:
            cert = boundedness_certificate(src, spec, order, quad)
        except VerificationError as exc:
            checks.append(_bound_check(f"boundedness:{name}", math.inf, 0.0, str(exc)))
            continue
        note = f"bound {cert.bound:.6g}, observed {cert.sup_abs_observed:.6g}"
        checks.append(_bound_check(f"boundedness:{name}", cert.sup_abs_observed - cert.bound, cert.tolerance, note))
    return SuiteReport("boundedness", scale, tuple(checks))


def suite_bv_preservation(scale: str = "quick", fn: str | None = None) -> SuiteReport:
    """Grid variation of integrals saturates under grid refinement."""
    if fn:
        names = [fn]
        levels = (32, 64, 128) if scale == "quick" else (64, 128, 256)
    elif scale == "quick":
        names = ["plane"]
        levels = (32, 64, 128)
    else:
        names = ["plane", "sinxy", "t-parabola-sine"]
        levels = (64, 128, 256)
    quad = QuadratureSpec(panels=48)
    order = FracOrder(0.5, 0.5)
    checks = []
    for name in names:
        src, box = positive_source(name)
        vals = []
        for level in levels:
            gi = katugampola_2d_grid(src, GridSpec(box, level, level), order, quad, method="auto")
            vals.append(arzela_variation(gi).value)
        ratio = abs(vals[-1] / vals[-2] - 1.0) if vals[-2] else abs(vals[-1] - vals[-2])
        checks.append(
            _bound_check(
                f"bv-saturation:{name}",
                ratio,
                5e-2,
                f"levels {levels}, values {['%.6g' % v for v in vals]}",
            )
        )
    return SuiteReport("bv-preservation", scale, tuple(checks))


def suite_dimension_bounds(scale: str = "quick", fn: str | None = None) -> SuiteReport:
    """Box-dimension estimates sit where the theory puts them."""
    side = 257 if scale == "quick" else 1025
    checks = []

    @functools.cache  # the named checks and the dimension-floor loop share their slopes
    def slope_of(spec_name: str) -> float:
        src = make_source(spec_name)  # before the box, so a bad spec fails as make_source says
        spec = GridSpec(default_box(spec_name), side, side)
        # rows evaluated a band at a time, as ``dimension`` counts them: the grid is never held
        return dimension_fit(_row_reader(src, spec), default_deltas(spec), "lower").slope

    if fn:
        checks.append(_window_check(f"dimension:{fn}", slope_of(fn), 1.85, 2.7))
        return SuiteReport("dimension-bounds", scale, tuple(checks))

    checks.append(_window_check("dimension:plane", slope_of("plane"), 1.9, 2.1))
    checks.append(_window_check("dimension:t-parabola-sine", slope_of("t-parabola-sine"), 1.85, 2.15))
    w_window = (2.3, 2.7) if scale == "quick" else (2.35, 2.65)
    w_raw = slope_of("weierstrass")
    checks.append(_window_check("dimension:weierstrass", w_raw, *w_window))
    holder = catalog_entry("weierstrass").holder
    checks.append(
        _bound_check(
            "dimension-holder:weierstrass",
            w_raw,
            3.0 - holder + 0.2,
            f"upper bound 3 - {holder:g} + 0.2",
        )
    )
    if scale == "full":
        wsh, box = positive_source("weierstrass")
        spec = GridSpec(box, side, side)
        gi = katugampola_2d_grid(wsh, spec, FracOrder(0.5, 0.5), QuadratureSpec(panels=16384), method="separable")
        wi = dimension_fit(gi, default_deltas(spec), "lower").slope
        checks.append(_bound_check("dimension-smoothing:weierstrass-integral", wi, min(2.7, w_raw), f"raw slope {w_raw:.4f}"))
        for name in _safe_names():
            if catalog_entry(name).continuous:
                checks.append(_window_check(f"dimension-floor:{name}", slope_of(name), 1.9, 3.0))
    return SuiteReport("dimension-bounds", scale, tuple(checks))


def suite_sandwich(scale: str = "quick", fn: str | None = None) -> SuiteReport:
    """Oscillation bounds bracket the directly counted cover on small grids."""
    names = [fn] if fn else _safe_names()
    checks = []
    for name in names:
        src, box = positive_source(name)
        spec = GridSpec(box, 65, 65)
        g = sample(src, spec)
        side = min(box.width, box.height)
        worst = 0  # how far the direct count falls outside [n_lower, n_upper]; 0 inside
        for k in (4, 8, 16, 32):
            d = side / k
            b = oscillation_counts(g, d)
            n = boxcount_bruteforce_3d(g, d)
            worst = max(worst, b.n_lower - n, n - b.n_upper)
        checks.append(_bound_check(f"sandwich:{name}", worst, 0.0, "deltas side/{4,8,16,32} on a 65x65 grid"))
    return SuiteReport("sandwich", scale, tuple(checks))


SUITES = {
    "semigroup": suite_semigroup,
    "special-cases": suite_special_cases,
    "separable": suite_separable,
    "boundedness": suite_boundedness,
    "bv-preservation": suite_bv_preservation,
    "dimension-bounds": suite_dimension_bounds,
    "sandwich": suite_sandwich,
}


def run_suite(
    name: str,
    scale: str = "quick",
    fn: str | None = None,
    g: str | None = None,
) -> SuiteReport:
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}", parameter="suite")
    if scale not in ("quick", "full"):
        raise ParameterError("scale must be quick or full", parameter="scale")
    given = {"fn": fn, "g": g}
    wrong = "fn" if name == "separable" else "g"  # separable takes g alone, every other suite fn alone
    if given.pop(wrong) is not None:
        raise ParameterError(f"suite {name!r} takes no --{wrong}", parameter=wrong)
    if fn is not None:  # every suite that takes fn integrates it or counts boxes over its samples
        _refuse_quadrature_unsafe(fn)
    return SUITES[name](scale, **given)
