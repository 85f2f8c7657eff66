"""What a source may return, on every public name that takes one.

A source f(x, y), the univariate ``g`` of ``katugampola_1d`` and a staircase's seed ``phi`` may
return a bool, integer or float scalar or array that broadcasts to the query's shape; ``core``
makes it float64 of that shape.  Every call drawn below must end in a finite value or one of the
package's seven error classes.  An admitted return must give the bits of the same values returned
at the query's full shape, and a return of the wrong shape or kind must be a ParameterError naming
the argument that carried it.
"""

import time

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fracdim2d import (
    Box,
    CallableSource,
    CatalogError,
    DomainError,
    FracOrder,
    GridSpec,
    NumericError,
    ParameterError,
    QuadratureSpec,
    ResolutionError,
    ShiftedSource,
    SizeError,
    TConstruction,
    TSource,
    VerificationError,
    boundedness_certificate,
    compose_semigroup,
    hadamard_2d,
    katugampola_1d,
    katugampola_2d,
    katugampola_2d_grid,
    quad_error_probe,
    riemann_liouville_2d,
    sample,
    t_eval,
    variation_trend,
)

ERRORS = (ParameterError, DomainError, NumericError, ResolutionError, SizeError, VerificationError, CatalogError)
BOX = Box(1.0, 2.0, 1.0, 2.0)
SPEC = GridSpec(BOX, 5, 4)  # no query axis of 3 entries, so a (3,) return never broadcasts
HALF = FracOrder(0.5, 0.5)
QUAD = QuadratureSpec(8)


def _row(c):
    # a function of the first coordinate alone, equal at a staircase's seams x = 1 and x = 1.5 on BOX
    return (c[0] - 1.0) * (c[0] - 1.5) + 1.0


# the grammar of returns, each scaled by a drawn level k where it has values; the first seven are admitted
RETURNS = {
    "float": lambda k, *c: k,
    "0-d": lambda k, *c: np.array(k),
    "row": lambda k, *c: k * _row(c),
    "column": lambda k, *c: k * np.cos(c[-1]),
    "full": lambda k, *c: k * _row(c) * np.cos(c[-1]),
    "int": lambda k, *c: np.full(np.broadcast_shapes(*map(np.shape, c)), 2),
    "bool": lambda k, *c: True,
    "(3,)": lambda k, *c: np.ones(3),
    "complex": lambda k, *c: c[0] + 1j * c[-1],
    "str": lambda k, *c: "1.0",
    "None": lambda k, *c: None,
    "nan": lambda k, *c: float("nan"),
}
ADMITTED = ("float", "0-d", "row", "column", "full", "int", "bool")
LEVELS = [1.25, -0.0, -3.0, 1e300, 5e-324]


class Form:
    """A callable returning one form of the grammar, or with ``full`` its values as float64 at the query's full shape."""

    def __init__(self, kind: str, k: float, full: bool = False):
        self.kind, self.k, self.full = kind, k, full

    def __call__(self, *coords):
        v = RETURNS[self.kind](self.k, *coords)
        if self.full:
            v = np.broadcast_to(np.asarray(v, dtype=np.float64), np.broadcast_shapes(*map(np.shape, coords))).copy()
        return v


def _staircase(phi: Form) -> TConstruction:
    """A staircase built while ``phi`` returns its full form, so the drawn form reaches ``t_eval``'s own calls."""
    kind, phi.kind = phi.kind, "full"
    tc = TConstruction(BOX, phi)
    phi.kind = kind
    return tc


# each public name that takes a source, on each route it has: the argument that carries the return, and the call
CALLS = {
    "katugampola_2d": ("f", lambda f: katugampola_2d(f, BOX, 1.7, 1.9, HALF, QUAD)),
    "grid-tensor": ("f", lambda f: katugampola_2d_grid(f, SPEC, HALF, QUAD).values),
    "grid-mesh-2d": ("f", lambda f: katugampola_2d_grid(CallableSource(f, smooth=True), SPEC, HALF, QUAD, "auto").values),
    "grid-mesh-split": ("f", lambda f: katugampola_2d_grid(CallableSource(split=(f, f)), SPEC, HALF, QUAD, "separable").values),
    "grid-split-tensor": ("f", lambda f: katugampola_2d_grid(CallableSource(split=(f, f)), SPEC, HALF, QUAD).values),
    "hadamard_2d": ("f", lambda f: hadamard_2d(f, BOX, 1.7, 1.9, 0.5, 0.5, QUAD)),
    "riemann_liouville_2d": ("f", lambda f: riemann_liouville_2d(f, BOX, 1.7, 1.9, 0.5, 0.5, QUAD)),
    "katugampola_1d": ("g", lambda g: katugampola_1d(g, 1.0, 1.7, 0.5, quad=QUAD)),
    "compose_semigroup": ("f", lambda f: [gs.values for gs in compose_semigroup(f, SPEC, HALF, HALF, QUAD)]),
    "boundedness_certificate": (
        "f",
        lambda f: (lambda c: [c.bound, c.sup_abs_observed, c.tolerance])(
            boundedness_certificate(CallableSource(f, sup_bound=lambda box: 1e301), SPEC, HALF, QUAD)
        ),
    ),
    "quad_error_probe": ("f", lambda f: quad_error_probe(f, BOX, HALF, QUAD)),
    "sample": ("f", lambda f: sample(f, SPEC).values),
    "variation_trend": ("f", lambda f: [v for _, v in variation_trend(f, BOX, (4, 5))]),
    "ShiftedSource": ("f", lambda f: sample(ShiftedSource(f, 0.5, 0.5), GridSpec(BOX.shifted(0.5, 0.5), 5, 4)).values),
    "TConstruction": ("phi", lambda phi: sample(TSource(TConstruction(BOX, phi)), SPEC).values),
    # t_eval evaluates, as FunctionSource.__call__ does, and passes a NaN of phi through: sample refuses it
    "t_eval": ("phi", lambda phi: sample(lambda x, y: t_eval(_staircase(phi), x, y), SPEC).values),
    "TSource": ("phi", lambda phi: katugampola_2d_grid(TSource(_staircase(phi)), SPEC, HALF, QUAD).values),
}


def _outcome(call, form: Form):
    """("value", shape, bits) of a finite result, or (error class, parameter); any other exception escapes."""
    try:
        v = np.asarray(call(form), dtype=np.float64)
    except ERRORS as exc:
        return type(exc), getattr(exc, "parameter", None)
    assert np.all(np.isfinite(v)), v
    return "value", v.shape, v.tobytes()


def _every_pair(test):
    # each call meets each return once at the first level, before the drawn examples
    for name in CALLS:
        for kind in RETURNS:
            test = example(name=name, kind=kind, k=LEVELS[0])(test)
    return test


@settings(max_examples=150, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@_every_pair
@given(name=st.sampled_from(sorted(CALLS)), kind=st.sampled_from(sorted(RETURNS)), k=st.sampled_from(LEVELS))
def test_every_source_return_ends_in_its_full_shape_bits_or_a_documented_error(name, kind, k):
    param, call = CALLS[name]
    start = time.perf_counter()
    got = _outcome(call, Form(kind, k))
    if kind in ADMITTED:
        assert got == _outcome(call, Form(kind, k, full=True))
    elif kind != "nan":
        assert got == (ParameterError, param)
    assert time.perf_counter() - start < 1.0
