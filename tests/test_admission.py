"""One admission rule per argument kind: a wrong kind is a ParameterError naming the argument.

Each row is a call that ended in a raw AttributeError, TypeError or ValueError, or in a silent
answer, before every public entry took its arguments through the rules in ``core``
(``_kind``, ``_integer``, ``_real`` and ``_as_source``) and every source's return through
``_values``.
"""

import os
import warnings

import numpy as np
import pytest

from fracdim2d import (
    Box,
    CallableSource,
    FracOrder,
    GridSamples,
    GridSpec,
    ParameterError,
    SampledSource,
    ShiftedSource,
    TConstruction,
    axis_unit_factor,
    boundedness_certificate,
    compose_semigroup,
    dimension_fit,
    catalog_entry,
    integral_of_one,
    katugampola_1d,
    katugampola_2d_grid,
    make_source,
    oscillation_counts,
    run_suite,
    sample,
    stable_sum,
    sup_gap,
    t_eval,
    variation_trend,
    write_samples_csv,
    write_samples_json,
)

BOX = Box(1.0, 2.0, 1.0, 2.0)
HALF = FracOrder(0.5, 0.5)
SPEC = GridSpec(BOX, 5, 5)


def _grid():
    return GridSamples(GridSpec(BOX, 9, 9), np.arange(81.0))


# each call, and the parameter its ParameterError names or the value it returns
CALLS = {
    "integral_of_one-array-x": (lambda: integral_of_one(BOX, HALF, np.array([1.5, 1.9]), 1.5), "x"),
    "integral_of_one-string-x": (lambda: integral_of_one(BOX, HALF, "1.5", 1.5), "x"),
    "axis_unit_factor-array-x": (lambda: axis_unit_factor(1.0, np.array([1.5, 1.9]), 0.5), "x"),
    "katugampola_1d-array-a": (lambda: katugampola_1d(np.sin, np.array([1.0, 1.2]), 1.5, 0.5), "a"),
    "grid-point-tuple-spec": (lambda: katugampola_2d_grid(make_source("sinxy"), (BOX, 1.5, 1.9), HALF), "spec"),
    "grid-int-quad": (lambda: katugampola_2d_grid(make_source("sinxy"), SPEC, HALF, 64), "quad"),
    "certificate-int-quad": (lambda: boundedness_certificate(make_source("sinxy"), SPEC, HALF, 16), "quad"),
    "grid-float-order": (lambda: katugampola_2d_grid(make_source("sinxy"), SPEC, 0.5), "order"),
    "compose-float-order": (lambda: compose_semigroup(make_source("sinxy"), SPEC, 0.5, HALF), "first"),
    "make_source-none": (lambda: make_source(None), "fn"),
    "sampled-source-matrix": (lambda: SampledSource(np.zeros((3, 3))), "samples"),
    "dimension_fit-nested-deltas": (lambda: dimension_fit(_grid(), [[0.5, 0.25]]), "deltas"),
    # lenient coercions that answered: "0.25" counted at 0.25, and level 9.5 sampled a 9 x 9 grid
    "oscillation_counts-string-delta": (lambda: oscillation_counts(_grid(), "0.25"), "delta"),
    "variation_trend-float-level": (lambda: variation_trend(make_source("sinxy"), BOX, (9.5, 17)), "levels"),
    "sup_gap-matrix": (lambda: sup_gap(_grid().matrix, _grid()), "lhs"),
    "grid-samples-none-spec": (lambda: GridSamples(None, np.zeros(4)), "spec"),
    # a plain callable is a source here as in the operators
    "sample-callable": (lambda: sample(lambda x, y: x + y, SPEC).matrix, SPEC.xs()[:, None] + SPEC.ys()[None, :]),
    "shifted-callable": (lambda: ShiftedSource(lambda x, y: x * y, 1.0, 0.5)(2.0, 1.5), 1.0),
    "katugampola_1d-int-g": (lambda: katugampola_1d(3, 1.0, 1.5, 0.5), "g"),
    "dimension_fit-float-deltas": (lambda: dimension_fit(_grid(), 0.5), "deltas"),
    "variation_trend-int-levels": (lambda: variation_trend(make_source("sinxy"), BOX, 5), "levels"),
    "write_samples_csv-none": (lambda: write_samples_csv(None, os.devnull), "gs"),
    "write_samples_json-none": (lambda: write_samples_json(None, os.devnull), "gs"),
    "t_eval-none": (lambda: t_eval(None, 1, 1), "tc"),
    "shifted-string-dx": (lambda: ShiftedSource(make_source("sinxy"), "a", 1), "dx"),
    "run_suite-list": (lambda: run_suite(["x"]), "suite"),
    "catalog_entry-list": (lambda: catalog_entry(["x"]), "fn"),
    "stable_sum-none": (lambda: stable_sum(None), "terms"),
    # what a source returns: float64 of the query's shape, or a ParameterError naming the source
    "grid-short-return": (lambda: katugampola_2d_grid(lambda x, y: np.ones(3), SPEC, HALF), "f"),
    "call-short-return": (lambda: CallableSource(lambda x, y: np.ones(3))(np.ones(5), 1.0), "f"),
    "call-scalar-return": (lambda: CallableSource(lambda x, y: 1.0)(np.ones(5), 1.0), np.ones(5)),
    "t_eval-scalar-seed": (lambda: t_eval(TConstruction(BOX, lambda x, y: 1.0), SPEC.xs()[:, None], SPEC.ys()[None, :]), np.ones((5, 5))),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_every_argument_kind_is_admitted_by_one_rule(name):
    call, want = CALLS[name]
    if not isinstance(want, str):
        assert np.array_equal(call(), want)
        return
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError and info.value.parameter == want


def test_complex_returns_are_refused_by_the_library_not_the_warning_filter():
    # ComplexWarning is a RuntimeWarning, which the test configuration makes an error; silenced,
    # x + 1j*y must still be refused, not cut to its real part
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for call in (lambda f: katugampola_2d_grid(f, SPEC, HALF).value(4, 4), lambda f: sample(f, SPEC).value(4, 4)):
            with pytest.raises(ParameterError) as info:
                call(lambda x, y: x + 1j * y)
            assert info.value.parameter == "f"
