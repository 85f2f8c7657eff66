"""The public API's signatures, pinned.

Every callable in ``fracdim2d.__all__`` is listed with its
``inspect.signature``, so an option added to or removed from the public
API shows up here as a change to this file.  The exception types take
their constructors from the builtins and have no signature to read
(``None``).
"""

import inspect
import os
import pathlib
import subprocess
import sys

import fracdim2d
from fracdim2d import verify

SIGNATURES = {
    "Box": "(a: 'float', b: 'float', c: 'float', d: 'float') -> None",
    "Rectangle": "(a: 'float', b: 'float', c: 'float', d: 'float') -> None",
    "FracOrder": "(alpha: 'float', beta: 'float', p: 'float' = 0.0, q: 'float' = 0.0) -> None",
    "GridSpec": "(rect: 'Box', m: 'int', n: 'int') -> None",
    "GridSamples": "(spec: 'GridSpec', values: 'np.ndarray') -> None",
    "FunctionSource": '()',
    "CallableSource": (
        "(fn: 'Callable | None' = None, name: 'str' = 'callable', domain: 'Box | None' = None, "
        "split: 'tuple[Callable, Callable] | None' = None, sup_bound: 'Callable[[Box], float] | None' = None, "
        "smooth: 'bool' = False, edges: 'tuple[float, float] | None' = None)"
    ),
    "SampledSource": "(samples: 'GridSamples', name: 'str' = 'sampled')",
    "ShiftedSource": "(base: 'FunctionSource', dx: 'float', dy: 'float')",
    "sample": "(src: 'FunctionSource', spec: 'GridSpec') -> 'GridSamples'",
    "stable_sum": "(terms: 'Iterable[float] | np.ndarray') -> 'float'",
    "worker_count": "() -> 'int'",
    "read_samples_csv": "(path: 'str') -> 'GridSamples'",
    "write_samples_csv": "(gs: 'GridSamples', path: 'str') -> 'None'",
    "read_samples_json": "(path: 'str') -> 'GridSamples'",
    "write_samples_json": "(gs: 'GridSamples', path: 'str') -> 'None'",
    "DomainError": None,
    "ParameterError": "(message: 'str', parameter: 'str | None' = None)",
    "NumericError": None,
    "ResolutionError": None,
    "SizeError": None,
    "VerificationError": None,
    "CatalogError": None,
    "QuadratureSpec": "(panels: 'int' = 64) -> None",
    "katugampola_1d": (
        "(g: 'Callable', a: 'float', x: 'float', alpha: 'float', p: 'float' = 0.0, "
        "quad: 'QuadratureSpec | None' = None) -> 'float'"
    ),
    "katugampola_2d": (
        "(f, rect: 'Box', x: 'float', y: 'float', order: 'FracOrder', "
        "quad: 'QuadratureSpec | None' = None) -> 'float'"
    ),
    "katugampola_2d_grid": (
        "(f, spec: 'GridSpec', order: 'FracOrder', quad: 'QuadratureSpec | None' = None, "
        "method: 'str' = 'tensor') -> 'GridSamples'"
    ),
    "riemann_liouville_2d": (
        "(f, rect: 'Box', x: 'float', y: 'float', alpha: 'float', beta: 'float', "
        "quad: 'QuadratureSpec | None' = None) -> 'float'"
    ),
    "hadamard_2d": (
        "(f, rect: 'Rectangle', x: 'float', y: 'float', alpha: 'float', beta: 'float', "
        "quad: 'QuadratureSpec | None' = None) -> 'float'"
    ),
    "axis_unit_factor": "(lo: 'float', x: 'float', order: 'float', weight: 'float' = 0.0) -> 'float'",
    "integral_of_one": "(rect: 'Box', order: 'FracOrder', x: 'float', y: 'float') -> 'float'",
    "compose_semigroup": (
        "(f, spec: 'GridSpec', first: 'FracOrder', second: 'FracOrder', "
        "quad: 'QuadratureSpec | None' = None) -> 'tuple[GridSamples, GridSamples]'"
    ),
    "sup_gap": "(lhs: 'GridSamples', rhs: 'GridSamples') -> 'float'",
    "BoundCertificate": (
        "(bound: 'float', sup_abs_observed: 'float', attained_at: 'tuple[float, float]', "
        "tolerance: 'float') -> None"
    ),
    "boundedness_certificate": (
        "(f, spec: 'GridSpec | GridSamples', order: 'FracOrder', "
        "quad: 'QuadratureSpec | None' = None) -> 'BoundCertificate'"
    ),
    "quad_error_probe": "(f, rect: 'Box', order: 'FracOrder', quad: 'QuadratureSpec | None' = None) -> 'float'",
    "VariationResult": "(value: 'float', argpath: 'tuple[tuple[int, int], ...]') -> None",
    "arzela_variation": "(g, pinned: 'bool' = False) -> 'VariationResult'",
    "arzela_variation_bruteforce": "(g) -> 'float'",
    "variation_trend": "(src: 'FunctionSource', rect: 'Box', levels) -> 'list[tuple[int, float]]'",
    "BoxCount": "(delta: 'float', n_lower: 'int', n_upper: 'int', m: 'int', n: 'int') -> None",
    "DimensionFit": (
        "(points: 'tuple[tuple[float, int], ...]', slope: 'float', intercept: 'float', "
        "r_squared: 'float', which: 'str', dropped: 'tuple[float, ...]' = ()) -> None"
    ),
    "oscillation_counts": "(g: 'GridSamples', delta: 'float') -> 'BoxCount'",
    "boxcount_bruteforce_3d": "(g: 'GridSamples', delta: 'float') -> 'int'",
    "dimension_fit": "(g: 'GridSamples', deltas, which: 'str' = 'lower') -> 'DimensionFit'",
    "fit_loglog": "(points, which: 'str' = 'lower', dropped=()) -> 'DimensionFit'",
    "default_deltas": "(spec) -> 'list[float]'",
    "TConstruction": "(rect: 'Box', phi: 'FunctionSource') -> None",
    "TSource": "(tc: 'TConstruction', name: 'str | None' = None)",
    "t_eval": "(tc: 'TConstruction', x, y)",
    "CatalogEntry": (
        "(name: 'str', summary: 'str', box: 'Box', continuous: 'bool', bounded_variation: 'bool', "
        "holder: 'float | None', quadrature_safe: 'bool', builder: 'Callable[..., FunctionSource]', "
        "params: 'str' = '') -> None"
    ),
    "catalog_names": "() -> 'tuple[str, ...]'",
    "catalog_entry": "(name: 'str') -> 'CatalogEntry'",
    "make_source": "(spec: 'str') -> 'FunctionSource'",
    "default_box": "(spec: 'str') -> 'Box'",
    "positive_source": "(spec: 'str') -> 'tuple[FunctionSource, Box]'",
    "Check": "(name: 'str', gap: 'float', tolerance: 'float', passed: 'bool', note: 'str' = '') -> None",
    "SuiteReport": "(suite: 'str', scale: 'str', checks: 'tuple[Check, ...]' = <factory>) -> None",
    "run_suite": "(name: 'str', scale: 'str' = 'quick', fn: 'str | None' = None, g: 'str | None' = None) -> 'SuiteReport'",
}


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:  # a builtin constructor, as the exception types inherit
        return None


def test_every_public_callable_is_pinned():
    public = [name for name in fracdim2d.__all__ if callable(getattr(fracdim2d, name))]
    assert sorted(public) == sorted(SIGNATURES)


def test_public_signatures_match_the_snapshot():
    got = {name: _signature(getattr(fracdim2d, name)) for name in SIGNATURES}
    assert got == SIGNATURES


def test_importing_the_package_loads_every_module():
    # the benchmark's tracer finds the modules in sys.modules: ``import fracdim2d`` loads all
    # but the command line, which ``import fracdim2d.cli`` adds; a module nothing imports is missed
    pkg = pathlib.Path(fracdim2d.__file__).parent
    want = sorted(p.stem for p in pkg.glob("*.py") if p.stem not in ("__init__", "__main__"))
    loaded = "print(' '.join(sorted(m[10:] for m in sys.modules if m.startswith('fracdim2d.'))))"
    probe = f"import sys, fracdim2d; {loaded}; import fracdim2d.cli; {loaded}"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(pkg.parent), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    package, with_cli = (line.split() for line in res.stdout.splitlines())
    assert package == [m for m in want if m != "cli"] and with_cli == want


def test_suites_take_no_worker_count():
    # as no public callable does: the worker count is FRACDIM2D_THREADS, or --threads for one command
    for name, suite in verify.SUITES.items():
        assert list(inspect.signature(suite).parameters) in (["scale", "fn"], ["scale", "g"]), name
