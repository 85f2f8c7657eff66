"""Shared domain types, uniform-grid sampling, and accumulation primitives.

The rest of the library speaks three small data structures defined here:
closed boxes, uniform endpoint-inclusive grids over them, and row-major
sample containers.  Bivariate functions enter through ``FunctionSource``,
which wraps anything evaluatable on a box (builtin formulas, piecewise
constructions, bilinear interpolation of sampled data) behind one pure,
numpy-broadcastable ``eval``.

Determinism notes: every reduction in this package either runs through
``stable_sum`` (``math.fsum``, correctly rounded) or through numpy core
loops whose result depends only on operand values and shapes.  Thread
parallelism (every CPU by default, on one reused pool) partitions index
space into contiguous blocks that write disjoint output slots, so threaded
and sequential runs produce bit-identical arrays.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterable, NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "ParameterError",
    "NumericError",
    "ResolutionError",
    "SizeError",
    "VerificationError",
    "CatalogError",
    "Box",
    "Rectangle",
    "FracOrder",
    "GridSpec",
    "GridSamples",
    "FunctionSource",
    "CallableSource",
    "SampledSource",
    "ShiftedSource",
    "sample",
    "stable_sum",
    "worker_count",
    "write_samples_csv",
    "read_samples_csv",
    "write_samples_json",
    "read_samples_json",
]


class DomainError(ValueError):
    """A point or rectangle lies outside the region where evaluation is defined."""


class ParameterError(ValueError):
    """A numeric parameter violates its documented precondition."""

    def __init__(self, message: str, parameter: str | None = None):
        super().__init__(message)
        self.parameter = parameter


class NumericError(ArithmeticError):
    """A computation produced or consumed a non-finite value."""


class ResolutionError(RuntimeError):
    """Grid too coarse (or mesh size out of range) for the requested quantity."""


class SizeError(RuntimeError):
    """Input too large: a predicted need over its ``_BUDGET`` entry, refused by ``_within`` before allocating."""


class VerificationError(RuntimeError):
    """A certified inequality or named verification check failed."""


class CatalogError(KeyError):
    """Unknown catalog entry or malformed catalog parameters."""

    def __str__(self) -> str:  # KeyError wraps its message in quotes
        return self.args[0] if self.args else ""


# ---------------------------------------------------------------------------
# argument admission: one rule per argument kind, each a ParameterError naming the argument


def _kind(value, cls: type, name: str):
    """``value`` when it is a ``cls``: a Box, GridSpec, GridSamples, FracOrder, QuadratureSpec, string, callable or iterable."""
    if not isinstance(value, cls):
        raise ParameterError(f"{name} must be {'an' if cls.__name__[0] in 'AEIOU' else 'a'} {cls.__name__}", parameter=name)
    return value


def _integer(value, name: str) -> int:
    """``value`` as an int when it is a Python or numpy integer, not a bool: the rule of every count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer", parameter=name)
    return int(value)


def _real(v, name: str):
    """``v`` when it is a real scalar (a Python or numpy int or float, or a 0-d array of one): every coordinate and scalar order."""
    if not (isinstance(v, (int, float, np.generic, np.ndarray)) and np.ndim(v) == 0 and np.asarray(v).dtype.kind in "iuf"):
        raise ParameterError(f"{name} must be a real scalar, got {type(v).__name__}", parameter=name)
    return v


def _as_source(f, name: str = "f") -> FunctionSource:
    """``f`` as a FunctionSource: a plain callable f(x, y) is a source wherever one is taken."""
    if isinstance(f, FunctionSource):
        return f
    if callable(f):
        return CallableSource(f, name=getattr(f, "__name__", "callable"))
    raise ParameterError(f"{name} must be a FunctionSource or a callable", parameter=name)


def _values(fn: Callable, name: str, *coords) -> np.ndarray:
    """``fn(*coords)`` as float64 of the coordinates' broadcast shape: the one rule of what a source returns.

    A bool, integer or float return of that shape is returned as itself once float64; one that
    broadcasts to it is copied out at full shape, so every form gives the full-shape return's bits.
    Any other return is a ParameterError naming ``name``.  Values are not read: a NaN or inf is left
    to the NumericError of the route that consumes them.
    """
    shape = np.broadcast(*coords).shape
    got = fn(*coords)
    try:
        v = np.asarray(got)
        if v.dtype.kind in "biuf":
            v = v.astype(np.float64, copy=False)
            return v if v.shape == shape else np.broadcast_to(v, shape).copy()
    except ValueError:  # a ragged sequence, or a shape that does not broadcast
        pass
    what = f"{got.dtype} array of shape {got.shape}" if isinstance(got, np.ndarray) else type(got).__name__
    raise ParameterError(f"{name} must return real numbers that broadcast to the query's shape {shape}, got {what}", parameter=name)


# ---------------------------------------------------------------------------
# domains

# relative slack of every box-membership test (``Box.slack``)
_BOX_SLACK = 1e-9


def _finite_fields(obj, label: str = "") -> None:
    """Coerce every field of a frozen dataclass to a finite float; ParameterError names the first that is not."""
    for f in fields(obj):
        try:
            v = float(getattr(obj, f.name))
        except (TypeError, ValueError):
            raise ParameterError(f"{label}{f.name} must be a real number", parameter=f.name)
        if not math.isfinite(v):
            raise ParameterError(f"{label}{f.name} must be finite", parameter=f.name)
        object.__setattr__(obj, f.name, v)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned rectangle [a, b] x [c, d] with a < b and c < d."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _finite_fields(self, "box coordinate ")
        if not self.a < self.b:
            raise ParameterError(f"box requires a < b, got a={self.a}, b={self.b}", parameter="b")
        if not self.c < self.d:
            raise ParameterError(f"box requires c < d, got c={self.c}, d={self.d}", parameter="d")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def height(self) -> float:
        return self.d - self.c

    def slack(self) -> tuple[float, float]:
        """How far past its bounds an (x, y) coordinate may fall and still count as inside: ``covers`` and ``_clip`` read it."""
        return _BOX_SLACK * max(1.0, abs(self.a), abs(self.b)), _BOX_SLACK * max(1.0, abs(self.c), abs(self.d))

    def covers(self, other: "Box") -> bool:
        """True when ``other`` sits inside this box, up to ``slack``."""
        sx, sy = self.slack()
        return (
            other.a >= self.a - sx
            and other.b <= self.b + sx
            and other.c >= self.c - sy
            and other.d <= self.d + sy
        )

    def _clip(self, x, y, refusal: str) -> tuple[np.ndarray, np.ndarray]:
        """The one rule of every point query: (x, y) as float64 arrays clipped into this box.

        ``DomainError(refusal)`` when a coordinate, NaN included, is not within ``slack``; an empty query never is.
        """
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        sx, sy = self.slack()
        # written so that NaN, which fails every comparison, fails the test
        if x.size and y.size and not (
            x.min() >= self.a - sx and x.max() <= self.b + sx and y.min() >= self.c - sy and y.max() <= self.d + sy
        ):
            raise DomainError(refusal)
        return np.clip(x, self.a, self.b), np.clip(y, self.c, self.d)

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.a + dx, self.b + dx, self.c + dy, self.d + dy)

    def __str__(self) -> str:
        return f"[{self.a:g},{self.b:g}]x[{self.c:g},{self.d:g}]"


@dataclass(frozen=True)
class Rectangle(Box):
    """Operator domain: a box that additionally satisfies 0 < a and 0 < c.

    The fractional-integral kernels involve powers and logarithms of the
    coordinates, so the operators only accept rectangles bounded away from
    the axes.  Constructions and plain sampling work on any ``Box``.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.a <= 0.0:
            raise ParameterError(f"rectangle requires a > 0, got a={self.a}", parameter="a")
        if self.c <= 0.0:
            raise ParameterError(f"rectangle requires c > 0, got c={self.c}", parameter="c")


@dataclass(frozen=True)
class FracOrder:
    """Fractional orders (alpha, beta) and power weights (p, q).

    Requires alpha > 0, beta > 0 and p, q >= -1.  A weight of -1 is the
    Hadamard member of the family, the limit p -> -1 of its axis's kernel.
    """

    alpha: float
    beta: float
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        _finite_fields(self)
        if self.alpha <= 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}", parameter="alpha")
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be positive, got {self.beta}", parameter="beta")
        if self.p < -1.0:
            raise ParameterError(f"p must be at least -1, got {self.p}", parameter="p")
        if self.q < -1.0:
            raise ParameterError(f"q must be at least -1, got {self.q}", parameter="q")


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Uniform, endpoint-inclusive grid over a box.

    Node (i, j) sits at (a + i*(b-a)/(m-1), c + j*(d-c)/(n-1)); both
    endpoints are grid nodes.
    """

    rect: Box
    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 2 or self.n < 2:
            raise ParameterError(f"grid needs at least 2 nodes per axis, got {self.m}x{self.n}", parameter="m")
        _kind(self.rect, Box, "rect")

    def xs(self) -> np.ndarray:
        return np.linspace(self.rect.a, self.rect.b, self.m)

    def ys(self) -> np.ndarray:
        return np.linspace(self.rect.c, self.rect.d, self.n)

    @property
    def hx(self) -> float:
        return self.rect.width / (self.m - 1)

    @property
    def hy(self) -> float:
        return self.rect.height / (self.n - 1)

    def node(self, i: int, j: int) -> tuple[float, float]:
        return float(self.xs()[i]), float(self.ys()[j])


@dataclass(frozen=True, eq=False)
class GridSamples:
    """Row-major (x-index major) samples on a ``GridSpec``.

    ``values[i*n + j]`` is the sample at node (i, j).  Values are float64,
    finite, and frozen after construction.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        _kind(self.spec, GridSpec, "spec")
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        want = self.spec.m * self.spec.n
        if v.size != want:
            raise ParameterError(f"expected {want} values for a {self.spec.m}x{self.spec.n} grid, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise NumericError("grid samples must be finite")
        v = np.array(v, copy=True)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, spec: GridSpec, values: np.ndarray) -> "GridSamples":
        """Samples that keep ``values``, a fresh float64 array of m*n entries no one else holds.

        The caller has checked it finite; it is frozen as the constructor does, but not copied.
        """
        v = values.reshape(-1)
        v.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "spec", spec)
        object.__setattr__(obj, "values", v)
        return obj

    @property
    def matrix(self) -> np.ndarray:
        """(m, n) read-only view, first axis indexes x."""
        return self.values.reshape(self.spec.m, self.spec.n)

    def value(self, i: int, j: int) -> float:
        return float(self.values[i * self.spec.n + j])


# ---------------------------------------------------------------------------
# function sources


class FunctionSource:
    """A pure bivariate function on a declared closed box.

    ``eval(x, y)`` must accept scalars or broadcastable numpy arrays and be
    point-wise pure (same floats in, same floats out, no state).  It returns
    bool, integer or float numbers that broadcast to the query's shape, which
    ``__call__`` and every route take as float64 of that shape (``_values``);
    any other return is a ParameterError naming the source (``f``, or ``g``,
    ``phi``).  A NaN or inf is not refused there: the operators and
    ``sample`` refuse it with a NumericError, and ``__call__`` returns it.
    ``domain`` is the box where evaluation is defined; ``None`` means
    unrestricted.
    ``xy_split()`` optionally exposes an additive split f(x, y) = g(x) + h(y)
    used by the split shared mesh; sources without one return ``None``.
    A source with a split is defined by it: ``eval`` must be g(x) + h(y).
    ``smooth`` declares f twice continuously differentiable on its domain,
    so a product-trapezoid rule on f is second order; like the split it is
    a promise the source makes, not something checked.  ``edges`` =
    (sigma_x, sigma_y) weakens that promise to f = g (x - a)^sigma_x
    (y - c)^sigma_y with g twice continuously differentiable and (a, c)
    the lower-left corner of the box the source is integrated over (the
    lower limits); the shared mesh then grades toward that corner.
    ``knots()`` declares per-axis breakpoints (xs, ys) between which f is
    twice continuously differentiable, the promise ``smooth`` makes with
    none; the shared mesh then holds every breakpoint as a node.
    """

    name: str = "source"
    domain: Box | None = None
    sup_bound: Callable[[Box], float] | None = None
    smooth: bool = False
    edges: tuple[float, float] | None = None

    def eval(self, x, y):
        raise NotImplementedError

    def __call__(self, x, y):
        out = _values(self.eval, "f", x, y)
        return float(out) if out.shape == () else out

    def xy_split(self) -> tuple[Callable, Callable] | None:
        return None

    def knots(self) -> tuple[np.ndarray | tuple, np.ndarray | tuple] | None:
        """Breakpoints (xs, ys) between which f is twice continuously differentiable, or None.

        A smooth source has none, ((), ()); a source that declares nothing returns None.
        """
        return ((), ()) if self.smooth else None

    def covers(self, rect: Box) -> bool:
        return self.domain is None or self.domain.covers(rect)


class CallableSource(FunctionSource):
    """FunctionSource over a plain numpy-broadcastable callable ``fn``, or over a split.

    ``split=(g, h)`` defines the source f(x, y) = g(x) + h(y): ``eval`` sums the two, so the
    tensor route and the split mesh read one function.  Give exactly one of ``fn`` and ``split``.
    """

    def __init__(
        self,
        fn: Callable | None = None,
        name: str = "callable",
        domain: Box | None = None,
        split: tuple[Callable, Callable] | None = None,
        sup_bound: Callable[[Box], float] | None = None,
        smooth: bool = False,
        edges: tuple[float, float] | None = None,
    ):
        if (fn is None) == (split is None):
            raise ParameterError("give exactly one of fn and split", parameter="fn")
        if split is not None:
            g, h = split
            fn = lambda x, y: _values(g, "f", x) + _values(h, "f", y)
        self._fn = fn
        self.name = name
        self.domain = domain
        self._split = split
        self.sup_bound = sup_bound
        self.smooth = bool(smooth)
        if edges is not None:
            edges = (float(edges[0]), float(edges[1]))
            if not all(math.isfinite(e) and e >= 0.0 for e in edges):
                raise ParameterError(f"edge exponents must be finite and >= 0, got {edges}", parameter="edges")
        self.edges = edges

    def eval(self, x, y):
        return self._fn(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))

    def xy_split(self):
        return self._split


class SampledSource(FunctionSource):
    """Bilinear interpolation of grid samples.

    Exact at the grid nodes: querying a node coordinate reproduces the
    stored sample bit for bit.  Queries follow ``Box._clip`` of the grid's
    box, the one point-query rule.  The interpolant is bilinear on every
    grid cell, so its knots are the grid nodes.
    """

    def __init__(self, samples: GridSamples, name: str = "sampled"):
        self.samples = _kind(samples, GridSamples, "samples")
        self.name = name
        self.domain = samples.spec.rect
        self._xs = samples.spec.xs()
        self._ys = samples.spec.ys()

    def knots(self):
        return self._xs, self._ys

    def eval(self, x, y):
        # cells and offsets on each axis's own shape; only the blend runs at the broadcast shape
        xf, yf = self.domain._clip(x, y, "query outside the sampled box")
        shape = np.broadcast_shapes(xf.shape, yf.shape)
        m, n = self.samples.spec.m, self.samples.spec.n
        i = np.clip(np.searchsorted(self._xs, xf, side="right") - 1, 0, m - 2)
        j = np.clip(np.searchsorted(self._ys, yf, side="right") - 1, 0, n - 2)
        fx = (xf - self._xs[i]) / (self._xs[i + 1] - self._xs[i])
        fy = (yf - self._ys[j]) / (self._ys[j + 1] - self._ys[j])
        v = self.samples.matrix
        out = (
            (1.0 - fx) * (1.0 - fy) * v[i, j]
            + fx * (1.0 - fy) * v[i + 1, j]
            + (1.0 - fx) * fy * v[i, j + 1]
            + fx * fy * v[i + 1, j + 1]
        )
        return np.asarray(out).reshape(shape)


class ShiftedSource(FunctionSource):
    """Translate a source: eval(x, y) = base(x - dx, y - dy)."""

    def __init__(self, base: FunctionSource, dx: float, dy: float):
        self.base = base = _as_source(base, "base")
        self.dx = float(_real(dx, "dx"))
        self.dy = float(_real(dy, "dy"))
        self.name = f"{base.name}@shift({self.dx:g},{self.dy:g})"
        self.domain = None if base.domain is None else base.domain.shifted(self.dx, self.dy)
        self.smooth = base.smooth
        self.edges = base.edges
        if base.sup_bound is not None:
            self.sup_bound = lambda box: base.sup_bound(box.shifted(-self.dx, -self.dy))

    def eval(self, x, y):
        return self.base.eval(np.asarray(x, dtype=np.float64) - self.dx, np.asarray(y, dtype=np.float64) - self.dy)

    def knots(self):
        knots = self.base.knots()
        if knots is None:
            return None
        return np.asarray(knots[0], dtype=np.float64) + self.dx, np.asarray(knots[1], dtype=np.float64) + self.dy

    def xy_split(self):
        split = self.base.xy_split()
        if split is None:
            return None
        g, h = split
        dx, dy = self.dx, self.dy
        gx = lambda x: g(np.asarray(x, dtype=np.float64) - dx)
        if g is h and dx == dy:
            return gx, gx  # one axis function, so a route can reuse its sums
        return gx, lambda y: h(np.asarray(y, dtype=np.float64) - dy)


# ---------------------------------------------------------------------------
# resource budget

# Every size limit of the package, named by the unit it counts.  tests/test_core.py pins each against
# the largest call of the tests, the benchmark, the full verify suites and the README commands.
_BUDGET = {
    "entries": 1 << 27,  # float64 entries of one array (1 GiB): a sampled grid, an operator's output, mesh or rule
    "evaluations": 1 << 28,  # source evaluations m n P^2 of the tensor route and the RL oracle
    "operations": 1 << 36,  # evaluations plus kernel-weight products of a shared-mesh grid call
    "panels": 1 << 13,  # panels per axis of the tensor rule, the RL oracle and the knot mesh
    "cells": 1 << 14,  # delta-cells of one brute-force box count
    "nodes": 1 << 4,  # grid nodes of the brute-force variation, whose chains grow exponentially in them
    "terms": 1 << 10,  # terms of one weierstrass sum, each a pass of sin over the nodes
}


def _within(limit: str, need: float, what: str) -> None:
    """Refuse ``what`` with a SizeError when ``need``, its predicted use of ``limit``, exceeds the budget."""
    budget = _BUDGET[limit]
    if need > budget:
        raise SizeError(f"{what} needs about {need:.6g} {limit}; the budget is {budget:.6g}")


# ---------------------------------------------------------------------------
# sampling

# float64 entries per block of a blocked evaluation or contraction (2 MB per array)
_APPLY_BLOCK = 1 << 18
# entries of work (source evaluations, samples) that earn a block-parallel loop one more worker
_GRAIN = _APPLY_BLOCK >> 2


# the CLI's ``--threads`` while ``_threads_for`` holds it around one command, else None
_threads = contextvars.ContextVar("fracdim2d_threads", default=None)


def worker_count() -> int:
    """Worker count for block-parallel loops.

    Resolution order: the CLI's ``--threads`` for the command now running,
    then FRACDIM2D_THREADS, else the CPU count; 0 in either means the CPU
    count, a negative count is a ParameterError, and any count is capped at
    the CPU count (``_spread`` also at one worker per ``_GRAIN`` entries of
    work).  Worker count never changes computed values, only wall time.
    """
    cpus = os.cpu_count() or 1
    k = _threads.get()
    if k is None:
        env = os.environ.get("FRACDIM2D_THREADS", "").strip() or "0"
        try:
            k = int(env)
        except ValueError:
            k = -1  # refused with the negative counts
        if k < 0:
            raise ParameterError(f"FRACDIM2D_THREADS must be an integer 0 or more, got {env!r}", parameter="FRACDIM2D_THREADS")
    return cpus if k == 0 else min(k, cpus)


@contextmanager
def _threads_for(threads: int | None):
    """Make ``threads`` (None: FRACDIM2D_THREADS decides) the worker count until the block ends, also on an error."""
    if threads is not None and threads < 0:
        raise ParameterError(f"--threads must be 0 (one per CPU) or more, got {threads}", parameter="threads")
    token = _threads.set(threads)
    try:
        yield
    finally:
        _threads.reset(token)


def row_blocks(count: int, workers: int) -> list[range]:
    """Split range(count) into contiguous blocks, one per worker at most."""
    workers = max(1, min(workers, count))
    step = (count + workers - 1) // workers
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


# The package's one thread pool, built on first use and kept for the life of the process (or of
# a forked child, which drops its parent's: the threads serving it do not exist there).
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# set in the context of every block ``_spread`` hands out: a loop nested in a block runs inline
_in_block = contextvars.ContextVar("fracdim2d_in_block", default=False)


def _workers() -> ThreadPoolExecutor:
    """The pool: cpu_count - 1 threads, the calling thread being the last worker."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, (os.cpu_count() or 1) - 1), thread_name_prefix="fracdim2d")
        return _pool


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()  # the lock too: another thread may have held it at the fork


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _block(run: Callable[[range], None], items: range) -> None:
    _in_block.set(True)
    run(items)


def _spread(run: Callable[[range], None], items: range, cost: int = _GRAIN) -> None:
    """Run ``run`` over contiguous slices of ``items`` from ``row_blocks``, one per worker.

    ``cost`` is the entries of work one item takes; a worker is added only
    for each ``_GRAIN`` of them, so small loops stay on the caller.  The
    calling thread runs the first slice and the pool the others.  Each call
    must write only its own slice's outputs, so the bits never depend on
    the thread count.  Each runs in a copy of the caller's context, so a
    worker keeps the caller's ``np.errstate``.
    """
    workers = 1 if _in_block.get() else min(worker_count(), max(1, len(items) * cost // _GRAIN))
    blocks = [items[b.start : b.stop] for b in row_blocks(len(items), workers)]
    if len(blocks) <= 1:
        run(items)
        return
    pool = _workers()
    futures = [pool.submit(contextvars.copy_context().run, _block, run, block) for block in blocks[1:]]
    try:
        contextvars.copy_context().run(_block, run, blocks[0])
    finally:
        wait(futures)  # no block outlives the call, even when the caller's raised
    for future in futures:
        future.result()


class _Rows(NamedTuple):
    """A grid's samples by bands: ``read(r0, r1)`` is rows [r0, r1), each sample ``cost`` entries of work to ``_spread``."""

    spec: GridSpec
    read: Callable[[int, int], np.ndarray]
    cost: int


def _row_reader(src: FunctionSource, spec: GridSpec) -> _Rows:
    """``spec``'s rows by bands: ``read(r0, r1)`` evaluates the (r1 - r0, n) samples of rows [r0, r1) on each call.

    Checked once, here: the box lies in the source's domain (else DomainError) and the grid holds
    at most the ``entries`` budget of nodes (else SizeError).  A sample not finite is a NumericError.
    """
    if not src.covers(spec.rect):
        raise DomainError(f"grid box {spec.rect} is not inside the domain of source {src.name!r}")
    _within("entries", spec.m * spec.n, f"a {spec.m}x{spec.n} grid")
    xs = spec.xs()
    ys = spec.ys()[None, :]

    def rows(r0: int, r1: int) -> np.ndarray:
        vals = _values(src.eval, "f", xs[r0:r1, None], ys)
        if not np.all(np.isfinite(vals)):
            raise NumericError("grid samples must be finite")
        return vals

    return _Rows(spec, rows, 1)


def sample(src: FunctionSource, spec: GridSpec) -> GridSamples:
    """Evaluate ``src``, a source or a plain callable f(x, y), at every node of ``spec``, row-major, checked as ``_row_reader`` does.

    Rows are evaluated in blocks of at most ``_APPLY_BLOCK`` entries into one array; ``_spread``
    hands runs of rows to its workers, so the output is bit-identical at any thread count.
    """
    rows = _row_reader(_as_source(src, "src"), _kind(spec, GridSpec, "spec")).read
    out = np.empty((spec.m, spec.n), dtype=np.float64)
    step = max(1, _APPLY_BLOCK // spec.n)

    def run(block: range) -> None:
        for r0 in range(block.start, block.stop, step):
            r1 = min(r0 + step, block.stop)
            out[r0:r1] = rows(r0, r1)

    _spread(run, range(spec.m), spec.n)
    return GridSamples._adopt(spec, out)


# ---------------------------------------------------------------------------
# correctly rounded accumulation


def stable_sum(terms: Iterable[float] | np.ndarray) -> float:
    """Correctly rounded sum of ``terms`` (``math.fsum``).

    Low-order bits survive catastrophic intermediate cancellation:
    stable_sum([1e16, 1.0, -1e16]) is exactly 1.0, and the result does not
    depend on the order of the terms.  A non-finite term, or a sum beyond
    float64 range, raises ``NumericError``.
    """
    vals = terms.reshape(-1).tolist() if isinstance(terms, np.ndarray) else [float(x) for x in _kind(terms, Iterable, "terms")]
    if not all(map(math.isfinite, vals)):
        raise NumericError("stable_sum term is not finite")
    try:
        return math.fsum(vals)
    except OverflowError:
        raise NumericError("stable_sum overflowed") from None


# ---------------------------------------------------------------------------
# file formats


def write_samples_csv(gs: GridSamples, path: str) -> None:
    """CSV with header ``x,y,value``, rows in row-major grid order.

    Floats are written as ``%.17g``, enough to round-trip float64 exactly.
    Each x and y coordinate is formatted once; a row template holding the
    y column is filled with each grid row's x and values in one ``%``.
    """
    m, n = _kind(gs, GridSamples, "gs").spec.m, gs.spec.n
    xs = ["%.17g" % v for v in gs.spec.xs().tolist()]
    template = "".join("{x}," + ("%.17g" % v) + ",%.17g\n" for v in gs.spec.ys().tolist())
    mat = gs.matrix
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,value\n")
        for i in range(m):
            fh.write(template.replace("{x}", xs[i]) % tuple(mat[i].tolist()))


@contextmanager
def _naming(path: str):
    # a fault in a sample file names the file, whichever check finds it
    try:
        yield
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _refuse_non_finite(data: np.ndarray) -> None:
    # nan, inf and -inf parse as floats in both formats; a sample file must not hold them
    if not np.all(np.isfinite(data)):
        raise ParameterError("cells must be finite numbers, found nan or inf")


def read_samples_csv(path: str) -> GridSamples:
    """Read a CSV produced by ``write_samples_csv``.

    Grid shape is inferred from the row-major ordering: the leading run of
    equal x entries gives n, the total row count gives m.  Values survive
    the round trip exactly.  A cell that is not a finite number, or a row
    whose length differs, is a ParameterError, as is a file without rows;
    every such message starts with the path.
    """
    with _naming(path):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a file without rows is reported below
                data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ParameterError(f"expected numeric rows of x,y,value ({exc})") from None
        if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 4:
            raise ParameterError("expected rows of x,y,value with at least a 2x2 grid")
        _refuse_non_finite(data)
        x, y, v = data[:, 0], data[:, 1], data[:, 2]
        changes = np.nonzero(x != x[0])[0]
        n = int(changes[0]) if changes.size else data.shape[0]
        if n < 2 or data.shape[0] % n != 0:
            raise ParameterError("rows are not in row-major grid order")
        m = data.shape[0] // n
        if m < 2:
            raise ParameterError("need at least 2 grid rows")
        rect = Box(float(x[0]), float(x[-1]), float(y[0]), float(y[n - 1]))
        spec = GridSpec(rect, m, n)
        gx = np.repeat(spec.xs(), n)
        gy = np.tile(spec.ys(), m)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(data[:, :2]))))
        if np.max(np.abs(gx - x)) > tol or np.max(np.abs(gy - y)) > tol:
            raise ParameterError("node coordinates are not a uniform grid")
        return GridSamples(spec, v)


def write_samples_json(gs: GridSamples, path: str) -> None:
    rect = _kind(gs, GridSamples, "gs").spec.rect
    doc = {
        "rect": {"a": rect.a, "b": rect.b, "c": rect.c, "d": rect.d},
        "m": gs.spec.m,
        "n": gs.spec.n,
        "values": gs.values.tolist(),
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_samples_json(path: str) -> GridSamples:
    """Read a JSON document produced by ``write_samples_json``.

    Text that is not JSON, missing or malformed keys, values that are not
    finite numbers, and a box, grid or value count that does not hold are
    each a ParameterError whose message starts with the path.
    """
    with open(path) as fh, _naming(path):
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep to decode
            raise ParameterError(f"not a JSON document ({exc})") from None
        try:
            rect = Box(doc["rect"]["a"], doc["rect"]["b"], doc["rect"]["c"], doc["rect"]["d"])
            spec = GridSpec(rect, doc["m"], doc["n"])  # m and n follow the count rule, ``_integer``
            values = doc["values"]
        except (KeyError, TypeError):
            raise ParameterError("expected keys rect{a,b,c,d}, integer m and n, and values") from None
        try:
            values = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParameterError("values must be a list of numbers") from None
        _refuse_non_finite(values)
        return GridSamples(spec, values)
