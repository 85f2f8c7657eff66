"""The operator applied to a constant k or to a source linear in u, in closed form.

Everything here is computed with ``decimal``, apart from numpy and the package.

On one axis the operator maps 1 to (U(x) - U(a))^order / Gamma(order + 1), with U(s) = s^rho/rho,
rho = weight + 1, and U(s) = log s at rho = 0.  At 50 digits, U(x) - U(a) keeps at least 30 of them
down to relative widths x/a - 1 of 1e-20.  Gamma comes from ``math.lgamma``, which is within a few
float spacings of log Gamma; that moves the value by under 1e-13 relative for orders up to about 300.

A source linear in u = U(s) - U(a) has a closed form too: the operator maps u to L^(order+1) /
Gamma(order + 2), L = U(x) - U(a), so s^rho = a^rho + rho u (1 + log(s/a) = 1 + u at rho = 0) goes
to the factor of 1 times a^rho + rho L/(order + 1) (1 + L/(order + 1)).  Both are positive, so
nothing cancels.  Its rule has to place every node right: the value moves with each node's s.
"""

import math
from decimal import Decimal, Overflow, localcontext

FLOAT_MAX = Decimal(1.7976931348623157e308)
FLOAT_TINY = Decimal(2.2250738585072014e-308)  # the smallest normal float


def _width(a: float, x: float, weight: float) -> Decimal:
    """U(x) - U(a)."""
    a_, rho, ratio = Decimal(a), Decimal(weight) + 1, (Decimal(x) / Decimal(a)).ln()
    return ratio if rho == 0 else ((rho * ratio).exp() - 1) * (rho * a_.ln()).exp() / rho


def _log_axis(a: float, x: float, order: float, weight: float):
    """log of one axis's factor, or None where x == a and the factor is 0."""
    if x == a:
        return None
    return _width(a, x, weight).ln() * Decimal(order) - Decimal(math.lgamma(order + 1.0))


def axis_factors(a: float, xs, order: float, weight: float) -> list[Decimal]:
    """(U(x) - U(a))^order / Gamma(order + 1) for each x in ``xs``, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec, ctx.traps[Overflow] = 50, False
        logs = [_log_axis(a, float(x), order, weight) for x in xs]
        return [Decimal(0) if v is None else v.exp() for v in logs]


def linear_factors(a: float, xs, order: float, weight: float) -> list[Decimal]:
    """The one-axis operator applied to s^rho (1 + log(s/a) at rho = 0) at each x in ``xs``, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec, ctx.traps[Overflow] = 50, False
        rho, out = Decimal(weight) + 1, []
        for x, factor in zip(xs, axis_factors(a, xs, order, weight)):
            step = _width(a, float(x), weight) / (Decimal(order) + 1)
            out.append(factor * (1 + step if rho == 0 else (rho * Decimal(a).ln()).exp() + rho * step))
        return out


def constant_integral(k: float, a: float, x: float, c: float, y: float, alpha: float, beta: float, p: float, q: float) -> Decimal:
    """k times the mixed operator of 1 at (x, y), lower limits (a, c), to 50 digits."""
    (fx,), (fy,) = axis_factors(a, [x], alpha, p), axis_factors(c, [y], beta, q)
    with localcontext() as ctx:
        ctx.prec, ctx.traps[Overflow] = 50, False
        return Decimal(k) * fx * fy


def in_float_range(v: Decimal) -> bool:
    """Whether a nonzero value is a normal float: neither past the largest nor below the smallest normal."""
    return FLOAT_TINY <= abs(v) <= FLOAT_MAX
