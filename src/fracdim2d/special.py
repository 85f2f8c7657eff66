"""The normalising constant of every axis, whatever its weight, in log space: 1/Gamma(order)
in the anchored coordinate u = (s^rho - lo^rho)/rho of ``fracint._power_map``.
``math.lgamma`` makes a large order underflow it toward zero instead of overflowing Gamma."""

from __future__ import annotations

import math

from .core import NumericError

__all__ = ["log_normaliser"]


def log_normaliser(order: float) -> float:
    """log(1 / Gamma(order)) for order > 0; past about 2.6e305, where log Gamma leaves float64, a NumericError."""
    try:
        return -math.lgamma(order)
    except OverflowError:
        raise NumericError(f"log Gamma({order:g}) overflows float64: order too large") from None
